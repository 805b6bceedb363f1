package supervise

// The supervisor's fixed parameters, for the external tests.
const (
	AckDeadline    = ackDeadline
	RetryBudget    = retryBudget
	RestartBackoff = restartBackoff
	BackoffFactor  = backoffFactor
	JitterFrac     = jitterFrac
)
