package offload

// The breaker's fixed parameters, for the external tests.
const (
	BreakerThreshold = breakerThreshold
	BreakerCooldown  = breakerCooldown
)
