package offload

import "time"

// breakerState is the classic three-state circuit breaker, run entirely on
// the virtual clock: closed admits traffic; breakerThreshold consecutive
// failures open it; after breakerCooldown of virtual time an open breaker
// admits exactly one half-open probe, whose outcome either re-closes or
// re-opens it. Breakers are per pool member, so one crashed server stops
// costing timeouts while its siblings keep serving.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

type breaker struct {
	state     breakerState
	fails     int
	openUntil time.Duration
}

// admit reports whether member i may receive traffic now, promoting an
// expired open breaker to half-open as a side effect.
func (s *Service) admit(i int) bool {
	b := &s.breakers[i]
	switch b.state {
	case breakerOpen:
		if s.k.Now() >= b.openUntil {
			b.state = breakerHalfOpen
			return true
		}
		return false
	default:
		return true
	}
}

// record folds one attempt's outcome into member i's breaker.
func (s *Service) record(i int, ok bool) {
	b := &s.breakers[i]
	if ok {
		b.state = breakerClosed
		b.fails = 0
		return
	}
	b.fails++
	if b.state == breakerHalfOpen || b.fails >= breakerThreshold {
		b.state = breakerOpen
		b.openUntil = s.k.Now() + breakerCooldown
		b.fails = 0
		s.Stats.BreakerTrips++
	}
}

// BreakerState reports member i's state name, for event logs and tests.
func (s *Service) BreakerState(i int) string {
	switch s.breakers[i].state {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}
