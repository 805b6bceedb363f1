package netsim

import (
	"fmt"
	"math/rand"
	"time"

	"odyssey/internal/sim"
)

// Pool is a fleet of interchangeable offload servers plus a deterministic
// model of the load other devices place on them. Each member is a full
// Server — processor-sharing queueing, speed jitter, crash and latency
// injection — so fault plans can target pool members exactly like the
// fixed rig servers. Contention is a seeded background-load process on the
// pool's private RNG stream: per server, the load level holds for a drawn
// dwell time, then redraws, stretching service times by 1+load. The levels
// double as the pool's load bulletin: the offload cost model reads the
// same figure the queueing model applies, so estimates and reality agree
// by construction.
type Pool struct {
	k       *sim.Kernel
	servers []*Server
	rng     *rand.Rand
	level   float64 // mean contention level (phantom strangers per server)
}

// Contention dwell-time bounds: how long one background-load level holds
// before the pool redraws it.
const (
	contentionDwellMin = 5 * time.Second
	contentionDwellMax = 20 * time.Second
)

// NewPool builds n servers named base-0 … base-(n-1), and a private RNG
// stream for contention so the pool's weather never perturbs kernel-RNG
// draws elsewhere.
func NewPool(k *sim.Kernel, base string, n int, seed int64) *Pool {
	pl := &Pool{k: k, rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < n; i++ {
		pl.servers = append(pl.servers, NewServer(k, fmt.Sprintf("%s-%d", base, i)))
	}
	return pl
}

// Servers returns the pool members in index order.
func (pl *Pool) Servers() []*Server { return pl.servers }

// Size reports the pool's member count.
func (pl *Pool) Size() int { return len(pl.servers) }

// Server returns member i.
func (pl *Pool) Server(i int) *Server { return pl.servers[i] }

// StartContention arms the background-load process at the given mean level
// (phantom concurrent strangers per server; zero or negative leaves the
// pool calm). Each server gets an initial load draw in [0, 2·level] and a
// dwell-redraw chain on the virtual clock. Determinism: all draws come
// from the pool's seeded stream, and the kernel orders same-instant timer
// callbacks deterministically.
func (pl *Pool) StartContention(level float64) {
	if level <= 0 {
		return
	}
	pl.level = level
	for i := range pl.servers {
		pl.servers[i].SetBackgroundLoad(2 * level * pl.rng.Float64())
		pl.arm(i)
	}
}

// arm schedules server i's next load redraw.
func (pl *Pool) arm(i int) {
	span := float64(contentionDwellMax - contentionDwellMin)
	dwell := contentionDwellMin + time.Duration(span*pl.rng.Float64())
	pl.k.After(dwell, func() {
		pl.servers[i].SetBackgroundLoad(2 * pl.level * pl.rng.Float64())
		pl.arm(i)
	})
}

// EstimateSec is the cost model's wall-clock estimate for d of compute on
// member i: the nominal service time stretched by the server's published
// latency factor and load bulletin. A crashed member estimates +Inf-like
// by returning a very large duration, steering selection elsewhere.
func (pl *Pool) EstimateSec(i int, d time.Duration) time.Duration {
	s := pl.servers[i]
	if s.Down() {
		return 1 << 62
	}
	sec := d.Seconds() * s.LatencyFactor() * (1 + s.BackgroundLoad())
	return time.Duration(sec * float64(time.Second))
}
