package experiment

import (
	"slices"
	"sync"
)

// Pass is one invocation's result set. It computes each figure it serves at
// most once per argument set, on the first request; a later or concurrent
// request for the same figure and trial count reads that result, waiting
// for it while it is in flight. cmd/odyssey-sim renders its figures from a
// Pass and Validate scores the paper's claims from the same one, so the
// scorecard reads the runs the figures print instead of running them
// again. A Pass holds its results only while its owner holds it: nothing
// is shared between passes or kept on disk. The zero value is ready to
// use; a Pass must not be copied after first use.
//
// Results are shared, so callers must treat them as read-only.
type Pass struct {
	mu      sync.Mutex
	results map[passKey]func() any
}

// passKey names one computation: a figure id, or a ladder id and rung, and
// the trial count it runs at.
type passKey struct {
	id     string
	trials int
}

// with runs f on the result map while holding the pass's lock.
func (p *Pass) with(f func(results map[passKey]func() any)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.results == nil {
		p.results = map[passKey]func() any{}
	}
	f(p.results)
}

// figure returns fig(trials), computing it on the first request for id at
// that trial count.
func figure[R any](p *Pass, id string, trials int, fig func(trials int) R) R {
	var get func() any
	p.with(func(results map[passKey]func() any) {
		k := passKey{id, trials}
		if get = results[k]; get == nil {
			get = sync.OnceValue(func() any { return fig(trials) })
			results[k] = get
		}
	})
	return get().(R)
}

// Figure6 is Figure6(trials), computed once per pass.
func (p *Pass) Figure6(trials int) *Grid { return figure(p, "fig6", trials, Figure6) }

// Figure8 is Figure8(trials), computed once per pass.
func (p *Pass) Figure8(trials int) *Grid { return figure(p, "fig8", trials, Figure8) }

// Figure10 is Figure10(trials), computed once per pass.
func (p *Pass) Figure10(trials int) *Grid { return figure(p, "fig10", trials, Figure10) }

// Figure11 is Figure11(trials), computed once per pass.
func (p *Pass) Figure11(trials int) *ThinkTimeSeries { return figure(p, "fig11", trials, Figure11) }

// Figure13 is Figure13(trials), computed once per pass.
func (p *Pass) Figure13(trials int) *Grid { return figure(p, "fig13", trials, Figure13) }

// Figure15 is Figure15(trials), computed once per pass.
func (p *Pass) Figure15(trials int) []ConcurrencyResult {
	return figure(p, "fig15", trials, Figure15)
}

// Figure20 is Figure20(trials), computed once per pass.
func (p *Pass) Figure20(trials int) *Arms { return figure(p, "fig20", trials, Figure20) }

// Figure22 is Figure22(trials), computed once per pass.
func (p *Pass) Figure22(trials int) []GoalResult { return figure(p, "fig22", trials, Figure22) }

// ladder is a goal figure whose arms are the rungs of a plan ladder: run
// makes trial t of rung a.
type ladder struct {
	id    string
	rungs []string
	run   func(a, t int) GoalResult
}

// rungRuns returns the runs of the wanted rungs of l, [rung][trial]. Each
// rung is its own entry, so a caller that reads one rung (Validate reads
// "mid") computes only that rung, and the rungs one call finds missing run
// as one sweep, with no barrier between them.
func (p *Pass) rungRuns(l ladder, trials int, want ...string) [][]GoalResult {
	key := func(rung string) passKey { return passKey{l.id + "/" + rung, trials} }
	gets := make([]func() any, len(want))
	p.with(func(results map[passKey]func() any) {
		var missing []int
		for a, name := range l.rungs {
			if results[key(name)] == nil && slices.Contains(want, name) {
				missing = append(missing, a)
			}
		}
		batch := sync.OnceValue(func() [][]GoalResult {
			return sweep(len(missing), trials, func(i, t int) GoalResult { return l.run(missing[i], t) })
		})
		for i, a := range missing {
			results[key(l.rungs[a])] = func() any { return batch()[i] }
		}
		for i, name := range want {
			gets[i] = results[key(name)]
		}
	})
	out := make([][]GoalResult, len(want))
	for i, get := range gets {
		out[i] = get().([]GoalResult)
	}
	return out
}
