package sim

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// TestEventHeapMatchesSortedOracle is the property test for the typed event
// heap. The hybrid-vs-pure-heap gate cannot see a heap-order bug, because
// both of its modes share eventHeap; here random push / remove(i) / pop-min
// sequences, with deadlines drawn from a handful of values so most of them
// tie, run against a slice kept sorted by (at, seq). After every operation
// each queued timer's index must name its slot and draining a copy of the
// heap must pop exactly the oracle's sequence.
func TestEventHeapMatchesSortedOracle(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var h eventHeap
		var oracle []*timer
		var seq uint64
		for op := 0; op < 300; op++ {
			switch r := rng.Intn(10); {
			case r < 5 || len(h) == 0:
				seq++
				tm := &timer{at: time.Duration(rng.Intn(6)), seq: seq, index: timerIdle}
				h.push(tm)
				i, _ := slices.BinarySearchFunc(oracle, tm, cmpTimers)
				oracle = slices.Insert(oracle, i, tm)
			case r < 8:
				tm := h.remove(rng.Intn(len(h)))
				if tm.index != timerIdle {
					t.Fatalf("seed %d op %d: removed timer keeps index %d", seed, op, tm.index)
				}
				i := slices.Index(oracle, tm)
				if i < 0 {
					t.Fatalf("seed %d op %d: remove returned a timer that was not queued", seed, op)
				}
				oracle = slices.Delete(oracle, i, i+1)
			default:
				if tm := h.remove(0); tm != oracle[0] {
					t.Fatalf("seed %d op %d: pop-min gave (%v, %d), oracle (%v, %d)",
						seed, op, tm.at, tm.seq, oracle[0].at, oracle[0].seq)
				}
				oracle = oracle[1:]
			}
			checkHeapAgainst(t, h, oracle, seed, op)
		}
	}
}

// cmpTimers orders timers by (at, seq), the kernel's dispatch order.
func cmpTimers(a, b *timer) int {
	switch {
	case a.before(b):
		return -1
	case b.before(a):
		return 1
	}
	return 0
}

// checkHeapAgainst verifies h's slot indices, then drains a deep copy of h
// and requires the (at, seq) pop sequence to equal the sorted oracle.
func checkHeapAgainst(t *testing.T, h eventHeap, oracle []*timer, seed int64, op int) {
	t.Helper()
	if len(h) != len(oracle) {
		t.Fatalf("seed %d op %d: heap holds %d timers, oracle %d", seed, op, len(h), len(oracle))
	}
	c := make(eventHeap, len(h))
	for i, tm := range h {
		if tm.index != i {
			t.Fatalf("seed %d op %d: timer in slot %d has index %d", seed, op, i, tm.index)
		}
		cp := *tm
		c[i] = &cp
	}
	for i, want := range oracle {
		got := c.remove(0)
		if got.at != want.at || got.seq != want.seq {
			t.Fatalf("seed %d op %d: pop %d gave (%v, %d), oracle (%v, %d)",
				seed, op, i, got.at, got.seq, want.at, want.seq)
		}
	}
}
