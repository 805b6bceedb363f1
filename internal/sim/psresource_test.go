package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

// near reports whether two durations agree within tol.
func near(a, b, tol time.Duration) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}

func TestPSSingleJobExactServiceTime(t *testing.T) {
	k := NewKernel(1)
	r := NewPSResource(k, "cpu", 2.0) // 2 units/sec
	var done time.Duration
	k.Spawn("u", func(p *Proc) {
		r.Use(p, "app", 6.0) // should take 3s
		done = p.Now()
	})
	k.Run(0)
	if !near(done, 3*time.Second, time.Microsecond) {
		t.Fatalf("job finished at %v, want ~3s", done)
	}
}

func TestPSTwoEqualJobsShare(t *testing.T) {
	k := NewKernel(1)
	r := NewPSResource(k, "cpu", 1.0)
	var fin [2]time.Duration
	for i := 0; i < 2; i++ {
		i := i
		k.Spawn("u", func(p *Proc) {
			r.Use(p, "app", 2.0)
			fin[i] = p.Now()
		})
	}
	k.Run(0)
	// Both jobs share: each runs at 0.5 units/s, so both finish at 4s.
	for i, f := range fin {
		if !near(f, 4*time.Second, time.Microsecond) {
			t.Fatalf("job %d finished at %v, want ~4s", i, f)
		}
	}
}

func TestPSLateArrivalSlowsFirstJob(t *testing.T) {
	k := NewKernel(1)
	r := NewPSResource(k, "cpu", 1.0)
	var first, second time.Duration
	k.Spawn("a", func(p *Proc) {
		r.Use(p, "a", 3.0)
		first = p.Now()
	})
	k.Spawn("b", func(p *Proc) {
		p.Sleep(1 * time.Second)
		r.Use(p, "b", 3.0)
		second = p.Now()
	})
	k.Run(0)
	// a runs alone 0..1 (1 unit done), then shares: 2 units left at 0.5/s
	// -> a done at t=5. b: at t=5 has done 2 of 3; runs alone -> t=6.
	if !near(first, 5*time.Second, time.Microsecond) {
		t.Fatalf("first finished at %v, want ~5s", first)
	}
	if !near(second, 6*time.Second, time.Microsecond) {
		t.Fatalf("second finished at %v, want ~6s", second)
	}
}

func TestPSUseAsync(t *testing.T) {
	k := NewKernel(1)
	r := NewPSResource(k, "cpu", 1.0)
	var doneAt time.Duration = -1
	r.UseAsync("irq", 2.0, func() { doneAt = k.Now() })
	k.Run(0)
	if !near(doneAt, 2*time.Second, time.Microsecond) {
		t.Fatalf("async job done at %v, want ~2s", doneAt)
	}
}

func TestPSZeroDemandImmediate(t *testing.T) {
	k := NewKernel(1)
	r := NewPSResource(k, "cpu", 1.0)
	var at time.Duration = -1
	k.Spawn("u", func(p *Proc) {
		r.Use(p, "a", 0)
		at = p.Now()
	})
	called := false
	r.UseAsync("b", -1, func() { called = true })
	k.Run(0)
	if at != 0 {
		t.Fatalf("zero-demand Use returned at %v, want 0", at)
	}
	if !called {
		t.Fatal("zero-demand async onDone not called")
	}
}

func TestPSBusyTimeAndServed(t *testing.T) {
	k := NewKernel(1)
	r := NewPSResource(k, "cpu", 1.0)
	k.Spawn("u", func(p *Proc) {
		r.Use(p, "a", 2.0)
		p.Sleep(3 * time.Second) // idle gap
		r.Use(p, "a", 1.0)
	})
	k.Run(0)
	if got := r.BusyTime(); !near(got, 3*time.Second, time.Microsecond) {
		t.Fatalf("busy time %v, want ~3s", got)
	}
	if math.Abs(r.Served()-3.0) > 1e-6 {
		t.Fatalf("served %v, want 3", r.Served())
	}
}

func TestPSSharesSnapshot(t *testing.T) {
	k := NewKernel(1)
	r := NewPSResource(k, "cpu", 1.0)
	k.Spawn("a", func(p *Proc) { r.Use(p, "alpha", 10) })
	k.Spawn("b", func(p *Proc) { r.Use(p, "beta", 10) })
	k.At(time.Second, func() {
		shares := r.Shares(nil)
		if len(shares) != 2 {
			t.Errorf("got %d shares, want 2", len(shares))
			return
		}
		total := 0.0
		for _, s := range shares {
			total += s.Fraction
		}
		if math.Abs(total-1.0) > 1e-9 {
			t.Errorf("share fractions sum to %v", total)
		}
		k.Stop()
	})
	k.Run(0)
}

func TestPSOnChangeFires(t *testing.T) {
	k := NewKernel(1)
	r := NewPSResource(k, "cpu", 1.0)
	changes := 0
	r.OnChange = func() { changes++ }
	k.Spawn("u", func(p *Proc) { r.Use(p, "a", 1.0) })
	k.Run(0)
	if changes < 2 { // one add + one completion
		t.Fatalf("OnChange fired %d times, want >= 2", changes)
	}
}

func TestPSSetCapacityPreservesWork(t *testing.T) {
	k := NewKernel(1)
	r := NewPSResource(k, "link", 1.0)
	var done time.Duration
	k.Spawn("u", func(p *Proc) {
		r.Use(p, "a", 4.0)
		done = p.Now()
	})
	k.At(2*time.Second, func() { r.SetCapacity(2.0) })
	k.Run(0)
	// 2 units at 1/s, then 2 units at 2/s -> finish at 3s.
	if !near(done, 3*time.Second, time.Microsecond) {
		t.Fatalf("finished at %v, want ~3s", done)
	}
}

// TestPSWorkConservation is a property test: for any set of jobs with
// arbitrary arrival offsets and demands, every job completes, total served
// work equals total demand, and no job finishes before demand/capacity.
func TestPSWorkConservation(t *testing.T) {
	prop := func(seeds []uint8) bool {
		if len(seeds) == 0 || len(seeds) > 24 {
			return true
		}
		k := NewKernel(1)
		r := NewPSResource(k, "cpu", 1.5)
		type result struct {
			arrive, finish time.Duration
			demand         float64
		}
		results := make([]result, len(seeds))
		totalDemand := 0.0
		for i, s := range seeds {
			i := i
			arrive := time.Duration(s%16) * 250 * time.Millisecond
			demand := 0.25 + float64(s%7)*0.5
			totalDemand += demand
			results[i] = result{arrive: arrive, demand: demand, finish: -1}
			k.Spawn("j", func(p *Proc) {
				p.SleepUntil(arrive)
				r.Use(p, "x", demand)
				results[i].finish = p.Now()
			})
		}
		k.Run(0)
		for _, res := range results {
			if res.finish < 0 {
				return false // job never completed
			}
			minTime := time.Duration(res.demand / 1.5 * float64(time.Second))
			if res.finish-res.arrive < minTime-time.Millisecond {
				return false // finished faster than full capacity allows
			}
		}
		if math.Abs(r.Served()-totalDemand) > 1e-6*totalDemand+1e-9 {
			return false
		}
		// Makespan lower bound: total work / capacity from first arrival.
		sort.Slice(results, func(i, j int) bool { return results[i].arrive < results[j].arrive })
		last := results[0].finish
		for _, res := range results {
			if res.finish > last {
				last = res.finish
			}
		}
		lb := time.Duration(totalDemand / 1.5 * float64(time.Second))
		if last < lb-time.Millisecond {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPSFairness: two jobs of equal demand arriving together finish together.
func TestPSFairness(t *testing.T) {
	prop := func(d8 uint8, n8 uint8) bool {
		n := int(n8%5) + 2
		demand := 0.5 + float64(d8)/32.0
		k := NewKernel(1)
		r := NewPSResource(k, "cpu", 1.0)
		finishes := make([]time.Duration, n)
		for i := 0; i < n; i++ {
			i := i
			k.Spawn("j", func(p *Proc) {
				r.Use(p, "x", demand)
				finishes[i] = p.Now()
			})
		}
		k.Run(0)
		want := time.Duration(demand * float64(n) * float64(time.Second))
		for _, f := range finishes {
			if !near(f, want, 10*time.Microsecond) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPSInvalidCapacityPanics(t *testing.T) {
	k := NewKernel(1)
	defer func() {
		if recover() == nil {
			t.Error("zero capacity did not panic")
		}
	}()
	NewPSResource(k, "bad", 0)
}
