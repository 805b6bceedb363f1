package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// loopResult is what one closed-loop run of a workload measured.
type loopResult struct {
	Ops    int     `json:"ops"`
	Failed int     `json:"failed"`
	WallS  float64 `json:"wall_s"`
	P50Ms  float64 `json:"p50_ms"`
	TailMs float64 `json:"tail_ms"`
	// Digest is the sha256 over the lines of ops [0, minOps).
	Digest string `json:"digest"`
	// Detail describes the first failure.
	Detail string `json:"detail,omitempty"`
}

// runLoop drives op from clients closed-loop clients: each starts its next
// op when the previous one returns. Ops are taken in index order until
// minOps have started and d has passed; ops already started run to the
// end, so the completed ops are exactly [0, n). Latency and throughput
// cover those n ops; the wall ends when the last one returns.
func runLoop(op func(int) opResult, clients, minOps int, d time.Duration, tailQ float64) loopResult {
	var (
		mu      sync.Mutex
		next    int
		stopped bool
		lat     []time.Duration
		lines   = make([]string, minOps)
		res     loopResult
		last    time.Time
	)
	start := time.Now()
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if stopped || (next >= minOps && time.Since(start) >= d) {
			stopped = true
			return 0, false
		}
		next++
		lat = append(lat, 0)
		return next - 1, true
	}
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := take()
				if !ok {
					return
				}
				t0 := time.Now()
				r := op(i)
				end := time.Now()
				mu.Lock()
				lat[i] = end.Sub(t0)
				if end.After(last) {
					last = end
				}
				if i < minOps {
					lines[i] = r.line
				}
				if r.failed {
					res.Failed++
					if res.Detail == "" {
						res.Detail = r.detail
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.Ops = len(lat)
	res.WallS = last.Sub(start).Seconds()
	ms := durationsMs(lat)
	sort.Float64s(ms)
	res.P50Ms = quantile(ms, 0.5)
	res.TailMs = quantile(ms, tailQ)
	h := sha256.New()
	for _, l := range lines {
		_, _ = io.WriteString(h, l) // a hash's Write never fails
	}
	res.Digest = hex.EncodeToString(h.Sum(nil))
	return res
}

// forEach runs fn(worker, i) for i in [0, n) on workers goroutines and
// returns when all have finished.
func forEach(n, workers int, fn func(w, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				fn(w, i)
			}
		}()
	}
	wg.Wait()
}

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// quantile returns the nearest-rank q-quantile of sorted values (0 for
// none): the smallest value with at least a q share of values at or below.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(k, len(sorted)-1))]
}

// median returns the median of values (0 for none), averaging the middle
// pair of an even count.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// goStats is a snapshot of the Go runtime's allocation and GC counters.
type goStats struct {
	alloc, numGC uint64
	gcCPU, cpu   float64
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readGoStats() goStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := append([]metrics.Sample(nil), cpuSamples...)
	metrics.Read(s)
	return goStats{alloc: ms.TotalAlloc, numGC: uint64(ms.NumGC), gcCPU: s[0].Value.Float64(), cpu: s[1].Value.Float64()}
}

// report records the go.<workload>.* metrics for ops run since a.
func (a goStats) report(b goStats, ops int, name string, out map[string]float64) {
	n := float64(max(ops, 1))
	out["go."+name+".alloc_mb_per_op"] = float64(b.alloc-a.alloc) / n / (1 << 20)
	out["go."+name+".gc_per_op"] = float64(b.numGC-a.numGC) / n
	out["go."+name+".gc_cpu_frac"] = (b.gcCPU - a.gcCPU) / math.Max(b.cpu-a.cpu, 1e-9)
}
