package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, made from the benchmark's own code.
// Parent 0 means a root span; the spans of one op share its root.
type span struct {
	id, parent int
	name       string
	worker     int
	start, end time.Duration // since the tracer started
}

// tracer keeps spans in memory; write exports them when the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do times fn as a span named name under parent on worker, and returns its
// duration. fn receives the span's id so calls inside it can nest under it.
func (t *tracer) do(name string, parent, worker int, fn func(id int)) time.Duration {
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{id: id, parent: parent, name: name, worker: worker})
	t.mu.Unlock()
	start := time.Since(t.t0)
	fn(id)
	end := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].start, t.spans[id-1].end = start, end
	t.mu.Unlock()
	return end - start
}

// selfTimes returns each span's duration minus the part of its interval
// its children cover, indexed by span id - 1.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		cs := kids[s.id]
		sort.Slice(cs, func(a, b int) bool { return cs[a].start < cs[b].start })
		covered, reach := time.Duration(0), s.start
		for _, c := range cs {
			lo, hi := max(c.start, reach), min(c.end, s.end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// checkSpans reports the first malformed span: one that ends before it
// starts, names a missing parent, or lies outside its parent's interval.
func checkSpans(spans []span) error {
	for _, s := range spans {
		if s.end < s.start {
			return fmt.Errorf("span %d %s ends before it starts", s.id, s.name)
		}
		if s.parent == 0 {
			continue
		}
		if s.parent < 0 || s.parent > len(spans) || s.parent >= s.id {
			return fmt.Errorf("span %d %s has no earlier parent %d", s.id, s.name, s.parent)
		}
		p := spans[s.parent-1]
		if s.start < p.start || s.end > p.end {
			return fmt.Errorf("span %d %s [%v,%v] escapes parent %s [%v,%v]", s.id, s.name, s.start, s.end, p.name, p.start, p.end)
		}
	}
	return nil
}

// write exports the spans as Chrome trace-event JSON, which Perfetto and
// chrome://tracing open.
func (t *tracer) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	self := selfTimes(t.spans)
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.worker,
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Args: map[string]any{"id": s.id, "parent": s.parent, "self_us": float64(self[i]) / 1e3},
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
