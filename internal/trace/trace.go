// Package trace is a structured event log for simulation runs: adaptation
// upcalls, device power-state transitions, application operations, and
// monitor decisions, timestamped on the virtual clock. Experiments attach a
// Log to record what happened; tools render it as text or CSV.
//
// The log is bounded: once the capacity is reached the oldest events are
// dropped (and counted), so long goal-directed runs cannot grow without
// limit. Storage grows on demand up to that bound, so a short run that
// records a few dozen events pays for a few dozen, not for the bound.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Category classifies events for filtering.
type Category string

// Standard categories.
const (
	CatAdapt     Category = "adapt"     // fidelity upcalls
	CatDevice    Category = "device"    // power-state transitions
	CatOp        Category = "op"        // application operations
	CatMonitor   Category = "monitor"   // energy-monitor decisions
	CatResource  Category = "resource"  // viceroy resource updates
	CatFault     Category = "fault"     // injected failures (outages, crashes, dropouts)
	CatSupervise Category = "supervise" // application supervision (watchdogs, restarts, quarantine)
)

// Event is one timestamped observation.
type Event struct {
	Time     time.Duration
	Category Category
	Subject  string // who: app or device name
	Message  string
	Value    float64 // optional numeric payload (level, watts, joules)
}

// String renders the event on one line.
func (e Event) String() string {
	return fmt.Sprintf("%10.3fs %-8s %-10s %s (%.3g)",
		e.Time.Seconds(), e.Category, e.Subject, e.Message, e.Value)
}

// Log is a bounded event recorder. The zero value is unusable; create one
// with NewLog.
type Log struct {
	now     func() time.Duration
	cap     int
	events  []Event
	dropped int
}

// defaultCap is the bound NewLog applies when given cap <= 0.
const defaultCap = 1 << 16

// firstChunk is the event count of the first backing array; each later
// growth doubles it, up to the log's bound.
const firstChunk = 32

// NewLog creates a log reading timestamps from now, holding at most cap
// events (cap <= 0 selects defaultCap). It reserves no event storage.
func NewLog(now func() time.Duration, cap int) *Log {
	if cap <= 0 {
		cap = defaultCap
	}
	return &Log{now: now, cap: cap}
}

// Add records an event at the current virtual time.
func (l *Log) Add(cat Category, subject, message string, value float64) {
	if len(l.events) >= l.cap {
		// Drop the oldest half (at least one event) to amortize copying.
		n := max(l.cap/2, 1)
		copy(l.events, l.events[n:])
		l.events = l.events[:len(l.events)-n]
		l.dropped += n
	}
	if len(l.events) == cap(l.events) {
		l.grow()
	}
	// Re-extend into the backing array and write fields in place.
	i := len(l.events)
	l.events = l.events[:i+1]
	e := &l.events[i]
	e.Time = l.now()
	e.Category = cat
	e.Subject = subject
	e.Message = message
	e.Value = value
}

// grow doubles the backing array (starting from firstChunk), never beyond
// the bound. Once the array reaches the bound, dropping keeps Add in place.
func (l *Log) grow() {
	n := min(max(2*cap(l.events), firstChunk), l.cap)
	//odylint:allow hotalloc amortized growth: at most ~log2(cap) arrays per log, none once the bound is reached
	grown := make([]Event, len(l.events), n)
	copy(grown, l.events)
	l.events = grown
}

// Len reports the number of retained events.
func (l *Log) Len() int { return len(l.events) }

// Dropped reports how many events were discarded to respect the bound.
func (l *Log) Dropped() int { return l.dropped }

// Events returns the retained events, oldest first (a copy).
func (l *Log) Events() []Event {
	out := make([]Event, len(l.events))
	copy(out, l.events)
	return out
}

// Filter returns the retained events matching the category (all categories
// if cat is empty) and subject (all subjects if empty).
func (l *Log) Filter(cat Category, subject string) []Event {
	var out []Event
	for _, e := range l.events {
		if cat != "" && e.Category != cat {
			continue
		}
		if subject != "" && e.Subject != subject {
			continue
		}
		out = append(out, e)
	}
	return out
}

// Counts returns the number of events per (category, subject) pair,
// rendered as "category/subject" keys, sorted in the returned key list.
func (l *Log) Counts() (keys []string, counts map[string]int) {
	counts = make(map[string]int)
	for _, e := range l.events {
		counts[string(e.Category)+"/"+e.Subject]++
	}
	keys = make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, counts
}

// Text renders the whole log, one event per line.
func (l *Log) Text() string {
	var b strings.Builder
	for _, e := range l.events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	if l.dropped > 0 {
		fmt.Fprintf(&b, "(%d earlier events dropped)\n", l.dropped)
	}
	return b.String()
}

// CSV renders the log as comma-separated values with a header row.
func (l *Log) CSV() string {
	var b strings.Builder
	b.WriteString("t_seconds,category,subject,message,value\n")
	for _, e := range l.events {
		fmt.Fprintf(&b, "%.3f,%s,%s,%q,%g\n",
			e.Time.Seconds(), e.Category, e.Subject, e.Message, e.Value)
	}
	return b.String()
}
