package trace

import (
	"strings"
	"testing"
	"time"
)

func fixedClock(t *time.Duration) func() time.Duration {
	return func() time.Duration { return *t }
}

func TestAddAndFilter(t *testing.T) {
	now := time.Duration(0)
	l := NewLog(fixedClock(&now), 0)
	l.Add(CatAdapt, "video", "level 3 -> 2", 2)
	now = time.Second
	l.Add(CatDevice, "disk", "idle -> standby", 0)
	l.Add(CatAdapt, "speech", "level 1 -> 0", 0)

	if l.Len() != 3 {
		t.Fatalf("len %d", l.Len())
	}
	adapts := l.Filter(CatAdapt, "")
	if len(adapts) != 2 {
		t.Fatalf("%d adapt events", len(adapts))
	}
	video := l.Filter(CatAdapt, "video")
	if len(video) != 1 || video[0].Value != 2 {
		t.Fatalf("video events %v", video)
	}
	all := l.Filter("", "")
	if len(all) != 3 {
		t.Fatalf("unfiltered %d", len(all))
	}
	if all[1].Time != time.Second {
		t.Fatalf("timestamp %v", all[1].Time)
	}
}

// TestBoundedDropsOldest: after every Add the log holds at most its bound,
// counts each dropped event, keeps the newest, and keeps the retained events
// in insertion order - including the smallest bounds, where half the bound
// rounds down to zero.
func TestBoundedDropsOldest(t *testing.T) {
	for _, bound := range []int{1, 2, 3, 8} {
		now := time.Duration(0)
		l := NewLog(fixedClock(&now), bound)
		for i := 0; i < 20; i++ {
			l.Add(CatOp, "app", "op", float64(i))
			if l.Len() > bound {
				t.Fatalf("bound %d: %d events retained after add %d", bound, l.Len(), i)
			}
			if l.Len()+l.Dropped() != i+1 {
				t.Fatalf("bound %d: %d retained + %d dropped after %d adds", bound, l.Len(), l.Dropped(), i+1)
			}
			evs := l.Events()
			if evs[len(evs)-1].Value != float64(i) {
				t.Fatalf("bound %d: newest retained value %v after add %d", bound, evs[len(evs)-1].Value, i)
			}
			for j := 1; j < len(evs); j++ {
				if evs[j].Value != evs[j-1].Value+1 {
					t.Fatalf("bound %d: retained events %v not consecutive in order", bound, evs)
				}
			}
		}
	}
}

func TestCounts(t *testing.T) {
	now := time.Duration(0)
	l := NewLog(fixedClock(&now), 0)
	l.Add(CatAdapt, "video", "x", 0)
	l.Add(CatAdapt, "video", "y", 0)
	l.Add(CatDevice, "nic", "z", 0)
	keys, counts := l.Counts()
	if len(keys) != 2 || counts["adapt/video"] != 2 || counts["device/nic"] != 1 {
		t.Fatalf("counts %v %v", keys, counts)
	}
}

func TestTextAndCSV(t *testing.T) {
	now := 1500 * time.Millisecond
	l := NewLog(fixedClock(&now), 0)
	l.Add(CatMonitor, "odyssey", `degrade "video"`, 1)
	text := l.Text()
	if !strings.Contains(text, "monitor") || !strings.Contains(text, "odyssey") {
		t.Fatalf("text: %q", text)
	}
	csv := l.CSV()
	if !strings.HasPrefix(csv, "t_seconds,category,subject,message,value\n") {
		t.Fatalf("csv header: %q", csv)
	}
	if !strings.Contains(csv, "1.500,monitor,odyssey") {
		t.Fatalf("csv row: %q", csv)
	}
	// Quoted message survives embedded quotes.
	if !strings.Contains(csv, `"degrade \"video\""`) {
		t.Fatalf("csv quoting: %q", csv)
	}
}

func TestEventString(t *testing.T) {
	e := Event{Time: 2 * time.Second, Category: CatDevice, Subject: "disk", Message: "spin-up", Value: 2.3}
	s := e.String()
	for _, want := range []string{"2.000s", "device", "disk", "spin-up"} {
		if !strings.Contains(s, want) {
			t.Fatalf("event string %q missing %q", s, want)
		}
	}
}

// preallocLog is the log's earlier storage algorithm, kept as a reference:
// the whole bound reserved up front and the oldest half dropped at the bound.
type preallocLog struct {
	cap     int
	events  []Event
	dropped int
}

func (r *preallocLog) add(e Event) {
	if r.events == nil {
		r.events = make([]Event, 0, r.cap)
	}
	if len(r.events) >= r.cap {
		n := r.cap / 2
		copy(r.events, r.events[n:])
		r.events = r.events[:len(r.events)-n]
		r.dropped += n
	}
	r.events = append(r.events, e)
}

// TestGrowableMatchesPreallocated: over a sequence that crosses the default
// bound twice, the growable log retains, drops and renders exactly what the
// preallocated reference does.
func TestGrowableMatchesPreallocated(t *testing.T) {
	now := time.Duration(0)
	l := NewLog(fixedClock(&now), 0)
	ref := &preallocLog{cap: defaultCap}
	cats := []Category{CatAdapt, CatDevice, CatMonitor, CatFault}
	n := defaultCap + defaultCap/2 + 1000 // drops at adds 65537 and 98305
	for i := 0; i < n; i++ {
		now = time.Duration(i) * 7 * time.Millisecond
		e := Event{Time: now, Category: cats[i%len(cats)], Subject: "app", Message: "op", Value: float64(i)}
		l.Add(e.Category, e.Subject, e.Message, e.Value)
		ref.add(e)
		if l.Len() != len(ref.events) || l.Dropped() != ref.dropped {
			t.Fatalf("add %d: len/dropped %d/%d, reference %d/%d", i, l.Len(), l.Dropped(), len(ref.events), ref.dropped)
		}
	}
	if ref.dropped != defaultCap {
		t.Fatalf("reference dropped %d events, want two half-bound drops (%d)", ref.dropped, defaultCap)
	}
	want := &Log{events: ref.events, dropped: ref.dropped}
	if l.Text() != want.Text() {
		t.Fatal("Text differs from the preallocated reference")
	}
	if l.CSV() != want.CSV() {
		t.Fatal("CSV differs from the preallocated reference")
	}
}
