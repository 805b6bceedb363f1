package faults_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"odyssey/internal/netsim"
	"odyssey/internal/sim"
	"odyssey/internal/trace"
)

// updateGolden rewrites testdata/event_stream.golden from the current code:
//
//	go test ./internal/faults -run TestEventStreamGolden -update
//
// Do it only for a change meant to alter the fault schedule, and say why in
// CHANGES.md.
var updateGolden = flag.Bool("update", false, "rewrite testdata/event_stream.golden from the current code")

// TestEventStreamGolden pins the fault event stream exactly: every kind of
// allKindsSpec plus the pool:any injectors of anyPoolSpec on one rig, with a
// process making a bulk transfer every few seconds so byte loss draws from
// the plan's stream between toggles. The same process stands in for a
// supervisor and a viceroy, reviving the killed application and degrading
// it, so kills repeat and thrash windows re-raise. Each CatFault event is
// written with its
// time in nanoseconds and its value as a hex float, then the plan's counts,
// so a change to the RNG draw order, an event message or a value shows up
// as a line diff.
func TestEventStreamGolden(t *testing.T) {
	k, tg := newPoolRig(21, 3)
	spec := allKindsSpec()
	spec.Injectors = append(spec.Injectors, anyPoolSpec().Injectors...)
	pl, err := spec.Plan(k, tg)
	if err != nil {
		t.Fatalf("materialize: %v", err)
	}
	pl.Log = trace.NewLog(k.Now, 0)
	pl.Start()
	video := tg.apps["video"]
	k.Spawn("fetcher", func(p *sim.Proc) {
		for {
			// Errors are the faults at work; the stream is what is pinned.
			_ = tg.net.BulkTransfer(p, "app", 40_000, netsim.CallOptions{Timeout: 20 * time.Second})
			video.health.SetCrashed(false)
			video.level = 0
			p.Sleep(3 * time.Second)
		}
	})
	k.At(10*time.Minute, func() { k.Stop() })
	k.Run(0)
	pl.Stop()

	var b strings.Builder
	for _, e := range pl.Log.Filter(trace.CatFault, "") {
		fmt.Fprintf(&b, "%d %s %q %x\n", int64(e.Time), e.Subject, e.Message, e.Value)
	}
	keys, counts := pl.Counts()
	for _, key := range keys {
		fmt.Fprintf(&b, "count %s %d\n", key, counts[key])
	}
	got := b.String()

	path := filepath.Join("testdata", "event_stream.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("event stream differs from %s at line %d:\n got  %q\n want %q", path, i+1, g, w)
		}
	}
}
