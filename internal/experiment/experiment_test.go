package experiment

import (
	"maps"
	"runtime"
	"strings"
	"testing"
	"time"

	"odyssey/internal/app/env"
	"odyssey/internal/app/mapview"
	"odyssey/internal/app/speech"
	"odyssey/internal/app/video"
	"odyssey/internal/app/web"
	"odyssey/internal/trace"
)

// assertRange checks that the measured savings range [lo, hi] of bar vs ref
// overlaps (paperLo-slack, paperHi+slack) and is ordered sensibly. The
// substrate is a simulator, so we verify the paper's shape with tolerance
// rather than exact percentages.
func assertRange(t *testing.T, g *Grid, bar, ref int, paperLo, paperHi, slack float64) {
	t.Helper()
	lo, hi := g.SavingsRange(bar, ref)
	if hi < paperLo-slack || lo > paperHi+slack {
		t.Errorf("%s vs %s: measured %.1f%%-%.1f%%, paper %.0f%%-%.0f%% (slack %.0f)",
			g.Bars[bar], g.Bars[ref], lo*100, hi*100, paperLo*100, paperHi*100, slack*100)
	}
}

const testTrials = 2

func TestFigure6VideoBands(t *testing.T) {
	g := Figure6(testTrials)
	if len(g.Objects) != 4 || len(g.Bars) != 6 {
		t.Fatalf("grid shape %dx%d", len(g.Objects), len(g.Bars))
	}
	assertRange(t, g, g.BarIndex(BarHWOnly), 0, 0.09, 0.10, 0.02)        // "a mere 9-10%"
	assertRange(t, g, g.BarIndex(BarPremiereC), 1, 0.16, 0.17, 0.03)     // "16-17% less than hw-only"
	assertRange(t, g, g.BarIndex(BarReducedWindow), 1, 0.19, 0.20, 0.03) // "19-20% beyond hw-only"
	assertRange(t, g, g.BarIndex(BarCombined), 1, 0.28, 0.30, 0.04)      // "28-30% relative to hw-only"
	if lo, hi := g.SavingsRange(g.BarIndex(BarCombined), 0); lo < 0.30 || hi > 0.45 {
		t.Errorf("all techniques vs baseline %.1f%%-%.1f%%, paper ~35%%", lo*100, hi*100)
	}
	// Energy must decrease monotonically across the fidelity bars.
	for oi := range g.Objects {
		for bi := 1; bi < len(g.Bars); bi++ {
			if bi >= 2 && g.Cells[oi][bi].Energy.Mean >= g.Cells[oi][bi-1].Energy.Mean {
				t.Errorf("%s: %s not below %s", g.Objects[oi], g.Bars[bi], g.Bars[bi-1])
			}
		}
	}
}

func TestFigure8SpeechBands(t *testing.T) {
	g := Figure8(testTrials)
	if len(g.Bars) != 7 {
		t.Fatalf("grid has %d bars", len(g.Bars))
	}
	assertRange(t, g, g.BarIndex(BarHWOnly), 0, 0.33, 0.34, 0.03)
	assertRange(t, g, g.BarIndex(BarReducedModel), 1, 0.25, 0.46, 0.04)
	assertRange(t, g, g.BarIndex(BarRemote), 1, 0.33, 0.44, 0.04)
	assertRange(t, g, g.BarIndex(BarRemoteReduced), 1, 0.42, 0.65, 0.04)
	assertRange(t, g, g.BarIndex(BarHybrid), 1, 0.47, 0.55, 0.04)
	assertRange(t, g, g.BarIndex(BarHybridReduced), 1, 0.53, 0.70, 0.04)
	// "the net effect of combining hardware power management with hybrid,
	// low-fidelity recognition is a 69-80% reduction relative to baseline"
	if lo, hi := g.SavingsRange(g.BarIndex(BarHybridReduced), 0); hi < 0.65 || lo > 0.80 {
		t.Errorf("hybrid+reduced vs baseline %.0f%%-%.0f%%, paper 69-80%%", lo*100, hi*100)
	}
}

func TestFigure10MapBands(t *testing.T) {
	g := Figure10(testTrials)
	if len(g.Bars) != 7 {
		t.Fatalf("grid has %d bars", len(g.Bars))
	}
	assertRange(t, g, g.BarIndex(BarHWOnly), 0, 0.09, 0.19, 0.02)
	assertRange(t, g, g.BarIndex(BarMinorFilter), 1, 0.06, 0.51, 0.04)
	assertRange(t, g, g.BarIndex(BarSecondaryFilter), 1, 0.23, 0.55, 0.05)
	assertRange(t, g, g.BarIndex(BarCropped), 1, 0.14, 0.49, 0.05)
	assertRange(t, g, g.BarIndex(BarCroppedSecondary), 1, 0.36, 0.66, 0.04)
	// "Relative to the baseline, this is a reduction of 46-70%."
	if lo, hi := g.SavingsRange(g.BarIndex(BarCroppedSecondary), 0); hi < 0.44 || lo > 0.72 {
		t.Errorf("combined vs baseline %.0f%%-%.0f%%, paper 46-70%%", lo*100, hi*100)
	}
	// Cropping is less effective than (secondary) filtering per city.
	ci, si := g.BarIndex(BarCropped), g.BarIndex(BarSecondaryFilter)
	for oi := range g.Objects {
		if g.Savings(oi, ci, 1) > g.Savings(oi, si, 1) {
			t.Errorf("%s: cropping beats secondary filtering, unlike the paper's samples", g.Objects[oi])
		}
	}
}

func TestFigure11ThinkTimeLinearModel(t *testing.T) {
	s := Figure11(testTrials)
	if len(s.Cases) != 3 {
		t.Fatalf("%d cases", len(s.Cases))
	}
	for ci, name := range s.Cases {
		if s.R2[ci] < 0.995 {
			t.Errorf("%s: linear fit R^2 = %.4f; the paper reports a good linear fit", name, s.R2[ci])
		}
		if s.SlopeW[ci] <= 0 {
			t.Errorf("%s: non-positive slope", name)
		}
	}
	// Divergent lines: baseline slope exceeds the managed slopes
	// (hardware power management saves energy during think time).
	if s.SlopeW[0] <= s.SlopeW[1] {
		t.Errorf("baseline slope %.2f not above managed slope %.2f", s.SlopeW[0], s.SlopeW[1])
	}
	// Parallel lines: fidelity reduction gives a constant offset, so the
	// managed and lowest-fidelity slopes agree.
	if r := s.SlopeW[1] / s.SlopeW[2]; r < 0.93 || r > 1.07 {
		t.Errorf("managed (%.2f W) and lowest-fidelity (%.2f W) slopes not parallel", s.SlopeW[1], s.SlopeW[2])
	}
	// And the offset is real: lowest fidelity is cheaper at every think time.
	for ti := range s.ThinkTimes {
		if s.Energy[2][ti] >= s.Energy[1][ti] {
			t.Errorf("lowest fidelity not below hw-only at t=%v", s.ThinkTimes[ti])
		}
	}
}

func TestFigure13WebBands(t *testing.T) {
	g := Figure13(testTrials)
	if len(g.Bars) != 6 {
		t.Fatalf("grid has %d bars", len(g.Bars))
	}
	// Our substrate yields 15-18% for hardware-only web savings vs the
	// paper's 22-26% (see EXPERIMENTS.md); assert the reproduced band.
	assertRange(t, g, g.BarIndex(BarHWOnly), 0, 0.14, 0.20, 0.03)
	// "the energy used at the lowest fidelity is merely 4-14% lower than
	// with hardware-only power management" — modest additional savings.
	lo, hi := g.SavingsRange(g.BarIndex("JPEG-5"), 1)
	if hi > 0.25 {
		t.Errorf("JPEG-5 savings reach %.0f%%; the paper's point is that they are modest", hi*100)
	}
	if hi < 0.04 {
		t.Errorf("JPEG-5 shows no savings at all (max %.1f%%)", hi*100)
	}
	if lo < -0.08 {
		t.Errorf("JPEG-5 costs %.0f%% extra on some image", -lo*100)
	}
}

func TestFigure14WebThinkTime(t *testing.T) {
	s := Figure14(testTrials)
	// Divergence between baseline and managed; near-zero fidelity gap for
	// the 110-byte image.
	if s.SlopeW[0] <= s.SlopeW[1] {
		t.Errorf("baseline slope %.2f not above managed %.2f", s.SlopeW[0], s.SlopeW[1])
	}
	for ci := range s.Cases {
		if s.R2[ci] < 0.995 {
			t.Errorf("%s: R^2 %.4f", s.Cases[ci], s.R2[ci])
		}
	}
}

func TestFigure15ConcurrencyOrdering(t *testing.T) {
	rs := Figure15(testTrials)
	if len(rs) != 3 {
		t.Fatalf("%d cases", len(rs))
	}
	base, hw, low := rs[0].ExtraEnergyFraction(), rs[1].ExtraEnergyFraction(), rs[2].ExtraEnergyFraction()
	// The paper's key messages: concurrency costs extra energy in every
	// case; the extra is largest under hardware-only power management
	// (fewer power-down opportunities) and smallest at lowest fidelity
	// (concurrency magnifies the benefit of lowering fidelity).
	if base <= 0 || hw <= 0 || low <= 0 {
		t.Fatalf("non-positive concurrency overheads: %v %v %v", base, hw, low)
	}
	if !(hw > base) {
		t.Errorf("hw-only extra (%.0f%%) not above baseline extra (%.0f%%)", hw*100, base*100)
	}
	if !(low < base/2) {
		t.Errorf("lowest-fidelity extra (%.0f%%) not well below baseline extra (%.0f%%)", low*100, base*100)
	}
}

func TestFigure16SummaryHeadline(t *testing.T) {
	s := new(Pass).Figure16(1)
	if len(s.Rows) != 10 {
		t.Fatalf("%d rows", len(s.Rows))
	}
	// Headline: fidelity reduction alone averages ~36% savings (0.64
	// normalized); combined with hardware power management ~50% (0.50).
	if s.MeanFidelity < 0.5 || s.MeanFidelity > 0.8 {
		t.Errorf("mean fidelity-only normalized energy %.2f, paper ~0.64", s.MeanFidelity)
	}
	if s.MeanCombined < 0.35 || s.MeanCombined > 0.65 {
		t.Errorf("mean combined normalized energy %.2f, paper ~0.50", s.MeanCombined)
	}
	if s.MeanCombined >= s.MeanFidelity {
		t.Errorf("combined (%.2f) not below fidelity-only (%.2f)", s.MeanCombined, s.MeanFidelity)
	}
	for _, r := range s.Rows {
		if r.Combined[0] > r.HWOnly[1] {
			t.Errorf("%s: combined never beats hw-only", r.Application)
		}
	}
}

func TestFigure18ZonedShape(t *testing.T) {
	rows := Figure18(2)
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		mid := func(x [2]float64) float64 { return (x[0] + x[1]) / 2 }
		// Zoning never increases energy, and helps more at lowest
		// fidelity (smaller windows light fewer zones).
		if mid(r.HWOnly[1]) > mid(r.HWOnly[0])+0.03 || mid(r.HWOnly[2]) > mid(r.HWOnly[0])+0.03 {
			t.Errorf("%s t=%v: zoning increased hw-only energy: %v", r.Application, r.ThinkTime, r.HWOnly)
		}
		if mid(r.Combined[1]) > mid(r.Combined[0])+0.02 {
			t.Errorf("%s t=%v: zoning increased lowest-fidelity energy", r.Application, r.ThinkTime)
		}
		// "lowering fidelity enhances the energy savings due to zoned
		// backlighting" — visible whenever the screen is held long
		// enough to matter (at t=0 a lowest-fidelity map view is so
		// short that display energy is negligible either way).
		if r.ThinkTime == 0 {
			continue
		}
		gainHW := mid(r.HWOnly[0]) - mid(r.HWOnly[2])
		gainLow := mid(r.Combined[0]) - mid(r.Combined[2])
		if gainLow+0.02 < gainHW {
			t.Errorf("%s t=%v: zoning gain at lowest fidelity (%.2f) below full fidelity (%.2f)",
				r.Application, r.ThinkTime, gainLow, gainHW)
		}
	}
	// Video at lowest fidelity: the paper projects ~24% (4-zone) and
	// 28-29% (8-zone) savings relative to the unzoned lowest bar.
	v := rows[0]
	rel4 := 1 - (v.Combined[1][0]+v.Combined[1][1])/(v.Combined[0][0]+v.Combined[0][1])
	rel8 := 1 - (v.Combined[2][0]+v.Combined[2][1])/(v.Combined[0][0]+v.Combined[0][1])
	if rel4 < 0.10 || rel4 > 0.32 {
		t.Errorf("video 4-zone lowest-fidelity saving %.0f%%, paper ~24%%", rel4*100)
	}
	if rel8 < rel4-0.02 {
		t.Errorf("8-zone saving %.0f%% below 4-zone %.0f%%", rel8*100, rel4*100)
	}
}

func TestFigure2ProfileContents(t *testing.T) {
	prof := Figure2(1)
	if prof.TotalEnergy <= 0 {
		t.Fatal("empty profile")
	}
	out := prof.String()
	for _, want := range []string{"xanim", "/usr/X11R6/bin/X", "odyssey", "Kernel", "Energy Usage Detail", "_DecodeFrame"} {
		if !strings.Contains(out, want) {
			t.Fatalf("profile missing %q:\n%s", want, out)
		}
	}
	// The profile covers ~30 s of playback at roughly 11-18 W.
	if prof.TotalEnergy < 250 || prof.TotalEnergy > 700 {
		t.Fatalf("profile energy %.1f J implausible for 30 s playback", prof.TotalEnergy)
	}
}

func TestFigure4Table(t *testing.T) {
	tab := Figure4()
	out := tab.String()
	for _, want := range []string{"Display", "Bright", "WaveLAN", "Standby", "Disk", "Background", "Full-on idle"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Figure 4 table missing %q:\n%s", want, out)
		}
	}
	if len(tab.Rows) < 9 {
		t.Fatalf("only %d rows", len(tab.Rows))
	}
}

func TestGoalDirectedMeetsPaperGoals(t *testing.T) {
	// One trial per goal endpoint keeps the test fast; the full five-trial
	// sweep runs in the benchmark harness.
	for _, goal := range []time.Duration{20 * time.Minute, 26 * time.Minute} {
		r := RunGoal(GoalOptions{Seed: 42, InitialEnergy: Figure20InitialEnergy, Goal: goal})
		if !r.Met {
			t.Fatalf("goal %v not met (ended %v, residual %.0f J)", goal, r.EndTime, r.Residual)
		}
		if frac := r.Residual / Figure20InitialEnergy; frac > 0.05 {
			t.Errorf("goal %v left %.1f%% residual; adaptation too conservative", goal, frac*100)
		}
	}
}

func TestGoalRuntimeBandMatchesPaperShape(t *testing.T) {
	hi, lo := FeasibleBand(7, Figure20InitialEnergy)
	// Paper: 19:27 at highest fidelity, 27:06 at lowest (ratio 1.39).
	if hi < 18*time.Minute || hi > 21*time.Minute {
		t.Errorf("highest-fidelity runtime %v, want ~19.5 min", hi)
	}
	ratio := lo.Seconds() / hi.Seconds()
	if ratio < 1.25 || ratio > 1.55 {
		t.Errorf("fidelity runtime ratio %.2f, paper ~1.39", ratio)
	}
}

func TestGoalTraceShape(t *testing.T) {
	r := RunGoal(GoalOptions{
		Seed: 9, InitialEnergy: Figure20InitialEnergy,
		Goal: 22 * time.Minute, RecordTrace: true,
	})
	if !r.Met {
		t.Fatal("22-minute goal not met")
	}
	if len(r.Trace) < 1000 {
		t.Fatalf("only %d trace points for a 22-minute run at 2 Hz", len(r.Trace))
	}
	// Supply decreases monotonically; demand tracks supply (the paper's
	// Figure 19 top graph): by mid-run the two curves should be close.
	half := r.Trace[len(r.Trace)/2]
	if half.Supply <= 0 {
		t.Fatal("supply exhausted mid-run")
	}
	if gap := (half.Demand - half.Supply) / half.Supply; gap > 0.10 || gap < -0.30 {
		t.Errorf("mid-run demand/supply gap %.0f%%; demand should track supply", gap*100)
	}
	// The trace records all four applications.
	if len(half.Levels) != 4 {
		t.Fatalf("trace has %d app levels", len(half.Levels))
	}
}

// TestGoalTraceLevelsMatchApps: under RecordTrace, each trace point's Levels
// hold every registered application's fidelity at that evaluation - the
// levels the run's own adaptation log implies, starting from highest - and
// the replayed log ends at the levels the applications finish with.
func TestGoalTraceLevelsMatchApps(t *testing.T) {
	levels := map[string]int{}
	final := map[string]int{}
	observeRig = func(rig *env.Rig) {
		for _, reg := range rig.V.Apps() {
			levels[reg.App.Name()] = reg.NumLevels() - 1
			final[reg.App.Name()] = reg.App.Level()
		}
	}
	defer func() { observeRig = nil }()
	r := RunGoal(GoalOptions{
		Seed: 9, InitialEnergy: Figure20InitialEnergy,
		Goal: 22 * time.Minute, RecordTrace: true, RecordEvents: true,
	})
	if len(levels) != 4 || len(r.Trace) < 1000 {
		t.Fatalf("%d applications, %d trace points", len(levels), len(r.Trace))
	}
	if r.Events.Dropped() > 0 {
		t.Fatalf("event log dropped %d events; the replay needs all of them", r.Events.Dropped())
	}
	adapts := r.Events.Filter(trace.CatAdapt, "")
	if len(adapts) == 0 {
		t.Fatal("no adaptations; the levels never move")
	}
	// An evaluation records its trace point before directing its upcall,
	// so a point sees only the adaptations of earlier evaluations.
	j := 0
	for i, tp := range r.Trace {
		for ; j < len(adapts) && adapts[j].Time < tp.Time; j++ {
			levels[adapts[j].Subject] = int(adapts[j].Value)
		}
		if !maps.Equal(tp.Levels, levels) {
			t.Fatalf("trace point %d at %v: levels %v, adaptation log implies %v", i, tp.Time, tp.Levels, levels)
		}
	}
	for ; j < len(adapts); j++ {
		levels[adapts[j].Subject] = int(adapts[j].Value)
	}
	if !maps.Equal(levels, final) {
		t.Fatalf("replayed adaptation log ends at %v, applications finish at %v", levels, final)
	}
}

func TestGoalExtensionMidRun(t *testing.T) {
	// A short goal extended mid-run must still be met at the new target.
	r := RunGoal(GoalOptions{
		Seed: 11, InitialEnergy: Figure20InitialEnergy,
		Goal:     20 * time.Minute,
		ExtendAt: 8 * time.Minute, ExtendBy: 4 * time.Minute,
	})
	if !r.Met {
		t.Fatalf("extended goal not met: end %v residual %.0f", r.EndTime, r.Residual)
	}
	if r.EndTime < 24*time.Minute-time.Second {
		t.Fatalf("run ended at %v, before the extended goal", r.EndTime)
	}
}

func TestBurstyGoalTrial(t *testing.T) {
	r := RunGoal(GoalOptions{
		Seed: 13, InitialEnergy: Figure22InitialEnergy / 4,
		Goal:   48 * time.Minute, // quarter-scale version of Figure 22
		Bursty: true,
	})
	if !r.Met {
		t.Fatalf("bursty goal not met: end %v residual %.0f", r.EndTime, r.Residual)
	}
}

func TestTablesRender(t *testing.T) {
	g := Figure6(1)
	if !strings.Contains(g.Table().String(), "Video 1") {
		t.Fatal("figure table missing object row")
	}
	if !strings.Contains(g.BreakdownTable(0).String(), "Idle") {
		t.Fatal("breakdown table missing Idle principal")
	}
	if !strings.Contains(Figure20(1).Table().String(), "20:00") {
		t.Fatal("goal table missing goal row")
	}
}

func TestAblationsShape(t *testing.T) {
	rows := Ablations(1).Rows
	if len(rows) != 5 {
		t.Fatalf("%d ablation rows", len(rows))
	}
	byName := map[string]ArmRow{}
	for _, r := range rows {
		byName[r.Labels[0]] = r
	}
	adapts := func(name string) float64 { return byName[name].Values["Total adaptations"].Mean }
	if byName["paper configuration"].MetPct != 100 {
		t.Errorf("paper configuration missed the goal")
	}
	// Removing hysteresis or the upgrade cap must increase adaptation
	// churn relative to the paper configuration.
	if adapts("no hysteresis") <= adapts("paper configuration") {
		t.Errorf("no-hysteresis adaptations %.0f not above paper %.0f",
			adapts("no hysteresis"), adapts("paper configuration"))
	}
	if adapts("uncapped upgrades") <= adapts("paper configuration") {
		t.Errorf("uncapped-upgrade adaptations %.0f not above paper %.0f",
			adapts("uncapped upgrades"), adapts("paper configuration"))
	}
}

func TestMeasurementPaths(t *testing.T) {
	rows := MeasurementPaths(1).Rows
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	// The quantized SmartBattery path must still meet the goal: the
	// paper's point is that SmartBattery-class measurement suffices.
	if rows[0].MetPct != 100 || rows[1].MetPct != 100 {
		t.Fatalf("measurement paths failed the goal: meter=%v smart=%v", rows[0].MetPct, rows[1].MetPct)
	}
	// The non-ideal pack drains faster under load, so adaptation must
	// work harder (lower residual and/or still meet via degradation).
	if rows[2].MetPct < 100 {
		t.Logf("non-ideal pack missed the goal in some trials (acceptable: harder problem)")
	}
}

func TestTableCSV(t *testing.T) {
	tab := &Table{
		Columns: []string{"Object", "Energy (J)"},
		Rows:    [][]string{{"Video 1", "2285.4 ± 1.5"}, {"a,b", `say "hi"`}},
	}
	csv := tab.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv has %d lines", len(lines))
	}
	if lines[0] != "Object,Energy (J)" {
		t.Fatalf("header %q", lines[0])
	}
	// RFC 4180: embedded quotes are doubled inside a quoted field, never
	// backslash-escaped (the old %q rendering wrote "say \"hi\"", which
	// spreadsheet importers read as three broken fields).
	if lines[2] != `"a,b","say ""hi"""` {
		t.Fatalf("quoting not RFC 4180: %q", lines[2])
	}
	if strings.Contains(csv, `\"`) {
		t.Fatalf("csv contains backslash escapes: %q", csv)
	}
}

// TestTableCSVNewlines: fields containing newlines or carriage returns must
// be quoted so multi-line cells survive a round trip through encoding/csv.
func TestTableCSVNewlines(t *testing.T) {
	tab := &Table{
		Columns: []string{"k", "v"},
		Rows:    [][]string{{"multi", "line1\nline2"}, {"cr", "a\rb"}, {"plain", "x"}},
	}
	csv := tab.CSV()
	if !strings.Contains(csv, "\"line1\nline2\"") {
		t.Fatalf("newline cell not quoted: %q", csv)
	}
	if !strings.Contains(csv, "\"a\rb\"") {
		t.Fatalf("carriage-return cell not quoted: %q", csv)
	}
	if !strings.Contains(csv, "plain,x\n") {
		t.Fatalf("plain cells must stay unquoted: %q", csv)
	}
}

// TestExperimentDeterminism: the same figure run twice yields identical
// numbers — the property that makes every result in EXPERIMENTS.md
// reproducible bit for bit.
func TestExperimentDeterminism(t *testing.T) {
	a := Figure6(1)
	b := Figure6(1)
	for oi := range a.Objects {
		for bi := range a.Bars {
			if a.Cells[oi][bi].Energy.Mean != b.Cells[oi][bi].Energy.Mean {
				t.Fatalf("%s/%s differs across runs: %v vs %v",
					a.Objects[oi], a.Bars[bi],
					a.Cells[oi][bi].Energy.Mean, b.Cells[oi][bi].Energy.Mean)
			}
		}
	}
	g1 := RunGoal(GoalOptions{Seed: 3, InitialEnergy: Figure20InitialEnergy, Goal: 21 * time.Minute})
	g2 := RunGoal(GoalOptions{Seed: 3, InitialEnergy: Figure20InitialEnergy, Goal: 21 * time.Minute})
	if g1.Residual != g2.Residual || g1.EndTime != g2.EndTime {
		t.Fatalf("goal runs differ: %+v vs %+v", g1, g2)
	}
}

func TestDVSComposesWithFidelity(t *testing.T) {
	rows := DVSPaths(2)
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	hwOnly, dvs, lowest, both := rows[0], rows[1], rows[2], rows[3]
	if dvs.Energy.Mean >= hwOnly.Energy.Mean {
		t.Errorf("DVS (%.0f J) did not improve on hw-only (%.0f J)", dvs.Energy.Mean, hwOnly.Energy.Mean)
	}
	if lowest.Energy.Mean >= hwOnly.Energy.Mean {
		t.Errorf("lowest fidelity did not improve on hw-only")
	}
	// The paper's complementarity claim: the combination beats either
	// technique alone.
	if both.Energy.Mean >= dvs.Energy.Mean || both.Energy.Mean >= lowest.Energy.Mean {
		t.Errorf("combined (%.0f J) not below DVS (%.0f J) and fidelity (%.0f J)",
			both.Energy.Mean, dvs.Energy.Mean, lowest.Energy.Mean)
	}
}

func TestMeanFidelityReflectsGoalDifficulty(t *testing.T) {
	easy := RunGoal(GoalOptions{Seed: 21, InitialEnergy: Figure20InitialEnergy, Goal: 20 * time.Minute})
	hard := RunGoal(GoalOptions{Seed: 21, InitialEnergy: Figure20InitialEnergy, Goal: 26 * time.Minute})
	if len(easy.MeanFidelity) != 4 || len(hard.MeanFidelity) != 4 {
		t.Fatalf("mean fidelity maps: %v / %v", easy.MeanFidelity, hard.MeanFidelity)
	}
	// The harder goal must cost average fidelity overall.
	sum := func(m map[string]float64) float64 {
		s := 0.0
		for _, v := range m {
			s += v
		}
		return s / float64(len(m))
	}
	if sum(hard.MeanFidelity) >= sum(easy.MeanFidelity) {
		t.Fatalf("26-min mean fidelity %.2f not below 20-min %.2f", sum(hard.MeanFidelity), sum(easy.MeanFidelity))
	}
	// Priorities protect the web application: its average fidelity should
	// top the speech application's at the hard goal.
	if hard.MeanFidelity["web"] <= hard.MeanFidelity["speech"] {
		t.Fatalf("web mean fidelity %.2f not above speech %.2f at the hard goal",
			hard.MeanFidelity["web"], hard.MeanFidelity["speech"])
	}
	for app, v := range hard.MeanFidelity {
		if v < 0 || v > 1 {
			t.Fatalf("%s mean fidelity %v out of [0,1]", app, v)
		}
	}
}

func TestDecentralizedComparison(t *testing.T) {
	rows := DecentralizedComparison(1).Rows
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	byKey := map[string]ArmRow{}
	for _, r := range rows {
		byKey[r.Labels[0]+"/"+r.Labels[1]] = r
	}
	cLoose := byKey["centralized (paper)/20m"]
	dLoose := byKey["decentralized thresholds/20m"]
	cTight := byKey["centralized (paper)/26m"]
	dTight := byKey["decentralized thresholds/26m"]
	// The paper's design argument, quantified:
	// 1. centralized control meets both goals;
	if cLoose.MetPct != 100 || cTight.MetPct != 100 {
		t.Errorf("centralized policy missed a goal: %v / %v", cLoose.MetPct, cTight.MetPct)
	}
	// 2. fixed thresholds cannot know the goal, so they miss the tight one;
	if dTight.MetPct == 100 {
		t.Errorf("decentralized thresholds met the 26-minute goal; they should not know how")
	}
	// 3. and on the loose goal they waste energy (large residual) while
	//    delivering lower average fidelity.
	if dLoose.MetPct == 100 {
		dRes, cRes := dLoose.Values["Residual (J)"].Mean, cLoose.Values["Residual (J)"].Mean
		if dRes < 3*cRes {
			t.Errorf("decentralized residual %.0f J not well above centralized %.0f J", dRes, cRes)
		}
		dFid, cFid := dLoose.Values["Mean fidelity"].Mean, cLoose.Values["Mean fidelity"].Mean
		if dFid >= cFid {
			t.Errorf("decentralized mean fidelity %.2f not below centralized %.2f on the loose goal", dFid, cFid)
		}
	}
}

// TestDecentralizedComparisonLeavesNoGoroutines: the threshold arm tears
// its rig down like every goal run, so no parked process goroutine outlives
// the figure. A coroutine's goroutine exits just after Shutdown hands back,
// hence the poll.
func TestDecentralizedComparisonLeavesNoGoroutines(t *testing.T) {
	useParallelism(t, 1)
	before := runtime.NumGoroutine()
	DecentralizedComparison(1)
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines live after DecentralizedComparison(1), %d before",
				runtime.NumGoroutine(), before)
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// TestPinnedRunsHoldFidelity: a pinned run directs no adaptation and
// holds every application at the pinned fidelity from start to end.
func TestPinnedRunsHoldFidelity(t *testing.T) {
	for _, c := range []struct {
		control Control
		want    float64
	}{{PinHighest, 1}, {PinLowest, 0}} {
		r := RunGoal(GoalOptions{Seed: 7, InitialEnergy: Figure20InitialEnergy,
			Goal: 8 * time.Hour, Control: c.control})
		if len(r.MeanFidelity) != 4 {
			t.Fatalf("control %d: mean fidelity for %d apps, want 4", c.control, len(r.MeanFidelity))
		}
		for app, f := range r.MeanFidelity {
			if f != c.want {
				t.Errorf("control %d: %s mean fidelity %v, want exactly %v", c.control, app, f, c.want)
			}
			if n := r.Adaptations[app]; n != 0 {
				t.Errorf("control %d: %s adapted %d times", c.control, app, n)
			}
		}
	}
}

func TestValidationScorecard(t *testing.T) {
	if testing.Short() {
		t.Skip("full scorecard is expensive")
	}
	rs := Validate(new(Pass), 1)
	if len(rs) != 33 {
		t.Fatalf("%d checks, want 33", len(rs))
	}
	for _, r := range rs {
		if !r.Pass {
			t.Errorf("%s: paper %.2f-%.2f, measured %.2f-%.2f", r.ID, r.PaperLo, r.PaperHi, r.MeasuredLo, r.MeasuredHi)
		}
	}
	out := ValidationTable(rs).String()
	if !strings.Contains(out, "fig20-band") {
		t.Fatal("scorecard table missing a check row")
	}
}

// checkLadderEnds fails t unless an application's ladder operates full at
// its top level and lowest at its bottom one.
func checkLadderEnds[C comparable](t *testing.T, app string, f *env.Fidelity[C], full, lowest C) {
	t.Helper()
	f.SetLevel(len(f.Levels()) - 1)
	if got := f.Operating(); got != full {
		t.Errorf("%s: ladder top operates %+v, figures' full fidelity is %+v", app, got, full)
	}
	f.SetLevel(0)
	if got := f.Operating(); got != lowest {
		t.Errorf("%s: ladder bottom operates %+v, figures' lowest fidelity is %+v", app, got, lowest)
	}
}

// TestFigureEndRungsMatchLadders ties the configurations the figures name
// as each application's full and lowest fidelity (the arms of Figures 6,
// 8, 10 and 13, the think-time sweeps, Figure 16's fidelity-only column and
// Figure 18's zoned arms) to the application's own ladder: each must be
// what the application operates at its top and bottom level. A ladder
// change that leaves a figure arm behind fails here instead of measuring a
// configuration no adaptive run reaches.
func TestFigureEndRungsMatchLadders(t *testing.T) {
	rig := env.NewRig(1, 1)
	checkLadderEnds(t, "video", &video.NewPlayer(rig).Fidelity, videoFull, videoLowest)
	checkLadderEnds(t, "speech", &speech.NewRecognizer(rig).Fidelity, speechFull, speechLowest)
	checkLadderEnds(t, "map", &mapview.NewViewer(rig).Fidelity, mapFull, mapLowest)
	checkLadderEnds(t, "web", &web.NewBrowser(rig).Fidelity, webFull, webLowest)
}
