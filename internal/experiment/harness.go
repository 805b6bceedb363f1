// Package experiment contains the evaluation harness: one runner per table
// and figure of the paper, each regenerating the corresponding result from
// the simulated testbed (workload generation, parameter sweep, baselines,
// and the same rows/series the paper reports).
package experiment

import (
	"fmt"
	"sort"
	"strings"

	"odyssey/internal/app/env"
	"odyssey/internal/sim"
	"odyssey/internal/stats"
)

// Trial runs one workload execution on a fresh rig and returns when the
// workload completes.
type Trial func(rig *env.Rig, p *sim.Proc)

// Setup prepares a rig before the workload starts (power-management policy,
// display policy, zoned-backlight policy).
type Setup func(rig *env.Rig)

// Bar is one experimental configuration — a bar in the paper's charts.
type Bar struct {
	Label string
	Setup Setup
	// Zones overrides the display zone count (0 means conventional 1).
	Zones int
}

// managed is the hardware-power-management setup shared by every managed
// bar.
func managed(rig *env.Rig) { rig.EnablePowerMgmt() }

// Arm is one bar of a fixed-fidelity figure: its label and display and
// power-management setup, plus the application configuration its trials
// play (a video track, a speech mode and vocabulary, a map filter, a web
// image quality).
type Arm[C any] struct {
	Bar
	Config C
}

// hwAndLowestArms is the three-case layout of Figures 11, 14 and 15:
// baseline and hardware-only power management at full fidelity, then the
// lowest fidelity with power management.
func hwAndLowestArms[C any](full, lowest C) []Arm[C] {
	return []Arm[C]{
		{Bar{Label: BarBaseline}, full},
		{Bar{Label: BarHWOnly, Setup: managed}, full},
		{Bar{Label: "Lowest Fidelity", Setup: managed}, lowest},
	}
}

// Cell is the measurement for one (data object, bar) pair.
type Cell struct {
	Energy    stats.Summary
	Duration  stats.Summary
	Breakdown map[string]float64 // mean joules per software principal
}

// Grid is a full figure's data: objects x bars.
type Grid struct {
	Title   string
	Objects []string
	Bars    []string
	Cells   [][]Cell // [object][bar]
}

// RunGrid measures every (object, arm) cell with the given number of
// trials: each trial plays one data object at one arm's config on a private
// rig. fig labels the cells' progress lines and name gives each object's
// row name; baseSeed separates figures so their random streams differ.
func RunGrid[O, C any](fig, title string, objects []O, name func(O) string, arms []Arm[C],
	trials int, baseSeed int64, play func(rig *env.Rig, p *sim.Proc, obj O, cfg C)) *Grid {

	g := &Grid{Title: title, Cells: make([][]Cell, len(objects))}
	for _, a := range arms {
		g.Bars = append(g.Bars, a.Label)
	}
	runs := make([]cellRun, 0, len(objects)*len(arms))
	for oi, obj := range objects {
		g.Objects = append(g.Objects, name(obj))
		for ai, a := range arms {
			runs = append(runs, cellRun{g.Objects[oi], baseSeed + int64(oi*1009+ai*101), a.Bar,
				func(rig *env.Rig, p *sim.Proc) { play(rig, p, obj, a.Config) }})
		}
	}
	cells := runCells(fig, trials, runs)
	for oi := range objects {
		lo, hi := oi*len(arms), (oi+1)*len(arms)
		g.Cells[oi] = cells[lo:hi:hi]
	}
	return g
}

// cellRun is one configuration for runCells to measure; object only labels
// its progress line.
type cellRun struct {
	object string
	seed   int64
	bar    Bar
	trial  Trial
}

// runCells measures every configuration with the given number of trials —
// the one path behind grid cells and think-time sweeps. All (cell, trial)
// runs are tasks on the task budget (SetParallelism), merged in
// fixed (cell, trial) index order, so the cells, and every table rendered
// from them, are byte-identical however many workers ran them. Trial t of a
// configuration seeded s runs on rig seed s*7919+t+1. fig labels the
// progress lines.
func runCells(fig string, trials int, runs []cellRun) []Cell {
	results := sweep(len(runs), trials, func(ci, t int) trialResult {
		r := runs[ci]
		return runTrial(r.seed*7919+int64(t)+1, r.bar.Zones, r.bar.Setup, r.trial)
	})
	cells := make([]Cell, len(runs))
	for ci, r := range runs {
		cells[ci] = aggregateCell(trials, results[ci])
		progressf("cell %s %s / %s: %d trials in %v", fig, r.object, r.bar.Label, trials, cellWall(results[ci]))
	}
	return cells
}

// Savings returns the fractional energy reduction of bar relative to ref
// for one object: 1 - E(bar)/E(ref).
func (g *Grid) Savings(object, bar, ref int) float64 {
	return 1 - stats.Ratio(g.Cells[object][bar].Energy.Mean, g.Cells[object][ref].Energy.Mean)
}

// SavingsRange returns the min and max savings of bar vs ref across all
// objects — the "X-Y%" ranges quoted throughout the paper. A grid with no
// objects has no savings to range over and yields (0, 0), not the inverted
// accumulator sentinel.
func (g *Grid) SavingsRange(bar, ref int) (lo, hi float64) {
	if len(g.Objects) == 0 {
		return 0, 0
	}
	lo, hi = 1, -1
	for oi := range g.Objects {
		s := g.Savings(oi, bar, ref)
		if s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	return lo, hi
}

// NormalizedRange returns min and max of E(bar)/E(ref) across objects
// (Figure 16's entries).
func (g *Grid) NormalizedRange(bar, ref int) (lo, hi float64) {
	slo, shi := g.SavingsRange(bar, ref)
	return 1 - shi, 1 - slo
}

// BarIndex returns the index of a bar label, or -1.
func (g *Grid) BarIndex(label string) int {
	for i, b := range g.Bars {
		if b == label {
			return i
		}
	}
	return -1
}

// Table renders the grid as the paper presents it: one row per data object,
// mean energy (J) ± 90% CI per bar.
func (g *Grid) Table() *Table {
	t := &Table{Title: g.Title, Columns: append([]string{"Object"}, g.Bars...)}
	for oi, obj := range g.Objects {
		row := []string{obj}
		for bi := range g.Bars {
			row = append(row, g.Cells[oi][bi].Energy.String())
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// BreakdownTable renders the mean per-principal energy for every bar of one
// object — the shaded segments of the paper's bars.
func (g *Grid) BreakdownTable(object int) *Table {
	// Collect principals across bars, largest first by total.
	totals := map[string]float64{}
	for bi := range g.Bars {
		for k, v := range g.Cells[object][bi].Breakdown {
			totals[k] += v
		}
	}
	names := make([]string, 0, len(totals))
	for n := range totals {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		ti, tj := totals[names[i]], totals[names[j]]
		if ti > tj {
			return true
		}
		if ti < tj {
			return false
		}
		return names[i] < names[j]
	})
	t := &Table{
		Title:   fmt.Sprintf("%s — %s energy by software component (J)", g.Title, g.Objects[object]),
		Columns: append([]string{"Component"}, g.Bars...),
	}
	for _, n := range names {
		row := []string{n}
		for bi := range g.Bars {
			row = append(row, fmt.Sprintf("%.1f", g.Cells[object][bi].Breakdown[n]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Table is a rendered result table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// CSV renders the table as comma-separated values with a header row.
// Quoting follows RFC 4180: fields containing commas, quotes, or line
// breaks are wrapped in double quotes, with embedded quotes doubled (not
// the Go-escaped form %q would produce, which CSV readers reject).
func (t *Table) CSV() string {
	var b strings.Builder
	quote := func(s string) string {
		if strings.ContainsAny(s, ",\"\n\r") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	cells := make([]string, 0, len(t.Columns))
	for _, c := range t.Columns {
		cells = append(cells, quote(c))
	}
	b.WriteString(strings.Join(cells, ","))
	b.WriteByte('\n')
	for _, r := range t.Rows {
		cells = cells[:0]
		for _, c := range r {
			cells = append(cells, quote(c))
		}
		b.WriteString(strings.Join(cells, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// String renders the table as aligned text.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}
