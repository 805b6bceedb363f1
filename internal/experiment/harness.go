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

// RunGrid measures every (object, bar) cell with the given number of
// trials. fig labels the cells' progress lines; trialFor returns the
// workload for an object under a bar configuration. baseSeed separates
// figures so their random streams differ.
func RunGrid(fig, title string, objects []string, bars []Bar, trials int, baseSeed int64,
	trialFor func(object int, bar int) Trial) *Grid {

	g := &Grid{Title: title, Objects: objects, Cells: make([][]Cell, len(objects))}
	for _, b := range bars {
		g.Bars = append(g.Bars, b.Label)
	}
	// trialFor may close over per-figure state, so resolve the workloads
	// serially; the Trial closures themselves run concurrently, each on a
	// rig private to its goroutine.
	runs := make([]cellRun, 0, len(objects)*len(bars))
	for oi, obj := range objects {
		for bi, bar := range bars {
			runs = append(runs, cellRun{obj, baseSeed + int64(oi*1009+bi*101), bar, trialFor(oi, bi)})
		}
	}
	cells := runCells(fig, trials, runs)
	for oi := range objects {
		lo, hi := oi*len(bars), (oi+1)*len(bars)
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
// runs are fanned out across the worker pool (SetParallelism) and merged in
// fixed (cell, trial) index order, so the cells, and every table rendered
// from them, are byte-identical however many workers ran them. fig labels
// the progress lines.
func runCells(fig string, trials int, runs []cellRun) []Cell {
	results := make([][]trialResult, len(runs))
	for ci := range results {
		results[ci] = make([]trialResult, trials)
	}
	runTasks(len(runs)*trials, func(i int) {
		r, t := runs[i/trials], i%trials
		results[i/trials][t] = runTrial(r.seed, t, r.bar, r.trial)
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
