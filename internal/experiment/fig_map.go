package experiment

import (
	"fmt"
	"slices"
	"time"

	"odyssey/internal/app/env"
	"odyssey/internal/app/mapview"
	"odyssey/internal/sim"
	"odyssey/internal/stats"
)

// Figure 10 bar labels, in the paper's order.
const (
	BarMinorFilter      = "Minor Road Filter"
	BarSecondaryFilter  = "Secondary Road Filter"
	BarCropped          = "Cropped"
	BarCroppedMinor     = "Cropped Minor Road Filter"
	BarCroppedSecondary = "Cropped Secondary Road Filter"
)

// mapFull and mapLowest are the map viewer's highest and lowest fidelities.
var (
	mapFull   = mapview.Config{Filter: mapview.FullDetail}
	mapLowest = mapview.Config{Filter: mapview.SecondaryRoadFilter, Cropped: true}
)

// mapArms are the seven configurations of Figure 10.
var mapArms = []Arm[mapview.Config]{
	{Bar{Label: BarBaseline}, mapFull},
	{Bar{Label: BarHWOnly, Setup: managed}, mapFull},
	{Bar{Label: BarMinorFilter, Setup: managed}, mapview.Config{Filter: mapview.MinorRoadFilter}},
	{Bar{Label: BarSecondaryFilter, Setup: managed}, mapview.Config{Filter: mapview.SecondaryRoadFilter}},
	{Bar{Label: BarCropped, Setup: managed}, mapview.Config{Filter: mapview.FullDetail, Cropped: true}},
	{Bar{Label: BarCroppedMinor, Setup: managed}, mapview.Config{Filter: mapview.MinorRoadFilter, Cropped: true}},
	{Bar{Label: BarCroppedSecondary, Setup: managed}, mapLowest},
}

// Figure10 measures the energy to fetch and display the four city maps at
// each fidelity with the paper's default five-second think time (Figure 10:
// 4 maps x 7 bars, 10 trials each in the paper).
func Figure10(trials int) *Grid {
	return mapGrid("fig10", "Figure 10: energy impact of fidelity for map viewing", mapArms, trials, 5*time.Second, 1000)
}

// mapGrid views the four standard maps, each under every arm's config with
// the given think time.
func mapGrid(fig, title string, arms []Arm[mapview.Config], trials int, think time.Duration, seed int64) *Grid {
	return RunGrid(fig, title, mapview.StandardMaps(), func(m mapview.Map) string { return m.City },
		arms, trials, seed, func(rig *env.Rig, p *sim.Proc, m mapview.Map, cfg mapview.Config) {
			mapview.View(rig, p, m, cfg, think)
		})
}

// ThinkTimeSeries is the data behind Figures 11 and 14: measured energy at
// several think times for three cases, with least-squares linear fits.
type ThinkTimeSeries struct {
	Object     string
	ThinkTimes []time.Duration
	// Energy[case][i] is mean energy at ThinkTimes[i]; cases are
	// baseline, hardware-only, lowest fidelity.
	Cases  []string
	Energy [][]float64
	// Slope and intercept of the fitted line per case (the paper's
	// E_t = E_0 + t*P_B model).
	SlopeW     []float64
	InterceptJ []float64
	R2         []float64
}

// thinkTimes are the user think times of the sensitivity sweeps (Figures
// 11 and 14) and of the map and web rows of Figures 16 and 18.
var thinkTimes = []time.Duration{0, 5 * time.Second, 10 * time.Second, 20 * time.Second}

// Figure11 sweeps user think time for the San Jose map across baseline,
// hardware-only, and lowest-fidelity configurations and fits the paper's
// linear model.
func Figure11(trials int) *ThinkTimeSeries {
	sj := mapview.StandardMaps()[0]
	return thinkTimeSweep("fig11", sj.City, 1100, trials, hwAndLowestArms(mapFull, mapLowest),
		func(rig *env.Rig, p *sim.Proc, cfg mapview.Config, think time.Duration) {
			mapview.View(rig, p, sj, cfg, think)
		})
}

// thinkTimeSweep runs the think-time sensitivity for each arm, playing its
// config at every think time, and fits lines. fig labels the sweep's
// progress lines; every (arm, think) cell has a distinct seed.
func thinkTimeSweep[C any](fig, object string, seed int64, trials int, arms []Arm[C],
	play func(rig *env.Rig, p *sim.Proc, cfg C, think time.Duration)) *ThinkTimeSeries {

	s := &ThinkTimeSeries{Object: object, ThinkTimes: slices.Clone(thinkTimes)}
	runs := make([]cellRun, 0, len(arms)*len(thinkTimes))
	for ci, a := range arms {
		s.Cases = append(s.Cases, a.Label)
		for ti, think := range thinkTimes {
			runs = append(runs, cellRun{object, seed + int64(ci*97+ti*13), a.Bar,
				func(rig *env.Rig, p *sim.Proc) { play(rig, p, a.Config, think) }})
		}
	}
	cells := runCells(fig, trials, runs)
	xs := make([]float64, len(thinkTimes))
	for ti, think := range thinkTimes {
		xs[ti] = think.Seconds()
	}
	for ci := range s.Cases {
		row := make([]float64, len(thinkTimes))
		for ti := range thinkTimes {
			row[ti] = cells[ci*len(thinkTimes)+ti].Energy.Mean
		}
		s.Energy = append(s.Energy, row)
		fit := stats.FitLine(xs, row)
		s.SlopeW = append(s.SlopeW, fit.Slope)
		s.InterceptJ = append(s.InterceptJ, fit.Intercept)
		s.R2 = append(s.R2, fit.R2)
	}
	return s
}

// Table renders the series with the fitted-line parameters.
func (s *ThinkTimeSeries) Table() *Table {
	t := &Table{Title: "Energy (J) vs think time — " + s.Object}
	t.Columns = []string{"Case"}
	for _, th := range s.ThinkTimes {
		t.Columns = append(t.Columns, fmt.Sprintf("t=%ds", int(th.Seconds())))
	}
	t.Columns = append(t.Columns, "slope (W)", "intercept (J)", "R^2")
	for ci, name := range s.Cases {
		row := []string{name}
		for ti := range s.ThinkTimes {
			row = append(row, fmt.Sprintf("%.1f", s.Energy[ci][ti]))
		}
		row = append(row,
			fmt.Sprintf("%.2f", s.SlopeW[ci]),
			fmt.Sprintf("%.1f", s.InterceptJ[ci]),
			fmt.Sprintf("%.4f", s.R2[ci]))
		t.Rows = append(t.Rows, row)
	}
	return t
}
