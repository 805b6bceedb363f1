package experiment

import (
	"fmt"
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

// mapConfigs returns the seven configurations of Figure 10.
func mapConfigs() ([]Bar, []mapview.Config) {
	mgmt := func(rig *env.Rig) { rig.EnablePowerMgmt() }
	bars := []Bar{
		{Label: BarBaseline},
		{Label: BarHWOnly, Setup: mgmt},
		{Label: BarMinorFilter, Setup: mgmt},
		{Label: BarSecondaryFilter, Setup: mgmt},
		{Label: BarCropped, Setup: mgmt},
		{Label: BarCroppedMinor, Setup: mgmt},
		{Label: BarCroppedSecondary, Setup: mgmt},
	}
	cfgs := []mapview.Config{
		{Filter: mapview.FullDetail},
		{Filter: mapview.FullDetail},
		{Filter: mapview.MinorRoadFilter},
		{Filter: mapview.SecondaryRoadFilter},
		{Filter: mapview.FullDetail, Cropped: true},
		{Filter: mapview.MinorRoadFilter, Cropped: true},
		{Filter: mapview.SecondaryRoadFilter, Cropped: true},
	}
	return bars, cfgs
}

// Figure10 measures the energy to fetch and display the four city maps at
// each fidelity with the paper's default five-second think time (Figure 10:
// 4 maps x 7 bars, 10 trials each in the paper).
func Figure10(trials int) *Grid {
	return figureMap(trials, 5*time.Second, 1000)
}

// figureMap parameterizes the map experiment by think time (reused by the
// Figure 11 sensitivity sweep).
func figureMap(trials int, think time.Duration, seed int64) *Grid {
	maps := mapview.StandardMaps()
	objects := make([]string, len(maps))
	for i, m := range maps {
		objects[i] = m.City
	}
	bars, cfgs := mapConfigs()
	return RunGrid("fig10", "Figure 10: energy impact of fidelity for map viewing",
		objects, bars, trials, seed,
		func(oi, bi int) Trial {
			m, cfg := maps[oi], cfgs[bi]
			return func(rig *env.Rig, p *sim.Proc) {
				mapview.View(rig, p, m, cfg, think)
			}
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

// Figure11 sweeps user think time for the San Jose map across baseline,
// hardware-only, and lowest-fidelity configurations and fits the paper's
// linear model.
func Figure11(trials int) *ThinkTimeSeries {
	maps := mapview.StandardMaps()
	sj := maps[0]
	mgmt := func(rig *env.Rig) { rig.EnablePowerMgmt() }
	cases := []struct {
		name  string
		setup Setup
		cfg   mapview.Config
	}{
		{"Baseline", nil, mapview.Config{Filter: mapview.FullDetail}},
		{"Hardware-Only Power Mgmt.", mgmt, mapview.Config{Filter: mapview.FullDetail}},
		{"Lowest Fidelity", mgmt, mapview.Config{Filter: mapview.SecondaryRoadFilter, Cropped: true}},
	}
	return thinkTimeSweep("fig11", sj.City, 1100, trials,
		func(ci int) (string, Setup) { return cases[ci].name, cases[ci].setup },
		len(cases),
		func(ci int, think time.Duration) Trial {
			cfg := cases[ci].cfg
			return func(rig *env.Rig, p *sim.Proc) {
				mapview.View(rig, p, sj, cfg, think)
			}
		})
}

// thinkTimeSweep runs the 0/5/10/20 s think-time sensitivity for a set of
// cases and fits lines. fig labels the sweep's progress lines; every
// (case, think) cell has a distinct seed.
func thinkTimeSweep(fig, object string, seed int64, trials int,
	caseInfo func(ci int) (string, Setup), nCases int,
	trialFor func(ci int, think time.Duration) Trial) *ThinkTimeSeries {

	thinks := []time.Duration{0, 5 * time.Second, 10 * time.Second, 20 * time.Second}
	s := &ThinkTimeSeries{Object: object, ThinkTimes: thinks}
	runs := make([]cellRun, 0, nCases*len(thinks))
	for ci := 0; ci < nCases; ci++ {
		name, setup := caseInfo(ci)
		s.Cases = append(s.Cases, name)
		for ti, think := range thinks {
			runs = append(runs, cellRun{object, seed + int64(ci*97+ti*13), Bar{Label: name, Setup: setup}, trialFor(ci, think)})
		}
	}
	cells := runCells(fig, trials, runs)
	xs := make([]float64, len(thinks))
	for ti, think := range thinks {
		xs[ti] = think.Seconds()
	}
	for ci := range s.Cases {
		row := make([]float64, len(thinks))
		for ti := range thinks {
			row[ti] = cells[ci*len(thinks)+ti].Energy.Mean
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
