package experiment

import (
	"fmt"
	"time"
)

// SummaryRow is one row of Figure 16: an application at one think time,
// with min-max normalized energy for each strategy.
type SummaryRow struct {
	Application string
	ThinkTime   time.Duration // negative means not applicable
	// Ranges are (lo, hi) of energy normalized to the baseline.
	HWOnly   [2]float64
	Fidelity [2]float64 // fidelity reduction alone (no hardware mgmt)
	Combined [2]float64 // both techniques
}

// Summary16 is the Figure 16 table data.
type Summary16 struct {
	Rows []SummaryRow
	// MeanCombined is the mean normalized energy of the Combined column
	// (the paper reports 0.64, i.e. a 36% mean saving, at the default
	// five-second think time).
	MeanCombined float64
	// MeanFidelity is the mean normalized energy of fidelity reduction
	// alone.
	MeanFidelity float64
}

// Figure16 derives the normalized summary from the per-application figures,
// computed once per pass. Its video and speech rows read Figures 6 and 8
// from the pass; it runs the map and web grids at each think time itself,
// with the given trials per cell. "Fidelity reduction" alone is measured
// with hardware power management disabled at the lowest fidelity, per the
// paper's definition.
func (p *Pass) Figure16(trials int) *Summary16 {
	return figure(p, "fig16", trials, func(trials int) *Summary16 { return summary16(p, trials) })
}

// summary16 computes Figure 16 on pass p.
func summary16(p *Pass, trials int) *Summary16 {
	s := &Summary16{}
	var combinedAtDefault []float64
	var fidelityAtDefault []float64

	// fidelityOnly is a fidelityOnlyArms grid: its bar 1 is the lowest
	// fidelity without power management.
	record := func(app string, think time.Duration, g *Grid, lowestBar int, fidelityOnly *Grid) {
		row := SummaryRow{Application: app, ThinkTime: think}
		lo, hi := g.NormalizedRange(1, 0) // hw-only vs baseline
		row.HWOnly = [2]float64{lo, hi}
		lo, hi = g.NormalizedRange(lowestBar, 0) // combined vs baseline
		row.Combined = [2]float64{lo, hi}
		lo, hi = fidelityOnly.NormalizedRange(1, 0)
		row.Fidelity = [2]float64{lo, hi}
		s.Rows = append(s.Rows, row)
		if think < 0 || think == 5*time.Second {
			combinedAtDefault = append(combinedAtDefault, (row.Combined[0]+row.Combined[1])/2)
			fidelityAtDefault = append(fidelityAtDefault, (row.Fidelity[0]+row.Fidelity[1])/2)
		}
	}

	// Video: no think-time dimension.
	g6 := p.Figure6(trials)
	g6f := videoGrid("fidelity-video", "video fidelity-only",
		fidelityOnlyArms(videoFull, videoLowest), trials, 1610)
	record("Video", -1, g6, g6.BarIndex(BarCombined), g6f)

	// Speech: no think-time dimension; lowest is hybrid+reduced.
	g8 := p.Figure8(trials)
	g8f := speechGrid("fidelity-speech", "speech fidelity-only",
		fidelityOnlyArms(speechFull, speechLowest), trials, 1620)
	record("Speech", -1, g8, g8.BarIndex(BarHybridReduced), g8f)

	// The map and web grids run the arms of Figures 10 and 13 at their own
	// seeds and report progress under this figure's id.
	for _, think := range thinkTimes {
		gm := mapGrid("fig16", "map", mapArms, trials, think, 1600+int64(think/time.Second))
		gmf := mapGrid("fidelity-map", "map fidelity-only",
			fidelityOnlyArms(mapFull, mapLowest), trials, think, 1630+int64(think/time.Second))
		record("Map", think, gm, gm.BarIndex(BarCroppedSecondary), gmf)
	}
	for _, think := range thinkTimes {
		gw := webGrid("fig16", "web", webArms, trials, think, 1700+int64(think/time.Second))
		gwf := webGrid("fidelity-web", "web fidelity-only",
			fidelityOnlyArms(webFull, webLowest), trials, think, 1640+int64(think/time.Second))
		record("Web", think, gw, gw.BarIndex("JPEG-5"), gwf)
	}

	s.MeanCombined = mean(combinedAtDefault)
	s.MeanFidelity = mean(fidelityAtDefault)
	return s
}

// fidelityOnlyArms is the two-arm layout of the "Fidelity Reduction" column
// of Figure 16, which isolates the benefit of lowering fidelity: baseline
// and lowest fidelity, both with hardware power management disabled.
func fidelityOnlyArms[C any](full, lowest C) []Arm[C] {
	return []Arm[C]{{Bar{Label: BarBaseline}, full}, {Bar{Label: "Lowest Fidelity (no mgmt)"}, lowest}}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// Table renders Figure 16.
func (s *Summary16) Table() *Table {
	t := &Table{
		Title:   "Figure 16: summary of energy impact of fidelity (normalized to baseline)",
		Columns: []string{"Application", "Think (s)", "Baseline", "HW Power Mgmt.", "Fidelity Reduction", "Combined"},
	}
	rng := func(r [2]float64) string { return fmt.Sprintf("%.2f-%.2f", r[0], r[1]) }
	for _, r := range s.Rows {
		think := "N/A"
		if r.ThinkTime >= 0 {
			think = fmt.Sprintf("%d", int(r.ThinkTime.Seconds()))
		}
		t.Rows = append(t.Rows, []string{
			r.Application, think, "1.00", rng(r.HWOnly), rng(r.Fidelity), rng(r.Combined),
		})
	}
	t.Rows = append(t.Rows, []string{"Mean (combined, 5s)", "", "", "", fmt.Sprintf("%.2f", s.MeanFidelity), fmt.Sprintf("%.2f", s.MeanCombined)})
	return t
}
