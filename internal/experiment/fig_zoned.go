package experiment

import (
	"fmt"
	"time"

	"odyssey/internal/app/env"
)

// ZonedRow is one row of Figure 18: an application (and think time, for the
// map viewer) with normalized energy under no-zone / 4-zone / 8-zone
// displays at full and lowest fidelity. All entries are normalized to the
// unmanaged, unzoned, full-fidelity baseline, as in the paper.
type ZonedRow struct {
	Application string
	ThinkTime   time.Duration // negative means not applicable
	// HWOnly[z] and Combined[z] are (lo, hi) normalized energy ranges
	// across data objects for z in {no zones, 4 zones, 8 zones};
	// Combined is at lowest fidelity.
	HWOnly   [3][2]float64
	Combined [3][2]float64
}

// zoneCounts are the display variants of Figure 18.
var zoneCounts = []int{1, 4, 8}

// Figure18 projects the energy impact of zoned backlighting for the video
// and map applications (the two whose windows leave screen area free; the
// display is off for speech and Netscape is nearly full-screen).
func Figure18(trials int) []ZonedRow {
	g := videoGrid("fig18-video", "Figure 18 (video)",
		zonedArms(videoFull, videoLowest), trials, 1800)
	rows := []ZonedRow{rowFromGrid("Video", -1, g)}
	for _, think := range thinkTimes {
		g := mapGrid("fig18-map", "Figure 18 (map)",
			zonedArms(mapFull, mapLowest), trials, think, 1850+int64(think/time.Second))
		rows = append(rows, rowFromGrid("Map", think, g))
	}
	return rows
}

// zonedArms builds the seven-arm layout shared by both applications:
// baseline at full fidelity, then hw-only at full fidelity and the lowest
// fidelity at each zone count.
func zonedArms[C any](full, lowest C) []Arm[C] {
	zoned := func(label string, z int) Bar {
		return Bar{Label: fmt.Sprintf("%s %dz", label, z), Zones: z, Setup: func(rig *env.Rig) {
			rig.EnablePowerMgmt()
			rig.ZonedPolicy = z > 1
		}}
	}
	arms := []Arm[C]{{Bar{Label: BarBaseline}, full}}
	for _, z := range zoneCounts {
		arms = append(arms, Arm[C]{zoned("HW-only", z), full})
	}
	for _, z := range zoneCounts {
		arms = append(arms, Arm[C]{zoned("Lowest", z), lowest})
	}
	return arms
}

// rowFromGrid extracts the normalized ranges from a 7-bar zoned grid.
func rowFromGrid(app string, think time.Duration, g *Grid) ZonedRow {
	row := ZonedRow{Application: app, ThinkTime: think}
	for zi := range zoneCounts {
		lo, hi := g.NormalizedRange(1+zi, 0)
		row.HWOnly[zi] = [2]float64{lo, hi}
		lo, hi = g.NormalizedRange(4+zi, 0)
		row.Combined[zi] = [2]float64{lo, hi}
	}
	return row
}

// ZonedTable renders Figure 18.
func ZonedTable(rows []ZonedRow) *Table {
	t := &Table{
		Title: "Figure 18: projected energy impact of zoned backlighting (normalized to baseline)",
		Columns: []string{"App", "Think (s)",
			"HW-only", "HW 4-zone", "HW 8-zone",
			"Lowest", "Lowest 4-zone", "Lowest 8-zone"},
	}
	rng := func(r [2]float64) string { return fmt.Sprintf("%.2f-%.2f", r[0], r[1]) }
	for _, r := range rows {
		think := "N/A"
		if r.ThinkTime >= 0 {
			think = fmt.Sprintf("%d", int(r.ThinkTime.Seconds()))
		}
		t.Rows = append(t.Rows, []string{
			r.Application, think,
			rng(r.HWOnly[0]), rng(r.HWOnly[1]), rng(r.HWOnly[2]),
			rng(r.Combined[0]), rng(r.Combined[1]), rng(r.Combined[2]),
		})
	}
	return t
}
