package experiment

import (
	"fmt"

	"odyssey/internal/app/env"
	"odyssey/internal/app/video"
	"odyssey/internal/hw"
	"odyssey/internal/sim"
	"odyssey/internal/stats"
)

// DVSRow is one arm of the voltage-scaling extension experiment.
type DVSRow struct {
	Name    string
	Energy  stats.Summary
	Speed   float64 // mean CPU speed observed (sampled at end of trial)
	Savings float64 // vs the first arm
}

// DVSPaths compares dynamic voltage scaling — the CPU-centric technique of
// the paper's related work — against and combined with fidelity adaptation,
// on the video workload. The paper argues hardware-centric techniques are
// "complementary to reducing energy usage through application-driven
// fidelity reduction"; this experiment quantifies that composition: DVS
// recovers the CPU slack that fidelity reduction creates, so the combined
// savings exceed either alone.
func DVSPaths(trials int) []DVSRow {
	clip := video.StandardClips()[0]
	arms := []struct {
		name  string
		dvs   bool
		track video.Track
	}{
		{"hardware-only power mgmt", false, videoFull},
		{"+ DVS", true, videoFull},
		{"+ lowest fidelity", false, videoLowest},
		{"+ DVS + lowest fidelity", true, videoLowest},
	}
	type run struct{ energy, speed float64 }
	rs := sweep(len(arms), trials, func(a, t int) run {
		arm := arms[a]
		var gov *hw.DVSGovernor
		setup := func(rig *env.Rig) {
			rig.EnablePowerMgmt()
			if arm.dvs {
				gov = hw.NewDVSGovernor(rig.K, rig.M.CPU)
				gov.Start()
			}
		}
		var speed float64
		r := runTrial(int64(2800+a*11+t), 1, setup, func(rig *env.Rig, p *sim.Proc) {
			video.PlayTrack(rig, p, clip, func() video.Track { return arm.track })
			speed = rig.M.CPU.Speed()
			if gov != nil {
				gov.Stop() // the governor would otherwise tick forever
			}
		})
		return run{r.energy, speed}
	})
	rows := make([]DVSRow, 0, len(arms))
	for ai, arm := range arms {
		energies := make([]float64, 0, trials)
		speedSum := 0.0
		for _, r := range rs[ai] {
			energies = append(energies, r.energy)
			speedSum += r.speed
		}
		rows = append(rows, DVSRow{
			Name:   arm.name,
			Energy: stats.Summarize(energies),
			Speed:  speedSum / float64(trials),
		})
	}
	for i := range rows {
		rows[i].Savings = 1 - stats.Ratio(rows[i].Energy.Mean, rows[0].Energy.Mean)
	}
	return rows
}

// DVSTable renders the extension experiment.
func DVSTable(rows []DVSRow) *Table {
	t := &Table{
		Title:   "Extension: dynamic voltage scaling composed with fidelity adaptation (Video 1)",
		Columns: []string{"Configuration", "Energy (J)", "Savings", "Final CPU speed"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Name,
			r.Energy.String(),
			fmt.Sprintf("%.1f%%", r.Savings*100),
			fmt.Sprintf("%.2f", r.Speed),
		})
	}
	return t
}
