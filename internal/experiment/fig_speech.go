package experiment

import (
	"odyssey/internal/app/env"
	"odyssey/internal/app/speech"
	"odyssey/internal/hw"
	"odyssey/internal/sim"
)

// Figure 8 bar labels, in the paper's order.
const (
	BarReducedModel  = "Reduced Model"
	BarRemote        = "Remote"
	BarRemoteReduced = "Remote Reduced Model"
	BarHybrid        = "Hybrid"
	BarHybridReduced = "Hybrid Reduced Model"
)

// speechSetup enables hardware power management for the speech workload,
// which includes turning the display off — user interaction is through
// speech alone, so the paper's managed runs power the panel down.
func speechSetup(rig *env.Rig) {
	rig.EnablePowerMgmt()
	rig.M.Display.SetAll(hw.BacklightOff)
}

// speechFull and speechLowest are the recognizer's highest and lowest
// fidelities.
var (
	speechFull   = speech.Config{Mode: speech.Local, Vocab: speech.FullVocab}
	speechLowest = speech.Config{Mode: speech.Hybrid, Vocab: speech.ReducedVocab}
)

// speechArms are the seven configurations of Figure 8.
var speechArms = []Arm[speech.Config]{
	{Bar{Label: BarBaseline}, speechFull},
	{Bar{Label: BarHWOnly, Setup: speechSetup}, speechFull},
	{Bar{Label: BarReducedModel, Setup: speechSetup}, speech.Config{Mode: speech.Local, Vocab: speech.ReducedVocab}},
	{Bar{Label: BarRemote, Setup: speechSetup}, speech.Config{Mode: speech.Remote, Vocab: speech.FullVocab}},
	{Bar{Label: BarRemoteReduced, Setup: speechSetup}, speech.Config{Mode: speech.Remote, Vocab: speech.ReducedVocab}},
	{Bar{Label: BarHybrid, Setup: speechSetup}, speech.Config{Mode: speech.Hybrid, Vocab: speech.FullVocab}},
	{Bar{Label: BarHybridReduced, Setup: speechSetup}, speechLowest},
}

// Figure8 measures client energy to recognize the four utterances under
// local, remote and hybrid strategies at high and low fidelity (the paper's
// Figure 8: 4 utterances x 7 bars, 5 trials each).
func Figure8(trials int) *Grid {
	return speechGrid("fig8", "Figure 8: energy impact of fidelity for speech recognition", speechArms, trials, 800)
}

// speechGrid recognizes the four standard utterances, each under every
// arm's config.
func speechGrid(fig, title string, arms []Arm[speech.Config], trials int, seed int64) *Grid {
	return RunGrid(fig, title, speech.StandardUtterances(), func(u speech.Utterance) string { return u.Name },
		arms, trials, seed, func(rig *env.Rig, p *sim.Proc, u speech.Utterance, cfg speech.Config) {
			speech.Recognize(rig, p, u, cfg)
		})
}
