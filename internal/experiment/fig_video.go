package experiment

import (
	"odyssey/internal/app/env"
	"odyssey/internal/app/video"
	"odyssey/internal/sim"
)

// Figure 6 bar labels, in the paper's order.
const (
	BarBaseline      = "Baseline"
	BarHWOnly        = "Hardware-Only Power Mgmt."
	BarPremiereB     = "Premiere-B"
	BarPremiereC     = "Premiere-C"
	BarReducedWindow = "Reduced Window"
	BarCombined      = "Combined"
)

// videoFull and videoLowest are the player's highest and lowest
// fidelities.
var (
	videoFull   = video.TrackBase
	videoLowest = video.TrackCombined
)

// videoArms are the six configurations of Figure 6.
var videoArms = []Arm[video.Track]{
	{Bar{Label: BarBaseline}, videoFull},
	{Bar{Label: BarHWOnly, Setup: managed}, videoFull},
	{Bar{Label: BarPremiereB, Setup: managed}, video.TrackPremiereB},
	{Bar{Label: BarPremiereC, Setup: managed}, video.TrackPremiereC},
	{Bar{Label: BarReducedWindow, Setup: managed}, video.TrackReducedWindow},
	{Bar{Label: BarCombined, Setup: managed}, videoLowest},
}

// Figure6 measures the energy to display the four videos at each fidelity
// (the paper's Figure 6: 4 clips x 6 bars, 5 trials each).
func Figure6(trials int) *Grid {
	return videoGrid("fig6", "Figure 6: energy impact of fidelity for video playing", videoArms, trials, 600)
}

// videoGrid plays the four standard clips, each at every arm's track.
func videoGrid(fig, title string, arms []Arm[video.Track], trials int, seed int64) *Grid {
	return RunGrid(fig, title, video.StandardClips(), func(c video.Clip) string { return c.Name },
		arms, trials, seed, func(rig *env.Rig, p *sim.Proc, clip video.Clip, track video.Track) {
			video.PlayTrack(rig, p, clip, func() video.Track { return track })
		})
}
