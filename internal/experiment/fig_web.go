package experiment

import (
	"time"

	"odyssey/internal/app/env"
	"odyssey/internal/app/web"
	"odyssey/internal/sim"
)

// webFull and webLowest are the browser's highest and lowest fidelities.
var (
	webFull   = web.FullFidelity
	webLowest = web.JPEG5
)

// webArms are the six configurations of Figure 13: baseline and
// hardware-only at full fidelity, then decreasing JPEG quality.
var webArms = []Arm[web.Quality]{
	{Bar{Label: BarBaseline}, webFull},
	{Bar{Label: BarHWOnly, Setup: managed}, webFull},
	{Bar{Label: web.JPEG75.String(), Setup: managed}, web.JPEG75},
	{Bar{Label: web.JPEG50.String(), Setup: managed}, web.JPEG50},
	{Bar{Label: web.JPEG25.String(), Setup: managed}, web.JPEG25},
	{Bar{Label: webLowest.String(), Setup: managed}, webLowest},
}

// Figure13 measures the energy to fetch and display the four GIF images at
// decreasing JPEG quality with a five-second think time (Figure 13: 4
// images x 6 bars, 10 trials each in the paper).
func Figure13(trials int) *Grid {
	return webGrid("fig13", "Figure 13: energy impact of fidelity for Web browsing", webArms, trials, 5*time.Second, 1300)
}

// webGrid fetches the four standard images, each at every arm's quality
// with the given think time.
func webGrid(fig, title string, arms []Arm[web.Quality], trials int, think time.Duration, seed int64) *Grid {
	return RunGrid(fig, title, web.StandardImages(), func(img web.Image) string { return img.Name },
		arms, trials, seed, func(rig *env.Rig, p *sim.Proc, img web.Image, q web.Quality) {
			web.Fetch(rig, p, img, q, think)
		})
}

// Figure14 sweeps user think time for Image 1 across baseline,
// hardware-only, and lowest-fidelity configurations and fits the paper's
// linear model. The paper uses Image 1; since its 110-byte payload shows no
// fidelity spread we follow its spirit with the same three cases.
func Figure14(trials int) *ThinkTimeSeries {
	img := web.StandardImages()[0]
	return thinkTimeSweep("fig14", img.Name, 1400, trials, hwAndLowestArms(webFull, webLowest),
		func(rig *env.Rig, p *sim.Proc, q web.Quality, think time.Duration) {
			web.Fetch(rig, p, img, q, think)
		})
}
