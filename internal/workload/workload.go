// Package workload composes the four adaptive applications into the
// multi-application scenarios of the paper's evaluation: the composite
// application (Section 3.7's speech+web+map loop), the background video
// feed, the goal-directed drivers of Section 5 (composite started every
// 25 seconds over a continuously playing video), and the stochastic bursty
// workload of the longer-duration experiments.
package workload

import (
	"fmt"
	"strings"
	"time"

	"odyssey/internal/app/env"
	"odyssey/internal/app/mapview"
	"odyssey/internal/app/speech"
	"odyssey/internal/app/video"
	"odyssey/internal/app/web"
	"odyssey/internal/core"
	"odyssey/internal/sim"
	"odyssey/internal/supervise"
)

// Priorities of the goal-directed experiments: "The applications are
// prioritized with Speech having the lowest priority, and Map, Video, and
// Web having successively higher priority" is the Figure 19 ordering the
// trace exhibits; the text fixes Speech lowest and Web highest.
const (
	PrioritySpeech = 1
	PriorityVideo  = 2
	PriorityMap    = 3
	PriorityWeb    = 4
)

// Apps bundles one instance of each adaptive application on a rig.
type Apps struct {
	Rig    *env.Rig
	Video  *video.Player
	Speech *speech.Recognizer
	Map    *mapview.Viewer
	Web    *web.Browser

	// enabled restricts the scenario to a subset of the applications
	// (nil = all four). Disabled applications are constructed but never
	// registered, driven, or touched by SetAll*.
	enabled map[string]bool

	utterances []speech.Utterance
	maps       []mapview.Map
	images     []web.Image
}

// Names lists the four application names in registration (priority) order.
var Names = []string{"speech", "video", "map", "web"}

// NewApps instantiates the four applications on rig.
func NewApps(rig *env.Rig) *Apps {
	return &Apps{
		Rig:        rig,
		Video:      video.NewPlayer(rig),
		Speech:     speech.NewRecognizer(rig),
		Map:        mapview.NewViewer(rig),
		Web:        web.NewBrowser(rig),
		utterances: speech.StandardUtterances(),
		maps:       mapview.StandardMaps(),
		images:     web.StandardImages(),
	}
}

// member is one application of the bundle with what the workload wires for
// it: its misbehavior surface, its priority, and its supervision profile.
type member struct {
	app      core.Adaptive
	health   *supervise.AppHealth
	priority int
	profile  supervise.Profile
}

// members lists the four applications in registration (priority) order.
// Only the video player's profile arms the supervisor's lie audit: its xanim
// principal is exclusively its own and its workload is continuous. The
// other applications share principals (X, odyssey) or run intermittently,
// so model-based power auditing would be noise; they are watched for
// crashes, hangs, and thrash only.
func (a *Apps) members() []member {
	return []member{
		{a.Speech, &a.Speech.Health, PrioritySpeech, supervise.Profile{}},
		{a.Video, &a.Video.Health, PriorityVideo, supervise.Profile{
			Principal:     video.PrincipalXanim,
			ExpectedPower: video.ExpectedPower,
		}},
		{a.Map, &a.Map.Health, PriorityMap, supervise.Profile{}},
		{a.Web, &a.Web.Health, PriorityWeb, supervise.Profile{}},
	}
}

// member returns the named application's entry, and false for an unknown
// name.
func (a *Apps) member(name string) (member, bool) {
	for _, m := range a.members() {
		if m.app.Name() == name {
			return m, true
		}
	}
	return member{}, false
}

// Enable restricts the workload to the named applications: Register,
// SetAllHighest/SetAllLowest, and the workload drivers all skip the rest.
// Unknown names are reported as an error. The chaos plane uses this to
// compose random application mixes (and to shrink a failing mix to a
// minimal one); with Enable never called the behaviour is the legacy
// all-four workload, byte for byte.
func (a *Apps) Enable(names ...string) error {
	known := map[string]bool{}
	for _, n := range Names {
		known[n] = true
	}
	a.enabled = make(map[string]bool, len(names))
	for _, n := range names {
		if !known[n] {
			return fmt.Errorf("workload: unknown application %q (known: %s)", n, strings.Join(Names, " "))
		}
		a.enabled[n] = true
	}
	return nil
}

// Enabled reports whether the named application participates in the
// scenario (every application does until Enable restricts the set).
func (a *Apps) Enabled(name string) bool {
	return a.enabled == nil || a.enabled[name]
}

// ByName returns the named adaptive application, or nil for an unknown
// name. Fault-plan binders use it to aim misbehavior injectors.
func (a *Apps) ByName(name string) core.Adaptive {
	m, _ := a.member(name)
	return m.app
}

// Register places the enabled applications under viceroy control with the
// paper's priorities and returns the registrations.
func (a *Apps) Register() []*core.Registration {
	var regs []*core.Registration
	for _, m := range a.members() {
		if a.Enabled(m.app.Name()) {
			regs = append(regs, a.Rig.V.RegisterApp(m.app, m.priority))
		}
	}
	return regs
}

// Health returns the named application's misbehavior surface, or nil for
// an unknown name. Fault-plan builders use it to aim injectors.
func (a *Apps) Health(name string) *supervise.AppHealth {
	m, _ := a.member(name)
	return m.health
}

// Supervise places every registration under the supervisor's watch, wiring
// each application's health surface and supervision profile (see members).
func (a *Apps) Supervise(sup *supervise.Supervisor, regs []*core.Registration) {
	for _, r := range regs {
		if m, ok := a.member(r.App.Name()); ok {
			sup.Watch(r, m.health, m.profile)
		}
	}
}

// SetAllLowest drops every enabled application to its lowest fidelity.
func (a *Apps) SetAllLowest() {
	for _, m := range a.members() {
		if a.Enabled(m.app.Name()) {
			m.app.SetLevel(0)
		}
	}
}

// SetAllHighest raises every enabled application to full fidelity.
func (a *Apps) SetAllHighest() {
	for _, m := range a.members() {
		if a.Enabled(m.app.Name()) {
			m.app.SetLevel(len(m.app.Levels()) - 1)
		}
	}
}

// CompositeIteration performs one loop of the composite application: local
// recognition of two speech utterances, access of a Web page, and access of
// a map, with five seconds of think time after each visual access (the
// viewers' think time). The iteration index rotates through the standard
// data objects.
func (a *Apps) CompositeIteration(p *sim.Proc, i int) {
	if a.Enabled(a.Speech.Name()) {
		n := len(a.utterances)
		a.Speech.Recognize(p, a.utterances[(2*i)%n])
		a.Speech.Recognize(p, a.utterances[(2*i+1)%n])
	}
	if a.Enabled(a.Web.Name()) {
		a.Web.Fetch(p, a.images[i%len(a.images)])
	}
	if a.Enabled(a.Map.Name()) {
		a.Map.View(p, a.maps[i%len(a.maps)])
	}
}

// RunComposite executes the composite application for the given number of
// iterations (six in Figure 15's experiments).
func (a *Apps) RunComposite(p *sim.Proc, iterations int) {
	for i := 0; i < iterations; i++ {
		a.CompositeIteration(p, i)
	}
}

// VideoLoop plays the newsfeed clip repeatedly until stop returns true
// (checked at clip boundaries) — the background video of Sections 3.7
// and 5.
func (a *Apps) VideoLoop(p *sim.Proc, clip video.Clip, stop func() bool) {
	for !stop() {
		a.Video.Play(p, clip)
	}
}

// StartGoalWorkload launches the Section 5 drivers: the background video
// playing continuously and a composite iteration starting every period
// (25 s in the paper, to obtain a continuous workload). Both stop once
// until() reports true.
func (a *Apps) StartGoalWorkload(period time.Duration, until func() bool) {
	k := a.Rig.K
	if a.Enabled(a.Video.Name()) {
		k.Spawn("video-loop", func(p *sim.Proc) {
			clip := video.Clip{Name: "newsfeed", Length: 30 * time.Second}
			a.VideoLoop(p, clip, until)
		})
	}
	if a.Enabled(a.Speech.Name()) || a.Enabled(a.Web.Name()) || a.Enabled(a.Map.Name()) {
		k.Spawn("composite-loop", func(p *sim.Proc) {
			for i := 0; !until(); i++ {
				iterStart := p.Now()
				a.CompositeIteration(p, i)
				next := iterStart + period
				if next > p.Now() {
					p.SleepUntil(next)
				}
			}
		})
	}
}

// The paper's stochastic model for Figure 22: each application flips
// between active and idle with probability burstySwitch at every one-minute
// slot boundary.
const (
	burstySwitch = 0.10
	burstySlot   = time.Minute
)

// StartBurstyWorkload launches four independently bursty applications: in
// each slot an active application executes a fixed workload (the video
// application shows a one-minute video, the map application fetches five
// maps, and so on), and at each slot boundary it stays in its current state
// with probability 1-burstySwitch. Applications stop once until() reports
// true.
func (a *Apps) StartBurstyWorkload(until func() bool) {
	k := a.Rig.K
	rng := k.Rand()

	slotted := func(name string, app string, work func(p *sim.Proc, slot int)) {
		if !a.Enabled(app) {
			return
		}
		k.Spawn(name, func(p *sim.Proc) {
			active := rng.Float64() < 0.5
			for slot := 0; !until(); slot++ {
				slotStart := p.Now()
				if active {
					work(p, slot)
				}
				if next := slotStart + burstySlot; next > p.Now() {
					p.SleepUntil(next)
				}
				if rng.Float64() < burstySwitch {
					active = !active
				}
			}
		})
	}

	slotted("bursty-video", a.Video.Name(), func(p *sim.Proc, slot int) {
		a.Video.Play(p, video.Clip{Name: "bursty-minute", Length: burstySlot - 5*time.Second})
	})
	slotted("bursty-speech", a.Speech.Name(), func(p *sim.Proc, slot int) {
		for i := 0; i < 4; i++ {
			a.Speech.Recognize(p, a.utterances[(slot+i)%len(a.utterances)])
			p.Sleep(3 * time.Second)
		}
	})
	slotted("bursty-map", a.Map.Name(), func(p *sim.Proc, slot int) {
		for i := 0; i < 5; i++ {
			a.Map.View(p, a.maps[(slot+i)%len(a.maps)])
		}
	})
	slotted("bursty-web", a.Web.Name(), func(p *sim.Proc, slot int) {
		for i := 0; i < 5; i++ {
			a.Web.Fetch(p, a.images[(slot+i)%len(a.images)])
		}
	})
}
