// Package audio implements a fifth adaptive application beyond the paper's
// four, in the direction its future-work section points ("we would like to
// broaden the range of mobile applications studied"): a streaming audio
// player. Audio complements the paper's video player: it is continuous
// media with no display at all (the screen can be off throughout), so its
// energy story is pure network + decode, and fidelity is the encoded
// bitrate.
package audio

import (
	"time"

	"odyssey/internal/app/env"
	"odyssey/internal/netsim"
	"odyssey/internal/sim"
)

// Software principals appearing in profiles.
const (
	PrincipalPlayer  = "mpg-player"
	PrincipalOdyssey = "odyssey"
)

// Workload coefficients (same modelling style as the video player).
const (
	// decodeCPUPerSecAtFull is decode load at the highest bitrate, in
	// cpu-seconds per playback second.
	decodeCPUPerSecAtFull = 0.10
	// odysseyCPUPerSec is Odyssey's per-stream bookkeeping load.
	odysseyCPUPerSec = 0.01
	// chunk is the streaming granularity.
	chunk = time.Second
	// prefetchDepth bounds how far the fetcher runs ahead.
	prefetchDepth = 4
)

// Encoding is one bitrate the server offers.
type Encoding struct {
	Name        string
	BytesPerSec float64
	// DecodeFactor scales decode CPU relative to the highest bitrate.
	DecodeFactor float64
}

// Encodings returns the bitrate ladder, lowest fidelity first.
func Encodings() []Encoding {
	return []Encoding{
		{Name: "32kbps", BytesPerSec: 4_000, DecodeFactor: 0.35},
		{Name: "64kbps", BytesPerSec: 8_000, DecodeFactor: 0.55},
		{Name: "96kbps", BytesPerSec: 12_000, DecodeFactor: 0.80},
		{Name: "128kbps", BytesPerSec: 16_000, DecodeFactor: 1.00},
	}
}

// Stream is one audio data object.
type Stream struct {
	Name   string
	Length time.Duration
}

// Player is the adaptive audio application. It implements core.Adaptive;
// fidelity changes take effect at the next chunk boundary.
type Player struct {
	rig   *env.Rig
	level int
}

// NewPlayer returns a player at the highest bitrate.
func NewPlayer(rig *env.Rig) *Player {
	return &Player{rig: rig, level: len(Encodings()) - 1}
}

// Name implements core.Adaptive.
func (pl *Player) Name() string { return "audio" }

// Levels implements core.Adaptive.
func (pl *Player) Levels() []string {
	encs := Encodings()
	names := make([]string, len(encs))
	for i, e := range encs {
		names[i] = e.Name
	}
	return names
}

// Level implements core.Adaptive.
func (pl *Player) Level() int { return pl.level }

// SetLevel implements core.Adaptive.
func (pl *Player) SetLevel(l int) {
	if l < 0 {
		l = 0
	}
	if n := len(Encodings()); l >= n {
		l = n - 1
	}
	pl.level = l
}

// Encoding returns the encoding for the current fidelity level.
func (pl *Player) Encoding() Encoding { return Encodings()[pl.level] }

// Play streams s at the player's (possibly changing) fidelity, blocking p
// until playback completes. Listening is hands-free, so the display may be
// off throughout (the caller sets display policy, as with speech).
func (pl *Player) Play(p *sim.Proc, s Stream) {
	PlayStream(pl.rig, p, s, func() Encoding { return pl.Encoding() })
}

// PlayStream streams and decodes s, querying encOf at each chunk boundary.
func PlayStream(rig *env.Rig, p *sim.Proc, s Stream, encOf func() Encoding) {
	k := rig.K
	type piece struct {
		dur time.Duration
		enc Encoding
	}
	nChunks := int((s.Length + chunk - 1) / chunk)
	q := sim.NewQueue[piece](k)
	space := sim.NewWaitList(k)

	fetch := sim.NewGroup(k)
	fetch.Go("audio-fetch", func(fp *sim.Proc) {
		for i := 0; i < nChunks; i++ {
			for q.Len() >= prefetchDepth {
				space.Wait(fp)
			}
			d := chunk
			if rem := s.Length - time.Duration(i)*chunk; rem < d {
				d = rem
			}
			enc := encOf()
			// No deadline: the chunk waits out outages, so the call cannot fail.
			_ = rig.Net.BulkTransfer(fp, PrincipalPlayer, enc.BytesPerSec*d.Seconds(), netsim.CallOptions{})
			q.Put(piece{dur: d, enc: enc})
		}
	})

	start := k.Now()
	elapsed := time.Duration(0)
	for i := 0; i < nChunks; i++ {
		pc := q.Get(p)
		space.WakeOne()
		rig.M.CPU.RunAsync(PrincipalOdyssey, odysseyCPUPerSec*pc.dur.Seconds(), nil)
		rig.M.CPU.Run(p, PrincipalPlayer, decodeCPUPerSecAtFull*pc.enc.DecodeFactor*pc.dur.Seconds())
		elapsed += pc.dur
		if i == 0 {
			start = k.Now() - (elapsed - pc.dur)
		}
		p.SleepUntil(start + elapsed)
	}
	fetch.Wait(p)
}
