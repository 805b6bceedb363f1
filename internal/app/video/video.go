// Package video implements the paper's adaptive video player: an Xanim
// analog that streams QuickTime/Cinepak clips from a server through Odyssey
// and displays them on the client. Fidelity has two dimensions — the level
// of lossy compression used to encode the clip, and the size of the display
// window — realized as pre-encoded tracks on the server, exactly as Adobe
// Premiere produced them for the paper.
//
// Workload model (see DESIGN.md): network bytes scale with the track's
// encoded bitrate; Xanim's decode CPU scales with bitrate; the X server's
// CPU scales with window area and is unaffected by compression (frames are
// decoded before being handed to X). Playback is pipelined: a fetch process
// streams chunks ahead of a decode/display process paced by the playback
// clock.
package video

import (
	"fmt"
	"time"

	"odyssey/internal/app/env"
	"odyssey/internal/hw"
	"odyssey/internal/netsim"
	"odyssey/internal/odfs"
	"odyssey/internal/offload"
	"odyssey/internal/sim"
)

// Software principals appearing in profiles.
const (
	PrincipalXanim   = "xanim"
	PrincipalX       = "X"
	PrincipalOdyssey = "odyssey"
)

// Workload coefficients (assumptions calibrated against Figure 6; see
// DESIGN.md).
const (
	// BaseBytesPerSec is the full-fidelity encoded rate (~1.15 Mb/s),
	// which nearly saturates the 2 Mb/s WaveLAN as the paper describes.
	BaseBytesPerSec = 144_000.0
	// decodeCPUPerSec is Xanim's decode load at full fidelity, in
	// cpu-seconds per playback second.
	decodeCPUPerSec = 0.20
	// xCPUPerSec is the X server's render load for the full-size window.
	xCPUPerSec = 0.28
	// odysseyCPUPerSec is Odyssey's per-stream bookkeeping load.
	odysseyCPUPerSec = 0.015
	// chunk is the streaming granularity.
	chunk = time.Second
	// prefetchDepth bounds how far the fetcher runs ahead.
	prefetchDepth = 3
	// chunkDeadline bounds how long the fetcher waits for one chunk before
	// declaring it lost and rebuffering.
	chunkDeadline = 6 * chunk
	// FramesPerSecond is the clip frame rate (Cinepak clips of the era).
	FramesPerSecond = 20
	// transcodeCPUPerSec is the server compute cost of transcoding one
	// playback second down to a reduced track when the offload plane
	// places the transcode on a pool member (assumption: re-encoding
	// costs more than decoding but parallelizes well on a wall-powered
	// server).
	transcodeCPUPerSec = 0.35
	// transcodeRequestBytes is the track-selection request sent ahead of
	// a remote transcode.
	transcodeRequestBytes = 600.0
)

// Window geometry (normalized screen coordinates): the full-size window
// fits within one zone of a 4-zone display but needs two of an 8-zone
// display; at half height and width it fits one zone of either (Figure 18).
var (
	fullWindow    = hw.Rect{X: 0.02, Y: 0.03, W: 0.47, H: 0.47}
	reducedWindow = hw.Rect{X: 0.02, Y: 0.03, W: 0.235, H: 0.235}
)

// Track is one pre-encoded variant of a clip held by the video server.
type Track struct {
	Name string
	// RateFactor scales the encoded bitrate relative to full fidelity.
	RateFactor float64
	// DecodeFactor scales Xanim's decode CPU (tracks bitrate).
	DecodeFactor float64
	// RelArea scales the X server's render work relative to the
	// full-size window.
	RelArea float64
	// Window is the display window's position and size (for zoned
	// backlighting).
	Window hw.Rect
}

// The tracks of the paper's Figure 6, lowest fidelity first.
var (
	// TrackCombined is Premiere-C encoding in a half-size window.
	TrackCombined = Track{Name: "Combined", RateFactor: 0.45, DecodeFactor: 0.45, RelArea: 0.25, Window: reducedWindow}
	// TrackReducedWindow is the half-height, half-width track: smaller
	// frames mean a lower encoded rate and cheaper decode too.
	TrackReducedWindow = Track{Name: "Reduced Window", RateFactor: 0.75, DecodeFactor: 0.75, RelArea: 0.25, Window: reducedWindow}
	// TrackPremiereC is aggressive lossy compression, full-size window.
	TrackPremiereC = Track{Name: "Premiere-C", RateFactor: 0.45, DecodeFactor: 0.45, RelArea: 1.0, Window: fullWindow}
	// TrackPremiereB is moderate lossy compression.
	TrackPremiereB = Track{Name: "Premiere-B", RateFactor: 0.70, DecodeFactor: 0.70, RelArea: 1.0, Window: fullWindow}
	// TrackBase is the original encoding.
	TrackBase = Track{Name: "Baseline", RateFactor: 1.0, DecodeFactor: 1.0, RelArea: 1.0, Window: fullWindow}
)

// AdaptationTracks are the fidelity levels the player registers with
// Odyssey, lowest first.
func AdaptationTracks() []Track {
	return []Track{TrackCombined, TrackPremiereC, TrackPremiereB, TrackBase}
}

// xanimWatts is the fidelity model of the xanim principal's attributed
// draw, one figure per adaptation track (lowest fidelity first). These are
// empirical fits, obtained exactly the way Odyssey's fidelity models are:
// play each track honestly under PowerScope attribution and record the
// principal's mean watts (share-weighted total system power, so they fold
// in decode CPU, the stream's interrupt load, and the principal's slice of
// background draw). The supervision plane compares live attribution
// against this model to detect applications consuming above their
// reported fidelity.
// Levels 0 and 1 share an encoding (the window size they differ in is the
// X server's work, not Xanim's), so their figures coincide.
var xanimWatts = []float64{1.80, 1.80, 2.83, 4.08}

// ExpectedPower returns the fidelity model's estimate of the xanim
// principal's attributed draw (W) while a clip plays at the given
// adaptation level.
func ExpectedPower(level int) float64 { return env.LevelOf(xanimWatts, level) }

// Clip describes one video data object.
type Clip struct {
	Name   string
	Length time.Duration
}

// StandardClips returns the four clips of the paper's evaluation
// (QuickTime/Cinepak, 127-226 seconds).
func StandardClips() []Clip {
	return []Clip{
		{Name: "Video 1", Length: 127 * time.Second},
		{Name: "Video 2", Length: 164 * time.Second},
		{Name: "Video 3", Length: 201 * time.Second},
		{Name: "Video 4", Length: 226 * time.Second},
	}
}

// Player is the adaptive video application. It implements core.Adaptive;
// fidelity changes take effect at the next chunk boundary.
type Player struct {
	// Fidelity is the player's track ladder, AdaptationTracks.
	env.Fidelity[Track]
	rig *env.Rig

	// Warden is the video warden mediating track selection.
	Warden Warden
	// Totals accumulates playback quality across every clip played.
	Totals PlaybackStats
}

// NewPlayer returns a player at full fidelity, registered with the rig's
// viceroy warden registry.
func NewPlayer(rig *env.Rig) *Player {
	p := &Player{
		Fidelity: env.NewFidelity(AdaptationTracks(), func(t Track) string { return t.Name }),
		rig:      rig,
	}
	p.Warden = Warden{Rig: rig}
	_ = rig.V.RegisterWarden(p.Warden) // duplicate registration is harmless here
	return p
}

// Name implements core.Adaptive.
func (pl *Player) Name() string { return "video" }

// Track returns the track playback actually streams (see Operating).
func (pl *Player) Track() Track { return pl.Operating() }

// EnableBandwidthAdaptation registers the player with the viceroy's
// bandwidth resource (see env.Rig.StartBandwidthMonitor) using the original
// Odyssey expectation protocol: the player asks for at least its current
// track's bitrate; when availability falls below that window it degrades to
// the best track that fits and re-registers. Upgrades on recovered
// bandwidth are driven the same way through the upper bound.
func (pl *Player) EnableBandwidthAdaptation(resource string) error {
	return pl.watchBandwidth(resource)
}

func (pl *Player) watchBandwidth(resource string) error {
	need := pl.Track().RateFactor * BaseBytesPerSec
	if pl.Level() == 0 {
		// Nothing below the lowest track: accept any floor and watch
		// only for recovery.
		need = 0
	}
	// Upper bound: if bandwidth recovers enough for the next track up,
	// take the upcall and upgrade.
	high := 1e18
	if tracks := AdaptationTracks(); pl.Level() < len(tracks)-1 {
		high = tracks[pl.Level()+1].RateFactor * BaseBytesPerSec * headroomFactor
	}
	_, err := pl.rig.V.Request(resource, need, high, func(avail float64) {
		pl.adaptToBandwidth(avail)
		if err := pl.watchBandwidth(resource); err != nil {
			//odylint:allow panicfree failure inside an async upcall has no caller to return to
			panic(err) // resource disappeared mid-run: programming error
		}
	})
	return err
}

// headroomFactor is how much spare bandwidth a track needs before the
// player upgrades into it (hysteresis against flapping).
const headroomFactor = 1.25

// adaptToBandwidth picks the best track whose bitrate fits avail.
func (pl *Player) adaptToBandwidth(avail float64) {
	tracks := AdaptationTracks()
	best := 0
	for i, trk := range tracks {
		if trk.RateFactor*BaseBytesPerSec <= avail/1.02 {
			best = i
		}
	}
	// Only upgrade with headroom; always honor downgrades.
	if best > pl.Level() {
		if tracks[best].RateFactor*BaseBytesPerSec*headroomFactor > avail {
			return
		}
	}
	pl.SetLevel(best)
}

// Play streams and displays clip at the player's (possibly changing)
// fidelity, blocking p until playback completes.
func (pl *Player) Play(p *sim.Proc, clip Clip) PlaybackStats {
	if !pl.Health.Alive() {
		// A dead player shows a frozen window for the clip's duration:
		// every frame is dropped, and — crucially for the video loop that
		// calls Play back-to-back — virtual time still advances, so a
		// crashed process cannot livelock the simulation.
		p.Sleep(clip.Length)
		stats := PlaybackStats{FramesDropped: int(clip.Length.Seconds() * FramesPerSecond)}
		pl.Totals.add(stats)
		return stats
	}
	stats := PlayTrack(pl.rig, p, clip, func() Track { return pl.Track() })
	pl.Totals.add(stats)
	return stats
}

// PlaybackStats reports playback quality: when the stream cannot keep up
// (shared link, shared CPU), the player drops frames to resynchronize —
// the user experience the paper's video player adapts to avoid ("a client
// ... could switch to black and white video when bandwidth drops, rather
// than suffering lost frames").
type PlaybackStats struct {
	// FramesShown and FramesDropped partition the clip's frames.
	FramesShown   int
	FramesDropped int
	// Stall is the total time playback ran behind its clock.
	Stall time.Duration
	// ChunksLost counts chunks the fetcher abandoned (dead link, timeout);
	// their frames are dropped wholesale and playback rebuffers.
	ChunksLost int
}

// add accumulates other into s.
func (s *PlaybackStats) add(other PlaybackStats) {
	s.FramesShown += other.FramesShown
	s.FramesDropped += other.FramesDropped
	s.Stall += other.Stall
	s.ChunksLost += other.ChunksLost
}

// DropRate returns the fraction of frames dropped.
func (s PlaybackStats) DropRate() float64 {
	total := s.FramesShown + s.FramesDropped
	if total == 0 {
		return 0
	}
	return float64(s.FramesDropped) / float64(total)
}

// PlayTrack streams and displays clip, querying trackOf at each chunk
// boundary (fixed-fidelity experiments pass a constant). It blocks p until
// the final chunk has been displayed and reports playback quality.
func PlayTrack(rig *env.Rig, p *sim.Proc, clip Clip, trackOf func() Track) PlaybackStats {
	k := rig.K
	type piece struct {
		dur  time.Duration
		trk  Track
		lost bool
		// base marks a chunk delivered at the full (untranscoded) rate
		// because the offload plane degraded a remote transcode to the
		// local path: it decodes at full cost.
		base bool
	}
	nChunks := int((clip.Length + chunk - 1) / chunk)
	q := sim.NewQueue[piece](k)
	space := sim.NewWaitList(k)

	fetchDone := sim.NewGroup(k)
	fetchDone.Go("xanim-fetch", func(fp *sim.Proc) {
		for i := 0; i < nChunks; i++ {
			for q.Len() >= prefetchDepth {
				space.Wait(fp)
			}
			d := chunk
			if rem := clip.Length - time.Duration(i)*chunk; rem < d {
				d = rem
			}
			trk := trackOf()
			// Cinepak is variable-bit-rate: per-chunk sizes wander
			// around the track's nominal rate.
			vbr := 1 + 0.08*(2*k.Rand().Float64()-1)
			bytes := BaseBytesPerSec * trk.RateFactor * d.Seconds() * vbr
			if rig.Offload != nil && trk.RateFactor < 1 {
				base, lost := fetchOffload(rig, fp, d, trk, vbr)
				q.Put(piece{dur: d, trk: trk, lost: lost, base: base})
				continue
			}
			err := rig.Net.BulkTransfer(fp, PrincipalXanim, bytes,
				netsim.CallOptions{Timeout: chunkDeadline, Attempts: 2})
			q.Put(piece{dur: d, trk: trk, lost: err != nil})
		}
	})

	var stats PlaybackStats
	framePeriod := time.Second / FramesPerSecond
	start := k.Now()
	elapsed := time.Duration(0)
	for i := 0; i < nChunks; i++ {
		pc := q.Get(p)
		space.WakeOne()
		if pc.lost {
			// The chunk never arrived: its frames are gone wholesale and
			// playback rebuffers — the clock restarts at the next chunk.
			stats.FramesDropped += int(pc.dur / framePeriod)
			stats.ChunksLost++
			elapsed += pc.dur
			start = k.Now() - elapsed
			continue
		}
		rig.IlluminateWindow(pc.trk.Window)
		rig.M.CPU.RunAsync(PrincipalOdyssey, odysseyCPUPerSec*pc.dur.Seconds(), nil)
		decodeFactor := pc.trk.DecodeFactor
		if pc.base {
			decodeFactor = 1.0
		}
		rig.M.CPU.Run(p, PrincipalXanim, decodeCPUPerSec*decodeFactor*pc.dur.Seconds())
		rig.M.CPU.Run(p, PrincipalX, xCPUPerSec*pc.trk.RelArea*pc.dur.Seconds())
		elapsed += pc.dur
		if i == 0 {
			// Anchor the playback clock to the first rendered chunk:
			// startup buffering is latency, not frame loss. The first
			// chunk begins playing the moment it is ready.
			start = k.Now() - (elapsed - pc.dur)
		}
		deadline := start + elapsed
		frames := int(pc.dur / framePeriod)
		if late := k.Now() - deadline; late > 0 {
			// Behind the playback clock: drop frames to resync, as
			// Xanim does, charging the lateness against this chunk.
			dropped := int(late / framePeriod)
			if dropped > frames {
				dropped = frames
			}
			stats.FramesDropped += dropped
			stats.FramesShown += frames - dropped
			stats.Stall += late
			start += late // resynchronize the clock
		} else {
			stats.FramesShown += frames
			p.SleepUntil(deadline) // pace to the playback clock
		}
	}
	fetchDone.Wait(p)
	return stats
}

// fetchOffload routes one reduced-track chunk through the offload plane:
// the remote arm transcodes on a pool member and streams the reduced
// bytes; the local arm (first choice or degraded) streams the
// untranscoded chunk, which decodes downstream at full cost. It reports
// whether the delivered chunk is base-rate and whether it was lost
// entirely (the local stream also failed).
func fetchOffload(rig *env.Rig, fp *sim.Proc, d time.Duration, trk Track, vbr float64) (base, lost bool) {
	sec := d.Seconds()
	local := offload.Arm{
		CPU:        decodeCPUPerSec * sec,
		ReplyBytes: BaseBytesPerSec * sec * vbr,
		Bulk:       true,
		Opts:       netsim.CallOptions{Timeout: chunkDeadline, Attempts: 2},
	}
	remote := &offload.Arm{
		CPU:        decodeCPUPerSec * trk.DecodeFactor * sec,
		SendBytes:  transcodeRequestBytes,
		ReplyBytes: BaseBytesPerSec * trk.RateFactor * sec * vbr,
		ServerSec:  transcodeCPUPerSec * sec,
	}
	out := rig.Offload.Do(fp, PrincipalXanim, local, remote, nil)
	if out.Mode == offload.Remote {
		return false, false
	}
	return true, out.LocalErr != nil
}

// Warden is the video warden: it encapsulates track selection for the
// video data type and serves the namespace's type-specific operations.
type Warden struct {
	// Rig is the environment operations execute on.
	Rig *env.Rig
}

// TypeName implements core.Warden.
func (Warden) TypeName() string { return "video" }

// TSOp implements odfs.TSOpWarden: "play" streams and displays the clip
// object at the handle's fidelity.
func (w Warden) TSOp(p *sim.Proc, obj *odfs.Object, op string, fidelity int, args any) (any, error) {
	if op != "play" {
		return nil, fmt.Errorf("video warden: %w %q", odfs.ErrNoSuchOp, op)
	}
	clip, ok := obj.Data.(Clip)
	if !ok {
		return nil, fmt.Errorf("video warden: object %q does not hold a Clip", obj.Path)
	}
	track := w.SelectTrack(fidelity)
	PlayTrack(w.Rig, p, clip, func() Track { return track })
	return track.Name, nil
}

// SelectTrack returns the track matching a fidelity level index within
// AdaptationTracks, clamped to the valid range.
func (Warden) SelectTrack(level int) Track { return env.LevelOf(AdaptationTracks(), level) }
