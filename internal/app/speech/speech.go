// Package speech implements the paper's adaptive speech recognizer: a
// front-end that generates a waveform from an utterance and submits it via
// Odyssey to a local or remote instance of the Janus recognition system.
//
// Fidelity is lowered by using a reduced vocabulary and simpler acoustic
// model, which speeds recognition wherever it runs. Three execution modes
// are supported: local (compute on the client), remote (ship the waveform
// to a server), and hybrid (run the first recognition phase locally as a
// type-specific compression step — a factor-of-five data reduction — then
// ship the compact intermediate representation).
package speech

import (
	"fmt"
	"time"

	"odyssey/internal/app/env"
	"odyssey/internal/netsim"
	"odyssey/internal/odfs"
	"odyssey/internal/offload"
	"odyssey/internal/sim"
)

// Software principals appearing in profiles.
const (
	PrincipalJanus    = "janus"
	PrincipalFrontEnd = "speech-fe"
	PrincipalOdyssey  = "odyssey"
)

// Workload coefficients (assumptions calibrated against Figure 8; see
// DESIGN.md).
const (
	// recogCPUPerSec is full-vocabulary recognition time per second of
	// speech on the client CPU (Janus runs slower than real time).
	recogCPUPerSec = 1.00
	// frontEndCPUPerSec is waveform generation/feature extraction load.
	frontEndCPUPerSec = 0.40
	// hybridPhase1CPUPerSec is the local first recognition phase in
	// hybrid mode.
	hybridPhase1CPUPerSec = 0.12
	// hybridServerFactor scales server recognition time in hybrid mode
	// (the first phase has already been done locally).
	hybridServerFactor = 0.55
	// waveformBytesPerSec is the encoded waveform rate (16 kHz, 16-bit).
	waveformBytesPerSec = 32_000.0
	// hybridBytesPerSec is the intermediate representation rate — the
	// factor-of-five type-specific compression of the paper.
	hybridBytesPerSec = waveformBytesPerSec / 5
	// rpcOverheadBytes covers call headers and the recognition result.
	rpcOverheadBytes = 1_200.0
	// odysseyCPUPerOp is Odyssey bookkeeping per recognition.
	odysseyCPUPerOp = 0.02
)

// Mode selects where recognition executes.
type Mode int

const (
	// Local recognition on the client.
	Local Mode = iota
	// Remote recognition on a server.
	Remote
	// Hybrid: local first phase, remote completion.
	Hybrid
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case Local:
		return "local"
	case Remote:
		return "remote"
	default:
		return "hybrid"
	}
}

// Vocab selects the vocabulary/acoustic-model fidelity.
type Vocab int

const (
	// ReducedVocab is the low-fidelity model.
	ReducedVocab Vocab = iota
	// FullVocab is the full model.
	FullVocab
)

// String returns the vocabulary name.
func (v Vocab) String() string {
	if v == ReducedVocab {
		return "reduced-vocabulary"
	}
	return "full-vocabulary"
}

// Config is one recognition strategy.
type Config struct {
	Mode  Mode
	Vocab Vocab
}

// Utterance is one speech data object.
type Utterance struct {
	Name   string
	Length time.Duration
	// Complexity scales recognition effort (some utterances are harder).
	Complexity float64
	// ReducedFactor is the per-utterance speedup of the reduced model
	// (the spread across objects produces the paper's 25-46% range).
	ReducedFactor float64
}

// StandardUtterances returns the four pre-recorded utterances (1-7 s).
func StandardUtterances() []Utterance {
	return []Utterance{
		{Name: "Utterance 1", Length: 1500 * time.Millisecond, Complexity: 1.15, ReducedFactor: 0.65},
		{Name: "Utterance 2", Length: 2500 * time.Millisecond, Complexity: 0.90, ReducedFactor: 0.35},
		{Name: "Utterance 3", Length: 4500 * time.Millisecond, Complexity: 1.00, ReducedFactor: 0.50},
		{Name: "Utterance 4", Length: 7 * time.Second, Complexity: 1.05, ReducedFactor: 0.44},
	}
}

// WordErrorRate estimates recognition quality for an utterance under a
// configuration. The paper observes that lowering fidelity need not raise
// the word-error rate: "the recognizer makes fewer mistakes when choosing
// from a smaller set of words in the reduced vocabulary" — provided the
// utterance's words are in the reduced set. We model that as a base error
// rate scaled by utterance complexity, a penalty for out-of-vocabulary
// words under the reduced model, and a partially offsetting gain from the
// smaller search space. Execution mode does not affect quality (the same
// recognizer runs remotely).
func WordErrorRate(u Utterance, cfg Config) float64 {
	base := 0.06 * u.Complexity
	if cfg.Vocab == ReducedVocab {
		// Out-of-vocabulary penalty grows with how specialized the
		// utterance is (lower ReducedFactor = more aggressive model).
		oov := 0.06 * (1 - u.ReducedFactor)
		searchGain := 0.35 * base // fewer confusable candidates
		wer := base + oov - searchGain
		if wer < 0.01 {
			wer = 0.01
		}
		return wer
	}
	return base
}

// vocabFactor returns the recognition-effort multiplier for a vocabulary.
func vocabFactor(u Utterance, v Vocab) float64 {
	if v == ReducedVocab {
		return u.ReducedFactor
	}
	return 1.0
}

// Outcome reports where a recognition actually executed. FellBack is set
// when a remote or hybrid strategy lost its server and the recognition
// completed locally instead of hanging.
type Outcome struct {
	Mode     Mode
	FellBack bool
}

// speechOpts bounds a recognition RPC: the deadline scales with the server
// effort (long utterances legitimately take seconds), and one retry is
// allowed before giving up on the server.
func speechOpts(serverTime time.Duration) netsim.CallOptions {
	return netsim.CallOptions{
		Timeout:  2*serverTime + 10*time.Second,
		Attempts: 2,
	}
}

// Recognize runs one utterance through the recognizer under cfg, blocking p
// until the result is available. If a remote or hybrid RPC fails (dead
// link, crashed Janus server, deadline), recognition falls back to the
// local engine — degraded energy efficiency, but never a hang.
func Recognize(rig *env.Rig, p *sim.Proc, u Utterance, cfg Config) Outcome {
	rig.M.CPU.RunAsync(PrincipalOdyssey, odysseyCPUPerOp, nil)
	// Front-end: waveform generation and feature extraction, always local.
	rig.M.CPU.Run(p, PrincipalFrontEnd, frontEndCPUPerSec*u.Length.Seconds())

	effort := recogCPUPerSec * u.Complexity * vocabFactor(u, cfg.Vocab) * u.Length.Seconds()
	if rig.Offload != nil {
		// The offload plane owns the placement verdict: speech is its
		// reference client, handing over all three arms per utterance.
		return recognizeOffload(rig, p, u, effort)
	}
	switch cfg.Mode {
	case Local:
		rig.M.CPU.Run(p, PrincipalJanus, effort)
	case Remote:
		bytes := waveformBytesPerSec * u.Length.Seconds()
		serverTime := time.Duration(effort * float64(time.Second))
		err := rig.Net.RPC(p, PrincipalJanus, bytes,
			rig.JanusServer, serverTime, rpcOverheadBytes, speechOpts(serverTime))
		if err != nil {
			rig.M.CPU.Run(p, PrincipalJanus, effort)
			return Outcome{Mode: Local, FellBack: true}
		}
	case Hybrid:
		rig.M.CPU.Run(p, PrincipalJanus, hybridPhase1CPUPerSec*u.Length.Seconds())
		bytes := hybridBytesPerSec * u.Length.Seconds()
		serverTime := time.Duration(effort * hybridServerFactor * float64(time.Second))
		err := rig.Net.RPC(p, PrincipalJanus, bytes,
			rig.JanusServer, serverTime, rpcOverheadBytes, speechOpts(serverTime))
		if err != nil {
			// The phase-1 intermediate is useless without the server;
			// redo the recognition with the local engine.
			rig.M.CPU.Run(p, PrincipalJanus, effort)
			return Outcome{Mode: Local, FellBack: true}
		}
	}
	return Outcome{Mode: cfg.Mode}
}

// recognizeOffload hands one utterance to the offload service with all
// three placement arms. The service executes the hybrid phase-1 CPU and
// all remote traffic (under the offload principal); a local verdict —
// first-choice or degraded — leaves the full recognition effort here,
// charged to Janus exactly like the legacy local path.
func recognizeOffload(rig *env.Rig, p *sim.Proc, u Utterance, effort float64) Outcome {
	length := u.Length.Seconds()
	local := offload.Arm{CPU: effort}
	remote := &offload.Arm{
		SendBytes:  waveformBytesPerSec * length,
		ReplyBytes: rpcOverheadBytes,
		ServerSec:  effort,
	}
	hybrid := &offload.Arm{
		PreCPU:     hybridPhase1CPUPerSec * length,
		SendBytes:  hybridBytesPerSec * length,
		ReplyBytes: rpcOverheadBytes,
		ServerSec:  effort * hybridServerFactor,
	}
	out := rig.Offload.Do(p, PrincipalJanus, local, remote, hybrid)
	switch out.Mode {
	case offload.Remote:
		return Outcome{Mode: Remote}
	case offload.Hybrid:
		return Outcome{Mode: Hybrid}
	default:
		rig.M.CPU.Run(p, PrincipalJanus, effort)
		return Outcome{Mode: Local, FellBack: out.FellBack}
	}
}

// Recognizer is the adaptive speech application: two fidelity levels, hybrid
// recognition with the reduced vocabulary and local recognition with the
// full one. It implements core.Adaptive.
type Recognizer struct {
	// Fidelity is the recognizer's strategy ladder, recognizerLevels.
	env.Fidelity[Config]
	rig *env.Rig
	// Warden mediates model selection for the speech data type.
	Warden Warden
	// Fallbacks counts recognitions that lost their server and completed
	// locally.
	Fallbacks int
}

// recognizerLevels are ordered lowest fidelity first. The lowest level also
// switches execution to the hybrid strategy, the most energy-efficient
// option the paper measures, per Section 5's energy-optimal policy ("the
// optimal strategy will depend on resource availability").
var recognizerLevels = []Config{
	{Mode: Hybrid, Vocab: ReducedVocab},
	{Mode: Local, Vocab: FullVocab},
}

// NewRecognizer returns a full-fidelity local recognizer.
func NewRecognizer(rig *env.Rig) *Recognizer {
	r := &Recognizer{
		Fidelity: env.NewFidelity(recognizerLevels, func(c Config) string { return c.Vocab.String() }),
		rig:      rig,
	}
	r.Warden = Warden{Rig: rig}
	_ = rig.V.RegisterWarden(r.Warden)
	return r
}

// Name implements core.Adaptive.
func (r *Recognizer) Name() string { return "speech" }

// SetLevel implements core.Adaptive. The paper's recognizer alerts the user
// to fidelity transitions with a synthesized voice; that playback is a
// small burst of CPU.
func (r *Recognizer) SetLevel(l int) {
	old := r.Level()
	r.Fidelity.SetLevel(l)
	if r.Level() != old {
		r.rig.M.CPU.RunAsync(PrincipalFrontEnd, 0.05, nil)
	}
}

// Recognize runs one utterance at the current fidelity, reporting where it
// actually executed. A dead process recognizes nothing.
func (r *Recognizer) Recognize(p *sim.Proc, u Utterance) Outcome {
	if !r.Health.Alive() {
		return Outcome{}
	}
	out := Recognize(r.rig, p, u, r.Operating())
	if out.FellBack {
		r.Fallbacks++
	}
	return out
}

// Warden is the speech warden: it encapsulates language/acoustic model
// selection for the speech data type and serves the namespace's
// type-specific operations.
type Warden struct {
	// Rig is the environment operations execute on.
	Rig *env.Rig
}

// TypeName implements core.Warden.
func (Warden) TypeName() string { return "speech" }

// RecognizeArgs parameterizes the "recognize" type-specific operation.
type RecognizeArgs struct {
	// Mode selects where recognition executes (Local by default).
	Mode Mode
}

// TSOp implements odfs.TSOpWarden: "recognize" runs the utterance object
// through Janus at the handle's fidelity.
func (w Warden) TSOp(p *sim.Proc, obj *odfs.Object, op string, fidelity int, args any) (any, error) {
	if op != "recognize" {
		return nil, fmt.Errorf("speech warden: %w %q", odfs.ErrNoSuchOp, op)
	}
	u, ok := obj.Data.(Utterance)
	if !ok {
		return nil, fmt.Errorf("speech warden: object %q does not hold an Utterance", obj.Path)
	}
	mode := Local
	if ra, ok := args.(RecognizeArgs); ok {
		mode = ra.Mode
	}
	Recognize(w.Rig, p, u, Config{Mode: mode, Vocab: w.ModelFor(fidelity)})
	return w.ModelFor(fidelity), nil
}

// ModelFor maps a fidelity level to the vocabulary it selects.
func (Warden) ModelFor(level int) Vocab { return env.LevelOf(recognizerLevels, level).Vocab }
