package speech

import (
	"testing"
	"time"

	"odyssey/internal/app/env"
	"odyssey/internal/hw"
	"odyssey/internal/odfs"
	"odyssey/internal/sim"
)

func recognizeOnce(seed int64, u Utterance, cfg Config, mgmt bool) (energy float64, dur time.Duration) {
	rig := env.NewRig(seed, 1)
	if mgmt {
		rig.EnablePowerMgmt()
		rig.M.Display.SetAll(hw.BacklightOff)
	}
	rig.K.Spawn("w", func(p *sim.Proc) {
		cp := rig.M.Acct.Checkpoint()
		start := p.Now()
		Recognize(rig, p, u, cfg)
		energy = cp.Since()
		dur = p.Now() - start
	})
	rig.K.Run(0)
	return energy, dur
}

func TestLocalRecognitionScalesWithLength(t *testing.T) {
	us := StandardUtterances()
	short, _ := recognizeOnce(1, us[0], Config{Mode: Local, Vocab: FullVocab}, true)
	long, _ := recognizeOnce(1, us[3], Config{Mode: Local, Vocab: FullVocab}, true)
	if long <= short {
		t.Fatalf("7 s utterance (%.1f J) cheaper than 1.5 s (%.1f J)", long, short)
	}
}

func TestReducedVocabSavesEnergy(t *testing.T) {
	for _, u := range StandardUtterances() {
		full, _ := recognizeOnce(2, u, Config{Mode: Local, Vocab: FullVocab}, true)
		red, _ := recognizeOnce(2, u, Config{Mode: Local, Vocab: ReducedVocab}, true)
		savings := 1 - red/full
		// The paper reports 25-46% across utterances.
		if savings < 0.15 || savings > 0.55 {
			t.Fatalf("%s: reduced-vocab savings %.0f%% outside band", u.Name, savings*100)
		}
	}
}

func TestStrategyOrdering(t *testing.T) {
	// For every utterance with power management on:
	// local > remote > hybrid in energy (at full vocabulary).
	for _, u := range StandardUtterances() {
		local, _ := recognizeOnce(3, u, Config{Mode: Local, Vocab: FullVocab}, true)
		remote, _ := recognizeOnce(3, u, Config{Mode: Remote, Vocab: FullVocab}, true)
		hybrid, _ := recognizeOnce(3, u, Config{Mode: Hybrid, Vocab: FullVocab}, true)
		if !(local > remote && remote > hybrid) {
			t.Fatalf("%s: energy ordering wrong: local=%.1f remote=%.1f hybrid=%.1f",
				u.Name, local, remote, hybrid)
		}
	}
}

func TestHybridShipsFiveTimesLessData(t *testing.T) {
	u := StandardUtterances()[3]
	bytesFor := func(cfg Config) float64 {
		rig := env.NewRig(4, 1)
		rig.EnablePowerMgmt()
		var moved float64
		rig.K.Spawn("w", func(p *sim.Proc) {
			Recognize(rig, p, u, cfg)
			moved = rig.Net.BytesMoved()
		})
		rig.K.Run(0)
		return moved
	}
	remote := bytesFor(Config{Mode: Remote, Vocab: FullVocab})
	hybrid := bytesFor(Config{Mode: Hybrid, Vocab: FullVocab})
	ratio := remote / hybrid
	// Factor of five on the waveform, diluted slightly by fixed RPC
	// overhead bytes.
	if ratio < 3.5 || ratio > 5.5 {
		t.Fatalf("remote/hybrid data ratio %.2f, want ~5", ratio)
	}
}

func TestLocalRecognitionUsesNoNetwork(t *testing.T) {
	rig := env.NewRig(5, 1)
	rig.EnablePowerMgmt()
	rig.K.Spawn("w", func(p *sim.Proc) {
		Recognize(rig, p, StandardUtterances()[0], Config{Mode: Local, Vocab: FullVocab})
	})
	rig.K.Run(0)
	if rig.Net.BytesMoved() != 0 {
		t.Fatalf("local recognition moved %v bytes", rig.Net.BytesMoved())
	}
	if rig.M.NIC.State() != hw.NICStandby {
		t.Fatalf("NIC %v after local recognition with mgmt", rig.M.NIC.State())
	}
}

func TestRemoteEnergyMostlyIdle(t *testing.T) {
	// "most of the energy consumed by the client in remote recognition
	// occurs with the processor idle"
	rig := env.NewRig(6, 1)
	rig.EnablePowerMgmt()
	rig.M.Display.SetAll(hw.BacklightOff)
	u := StandardUtterances()[3]
	rig.K.Spawn("w", func(p *sim.Proc) {
		Recognize(rig, p, u, Config{Mode: Remote, Vocab: FullVocab})
	})
	rig.K.Run(0)
	byP := rig.M.Acct.EnergyByPrincipal()
	idle := byP["Idle"]
	total := rig.M.Acct.TotalEnergy()
	if idle < 0.35*total {
		t.Fatalf("idle energy %.1f J of %.1f J total; expected the largest share", idle, total)
	}
}

func TestRecognizerAdaptive(t *testing.T) {
	rig := env.NewRig(7, 1)
	r := NewRecognizer(rig)
	if r.Name() != "speech" || len(r.Levels()) != 2 {
		t.Fatalf("recognizer identity wrong: %q %v", r.Name(), r.Levels())
	}
	if r.Operating().Vocab != FullVocab {
		t.Fatal("recognizer does not start at full vocabulary")
	}
	r.SetLevel(0)
	if r.Operating().Vocab != ReducedVocab {
		t.Fatal("level 0 is not the reduced vocabulary")
	}
	r.SetLevel(-2)
	if r.Level() != 0 {
		t.Fatal("clamp low failed")
	}
	r.SetLevel(7)
	if r.Level() != 1 {
		t.Fatal("clamp high failed")
	}
	rig.K.Run(0) // drain the fidelity-alert CPU bursts
}

func TestAdaptModeSwitchesToHybrid(t *testing.T) {
	rig := env.NewRig(8, 1)
	rig.EnablePowerMgmt()
	r := NewRecognizer(rig)
	r.SetLevel(0)
	rig.K.Spawn("w", func(p *sim.Proc) {
		r.Recognize(p, StandardUtterances()[1])
	})
	rig.K.Run(0)
	if rig.Net.BytesMoved() == 0 {
		t.Fatal("level 0 did not use the network (expected hybrid)")
	}
}

func TestWardenModelSelection(t *testing.T) {
	var w Warden
	if w.TypeName() != "speech" {
		t.Fatalf("warden type %q", w.TypeName())
	}
	if w.ModelFor(0) != ReducedVocab || w.ModelFor(1) != FullVocab || w.ModelFor(-3) != ReducedVocab {
		t.Fatal("model selection wrong")
	}
}

func TestModeString(t *testing.T) {
	if Local.String() != "local" || Remote.String() != "remote" || Hybrid.String() != "hybrid" {
		t.Fatal("mode names wrong")
	}
}

func TestWordErrorRateModel(t *testing.T) {
	for _, u := range StandardUtterances() {
		full := WordErrorRate(u, Config{Mode: Local, Vocab: FullVocab})
		red := WordErrorRate(u, Config{Mode: Remote, Vocab: ReducedVocab})
		if full <= 0 || full > 0.2 || red <= 0 || red > 0.3 {
			t.Fatalf("%s: implausible WERs full=%v reduced=%v", u.Name, full, red)
		}
		// Mode does not affect quality.
		if WordErrorRate(u, Config{Mode: Hybrid, Vocab: FullVocab}) != full {
			t.Fatalf("%s: mode changed the error rate", u.Name)
		}
	}
	// The paper's observation: for some utterances the reduced model is
	// no worse (search-space gain offsets the OOV penalty), while for
	// specialized utterances it is.
	better, worse := 0, 0
	for _, u := range StandardUtterances() {
		full := WordErrorRate(u, Config{Vocab: FullVocab})
		red := WordErrorRate(u, Config{Vocab: ReducedVocab})
		if red <= full {
			better++
		} else {
			worse++
		}
	}
	if better == 0 {
		t.Error("reduced vocabulary never at least matched full quality; the paper says it can")
	}
	if worse == 0 {
		t.Error("reduced vocabulary never cost quality; fidelity should mean something")
	}
}

func TestWardenTSOp(t *testing.T) {
	rig := env.NewRig(9, 1)
	rig.EnablePowerMgmt()
	r := NewRecognizer(rig)
	u := StandardUtterances()[0]
	obj := &odfs.Object{Path: "/u", Type: "speech", Data: u}
	rig.K.Spawn("x", func(p *sim.Proc) {
		res, err := r.Warden.TSOp(p, obj, "recognize", 0, nil)
		if err != nil {
			t.Errorf("recognize tsop: %v", err)
			return
		}
		if res != ReducedVocab {
			t.Errorf("level 0 selected %v", res)
		}
		if _, err := r.Warden.TSOp(p, obj, "transcribe", 0, nil); err == nil {
			t.Error("unknown op accepted")
		}
		bad := &odfs.Object{Path: "/b", Type: "speech", Data: 3.14}
		if _, err := r.Warden.TSOp(p, bad, "recognize", 0, nil); err == nil {
			t.Error("non-Utterance payload accepted")
		}
	})
	rig.K.Run(0)
}
