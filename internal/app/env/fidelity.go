package env

import "odyssey/internal/supervise"

// Fidelity is an application's fidelity ladder, the contract Odyssey gives
// every adaptive application: the configurations it registers, lowest
// fidelity first, their level names, and the level the viceroy last
// directed. An application embeds one and adds Name to implement
// core.Adaptive.
type Fidelity[C any] struct {
	configs []C
	names   []string
	level   int
	// Health is the misbehavior surface the fault plane flips and the
	// supervision plane observes. The zero value is a healthy process.
	Health supervise.AppHealth
}

// NewFidelity returns a ladder over configs (lowest fidelity first) at its
// top level, each level named by name.
func NewFidelity[C any](configs []C, name func(C) string) Fidelity[C] {
	names := make([]string, len(configs))
	for i, c := range configs {
		names[i] = name(c)
	}
	return Fidelity[C]{configs: configs, names: names, level: len(configs) - 1}
}

// Levels implements core.Adaptive. Callers must not modify the slice.
func (f *Fidelity[C]) Levels() []string { return f.names }

// Level implements core.Adaptive.
func (f *Fidelity[C]) Level() int { return f.level }

// SetLevel implements core.Adaptive (the Odyssey upcall), clamping l to the
// ladder.
func (f *Fidelity[C]) SetLevel(l int) { f.level = clampLevel(l, len(f.configs)) }

// Operating returns the configuration the application actually runs. A
// lying process reports Level but operates at Health.EffectiveLevel,
// consuming resources its report does not admit to.
func (f *Fidelity[C]) Operating() C {
	return f.configs[f.Health.EffectiveLevel(f.level, len(f.configs)-1)]
}

// LevelOf returns the configuration of level within configs, clamped to the
// ladder: the lookup a warden makes for a handle's fidelity.
func LevelOf[C any](configs []C, level int) C {
	return configs[clampLevel(level, len(configs))]
}

// clampLevel clamps l to [0, n-1].
func clampLevel(l, n int) int {
	return max(0, min(l, n-1))
}
