// Package chaos is the soak harness that hunts for invariant violations in
// the simulated testbed: a seeded generator composes randomized adversarial
// scenarios (workload mixes, fault ladders, application misbehavior, battery
// configurations), every run is audited by an always-on sentinel suite
// (energy conservation, budget conservation, clock monotonicity, trace
// well-formedness, goal/residual bounds, same-seed determinism), and a
// failing scenario is automatically shrunk to a minimal reproduction with a
// one-line replay command. Scenarios are plain JSON and content-addressed,
// so a failure found in a thousand-scenario soak is a file that replays
// forever.
package chaos

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"odyssey/internal/experiment"
	"odyssey/internal/faults"
)

// Scenario is one serializable chaos trial: everything RunGoal needs to
// reproduce the run bit-for-bit. The fault and misbehavior plans are carried
// as specs (faults.PlanSpec) because live plans hold rig pointers; Run
// materializes them against the trial's fresh rig.
type Scenario struct {
	// Seed drives the kernel (workload jitter) stream; the plans carry
	// their own derived seeds so fault timing never perturbs the workload.
	Seed int64 `json:"seed"`
	// Goal is the demanded battery duration.
	Goal faults.Dur `json:"goal"`
	// InitialEnergy is the supply in joules. The generator deliberately
	// draws some infeasible supplies: a goal the monitor cannot meet must
	// still satisfy every invariant.
	InitialEnergy float64 `json:"initial_energy"`
	// Apps is the enabled application subset (nil or empty = all four).
	Apps []string `json:"apps,omitempty"`
	// Bursty selects the stochastic workload instead of composite+video.
	Bursty bool `json:"bursty,omitempty"`
	// SmartBattery reads the quantized battery path instead of the bench
	// supply; Peukert (>1, with SmartBattery) adds rate-dependent drain.
	SmartBattery bool    `json:"smart_battery,omitempty"`
	Peukert      float64 `json:"peukert,omitempty"`
	// Supervise arms the application supervision plane.
	Supervise bool `json:"supervise,omitempty"`
	// Faults carries the network/server/battery fault ladder; Misbehave
	// carries the application-misbehavior injections.
	Faults    *faults.PlanSpec `json:"faults,omitempty"`
	Misbehave *faults.PlanSpec `json:"misbehave,omitempty"`
	// Offload arms the offload plane (multi-server pool plus the
	// decision-and-execution service): pool size, the cross-device
	// contention level other clients put on the pool, and the two envelope
	// knobs the soak exercises (hedging disarmed, forced policy). Omitted
	// when nil, so pre-existing corpus ids are unchanged.
	Offload *experiment.OffloadConfig `json:"offload,omitempty"`
	// StallBound overrides the kernel's virtual-time stall bound for this
	// scenario (0 = kernel default). Planted-livelock repros carry a small
	// bound so replaying and shrinking them is fast; the generator never
	// sets it. Omitted when zero, so pre-existing corpus ids are unchanged.
	StallBound int `json:"stall_bound,omitempty"`
}

// ID returns the scenario's content address: the first 16 hex digits of the
// SHA-256 of its canonical JSON encoding. Two scenarios with the same ID are
// byte-identical trials.
func (sc Scenario) ID() string {
	b, err := json.Marshal(sc)
	if err != nil {
		// Scenario contains only marshalable fields; reaching here is a
		// programming error in the struct definition itself.
		//odylint:allow panicfree encoding a plain data struct cannot fail at runtime
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])[:16]
}

// AppsOrAll returns the enabled application set (the full set for nil).
func (sc Scenario) AppsOrAll() []string {
	if len(sc.Apps) == 0 {
		return append([]string(nil), allApps...)
	}
	return sc.Apps
}

// InjectorCount reports how many injectors the scenario arms across both
// plans — the shrinker's primary size metric.
func (sc Scenario) InjectorCount() int {
	n := 0
	if sc.Faults != nil {
		n += len(sc.Faults.Injectors)
	}
	if sc.Misbehave != nil {
		n += len(sc.Misbehave.Injectors)
	}
	return n
}

// Summary renders a one-line description for soak progress output.
func (sc Scenario) Summary() string {
	mode := "composite"
	if sc.Bursty {
		mode = "bursty"
	}
	bat := "supply"
	if sc.SmartBattery {
		bat = "smartbattery"
		if sc.Peukert > 1 {
			bat = fmt.Sprintf("smartbattery(peukert=%.2f)", sc.Peukert)
		}
	}
	sup := ""
	if sc.Supervise {
		sup = " supervised"
	}
	off := ""
	if sc.Offload != nil {
		off = fmt.Sprintf(" offload=%d(load=%.2f)", sc.Offload.Servers, sc.Offload.Contention)
		if sc.Offload.NoHedge {
			off += " nohedge"
		}
		if sc.Offload.Policy != "" {
			off += " policy=" + sc.Offload.Policy
		}
	}
	return fmt.Sprintf("%s seed=%d goal=%v energy=%.0fJ apps=%v %s %s%s%s injectors=%d",
		sc.ID(), sc.Seed, time.Duration(sc.Goal), sc.InitialEnergy, sc.AppsOrAll(), mode, bat, sup, off, sc.InjectorCount())
}

// normalize drops empty plans and sorts nothing — injector order is
// semantic (it fixes RNG draw order), so normalization only removes
// structure that cannot matter: zero-injector plans.
func (sc Scenario) normalize() Scenario {
	if sc.Faults != nil && len(sc.Faults.Injectors) == 0 {
		sc.Faults = nil
	}
	if sc.Misbehave != nil && len(sc.Misbehave.Injectors) == 0 {
		sc.Misbehave = nil
	}
	if !sc.SmartBattery {
		sc.Peukert = 0
	}
	if sc.Offload != nil && sc.Offload.Servers <= 0 {
		sc.Offload = nil
	}
	return sc
}

// Save writes the scenario as indented JSON to dir/<id>.json and returns
// the path. The write is atomic (write-then-rename) so a parallel soak
// never leaves a truncated corpus entry.
func (sc Scenario) Save(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	b, err := sc.encode()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, sc.ID()+".json")
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return "", err
	}
	if err := os.Rename(tmp, path); err != nil {
		return "", err
	}
	return path, nil
}

// encode renders the scenario as Save writes it: indented JSON and a final
// newline.
func (sc Scenario) encode() ([]byte, error) {
	b, err := json.MarshalIndent(sc, "", "  ")
	return append(b, '\n'), err
}

// LoadScenario reads one scenario file, rejecting JSON that is not a
// runnable scenario: unknown fields (a misspelled key, or some other tool's
// output saved as .json), anything but whitespace after the scenario (two
// scenarios concatenated, a stray edit), a goal or supply that is not
// positive, and an application missing from the workload roster. Every
// error names path.
func LoadScenario(path string) (Scenario, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Scenario{}, err
	}
	sc, err := parseScenario(b)
	if err != nil {
		return sc, fmt.Errorf("%s: %w", path, err)
	}
	return sc, nil
}

// parseScenario is LoadScenario's strict decoder, on the file's bytes.
func parseScenario(b []byte) (Scenario, error) {
	var sc Scenario
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return sc, fmt.Errorf("not a scenario: %w", err)
	}
	end := dec.InputOffset()
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return sc, fmt.Errorf("not a scenario: data after the scenario at byte %d", end)
	}
	if sc.Goal <= 0 || sc.InitialEnergy <= 0 {
		return sc, fmt.Errorf("not a runnable scenario: goal=%v energy=%v", time.Duration(sc.Goal), sc.InitialEnergy)
	}
	for _, app := range sc.Apps {
		if !slices.Contains(allApps, app) {
			return sc, fmt.Errorf("not a runnable scenario: unknown application %q (known: %s)", app, strings.Join(allApps, " "))
		}
	}
	return sc, nil
}

// LoadCorpus reads every *.json scenario under dir, sorted by filename so
// replay order is stable. A missing directory is an empty corpus.
//
// The corpus dir grows organically — quarantined crashers land here
// alongside hand-written repros, and stray files (editor backups, journals,
// half-written notes) inevitably appear — so a file LoadScenario rejects is
// skipped with a reported warning instead of failing the whole load. The
// error return is reserved for the directory itself being unreadable.
func LoadCorpus(dir string) (scs []Scenario, paths, warnings []string, err error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil, nil, nil
	}
	if err != nil {
		return nil, nil, nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".json" {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, n := range names {
		p := filepath.Join(dir, n)
		sc, err := LoadScenario(p)
		if err != nil {
			warnings = append(warnings, "skipping "+err.Error())
			continue
		}
		scs = append(scs, sc)
		paths = append(paths, p)
	}
	return scs, paths, warnings, nil
}

// ReproCommand returns the one-line command that replays a saved scenario
// through the full sentinel suite.
func ReproCommand(path string) string {
	return "go run ./cmd/odyssey-chaos -scenario " + path
}
