package powerscope

import (
	"strings"
	"time"

	"odyssey/internal/power"
	"odyssey/internal/sim"
)

// Well-known process identities.
const (
	// KernelPID is the pid recorded for kernel-mode samples (idle loop,
	// interrupts).
	KernelPID = 0
	// KernelBinary is the pseudo-binary for kernel code.
	KernelBinary = "Kernel"
)

// Process is a profiled process: a pid plus the binary path shown in
// profiles, with a current-procedure marker maintained by running code.
type Process struct {
	PID     int
	Path    string
	current *Procedure
}

// Exec marks proc as the process's currently executing procedure and
// returns the previous one, so callers can restore it:
//
//	prev := p.Exec(fetch)
//	defer p.Exec(prev)
func (p *Process) Exec(proc *Procedure) *Procedure {
	prev := p.current
	p.current = proc
	return prev
}

// SystemMonitor is PowerScope's kernel component: it tracks the process
// table and, on each multimeter trigger, records the pid and program
// counter of the code executing at that instant.
//
// In the simulation the "executing code" is drawn from the accountant's CPU
// ownership shares: a principal is picked with probability equal to its
// share, matching the expectation of the real sampler.
type SystemMonitor struct {
	k    *sim.Kernel
	acct *power.Accountant
	st   *SymbolTable

	nextPID   int
	byName    map[string]*Process
	processes []*Process

	idleProc *Procedure
	unknown  map[string]*Procedure
}

// NewSystemMonitor returns a monitor with only the kernel idle procedure
// registered.
func NewSystemMonitor(k *sim.Kernel, acct *power.Accountant, st *SymbolTable) *SystemMonitor {
	sm := &SystemMonitor{
		k:       k,
		acct:    acct,
		st:      st,
		nextPID: 100,
		byName:  make(map[string]*Process),
		unknown: make(map[string]*Procedure),
	}
	sm.idleProc = st.Declare(KernelBinary, "_cpu_idle")
	return sm
}

// Register adds a process to the table under the principal name used in CPU
// accounting, with the binary path shown in profiles.
func (sm *SystemMonitor) Register(principal, path string) *Process {
	if p, ok := sm.byName[principal]; ok {
		return p
	}
	sm.nextPID++
	p := &Process{PID: sm.nextPID, Path: path}
	sm.byName[principal] = p
	sm.processes = append(sm.processes, p)
	return p
}

// Lookup returns the process registered for principal, or nil.
func (sm *SystemMonitor) Lookup(principal string) *Process { return sm.byName[principal] }

// sampleTarget resolves the (pid, pc) to record for a trigger at the
// current instant.
func (sm *SystemMonitor) sampleTarget() (pid int, pc uintptr) {
	shares := sm.acct.Shares()
	if len(shares) == 0 {
		return KernelPID, sm.idleProc.Start
	}
	r := sm.k.Rand().Float64()
	acc := 0.0
	chosen := shares[len(shares)-1].Principal
	for _, s := range shares {
		acc += s.Fraction
		if r < acc {
			chosen = s.Principal
			break
		}
	}
	if p, ok := sm.byName[chosen]; ok {
		if p.current != nil {
			return p.PID, p.current.Start
		}
		return p.PID, 0
	}
	// Unregistered principals (kernel interrupt handlers and the like)
	// appear as kernel-mode samples with a synthesized procedure.
	proc, ok := sm.unknown[chosen]
	if !ok {
		name := chosen
		if !strings.HasPrefix(name, "Interrupts-") {
			name = "Interrupts-" + name
		}
		proc = sm.st.Declare(KernelBinary, name)
		sm.unknown[chosen] = proc
	}
	return KernelPID, proc.Start
}

// Sample is one correlated observation: a current level plus the pid/pc
// executing at the trigger instant.
type Sample struct {
	Time  time.Duration
	Watts float64
	PID   int
	PC    uintptr
}

// Profiler couples the energy monitor (sampled multimeter) with the system
// monitor, accumulating correlated samples for offline analysis.
type Profiler struct {
	SysMon  *SystemMonitor
	Symbols *SymbolTable

	meter   *power.Meter
	samples []Sample
}

// NewProfiler creates a profiler sampling at the given period with phase
// jitter (the paper samples roughly 600 times per second).
func NewProfiler(k *sim.Kernel, acct *power.Accountant, period, jitter time.Duration) *Profiler {
	st := NewSymbolTable()
	sm := NewSystemMonitor(k, acct, st)
	pf := &Profiler{SysMon: sm, Symbols: st}
	pf.meter = power.NewMeter(k, acct, period, jitter, func(t time.Duration, w float64) {
		pid, pc := sm.sampleTarget()
		pf.samples = append(pf.samples, Sample{Time: t, Watts: w, PID: pid, PC: pc})
	})
	return pf
}

// Start begins collection.
func (pf *Profiler) Start() { pf.meter.Start() }

// Stop halts collection.
func (pf *Profiler) Stop() { pf.meter.Stop() }

// Samples returns the raw correlated sample stream.
func (pf *Profiler) Samples() []Sample { return pf.samples }
