// Package power provides energy accounting for the simulated mobile
// computer: an exact piecewise-constant power integrator (the ground truth
// that PowerScope's statistical sampling estimates), a sampled multimeter
// stream, and the energy supply (battery) model used by goal-directed
// adaptation.
//
// Two attributions are maintained simultaneously, mirroring the paper:
//
//   - per hardware component (display, network, disk, cpu, other): the basis
//     of Figure 4 and the zoned-backlight projections, and
//   - per software principal (the process/procedure executing when the power
//     was drawn): the shaded segments of the paper's bar charts and the rows
//     of PowerScope profiles. All instantaneous power — including the
//     display's — is attributed to the currently running software, exactly
//     as PowerScope's current/PC sample correlation does.
package power

import (
	"fmt"
	"sort"
	"time"

	"odyssey/internal/sim"
)

// IdlePrincipal is the software principal charged when no process is
// runnable — the kernel idle procedure (a Pentium hlt in the paper).
const IdlePrincipal = "Idle"

// superlinearComponent is the pseudo-component charged with the
// superlinear excess of total power over the component sum.
const superlinearComponent = "superlinear"

// Slots reserved at construction: the superlinear pseudo-component and the
// idle principal. Interning is by name, so a device registering
// "superlinear" or a share naming "Idle" lands in the same ledger entry.
const (
	superlinearID ComponentID = 0
	idleID        int32       = 0
)

// ComponentID is a hardware component's handle into an Accountant's
// ledgers. A device takes one from Register at construction and passes it
// to Set on every draw change, so integration indexes a slice instead of
// hashing a name.
type ComponentID int32

// slot is one named ledger entry: a hardware component or a software
// principal. Principals leave watts and drawn unused.
type slot struct {
	name   string
	watts  float64 // current draw (W)
	energy float64 // joules booked so far
	drawn  bool    // Set at least once: counted by Power, walked by flushes
	booked bool    // charged by a dt>0 segment: a key of the energy maps
}

// Accountant integrates energy exactly from piecewise-constant component
// powers and CPU ownership shares.
type Accountant struct {
	k *sim.Kernel

	comps []slot // indexed by ComponentID
	// order holds the drawn components' ids sorted by name, so that power
	// sums accumulate in a deterministic order independent of registration.
	order []ComponentID

	prins    []slot      // interned principals; idleID is slot 0
	shares   []sim.Share // current CPU ownership (empty = idle)
	shareIDs []int32     // shares[i].Principal's slot in prins

	superlinear func(sum float64) float64 // see SetSuperlinear

	last        time.Duration
	totalEnergy float64
	// componentSum and power cache the component sum and the total draw
	// (superlinear term included) between draw changes, so integration
	// segments neither re-sum the components nor re-apply the curve.
	componentSum float64
	power        float64
	cacheValid   bool

	// pendingDt batches the per-component ledger walk: component draws are
	// piecewise constant and change far less often than CPU shares, so
	// integrate only accumulates the elapsed seconds here and the
	// O(components) walk runs once per draw change (flushComponents)
	// instead of once per integration segment.
	pendingDt float64
}

// NewAccountant returns an accountant bound to k with no components.
func NewAccountant(k *sim.Kernel) *Accountant {
	return &Accountant{
		k:     k,
		comps: []slot{{name: superlinearComponent}},
		prins: []slot{{name: IdlePrincipal}},
		last:  k.Now(),
	}
}

// Register returns the handle for the named hardware component, creating
// its slot on first use. Registering draws nothing: the component counts
// toward Power and EnergyByComponent only once Set.
func (a *Accountant) Register(name string) ComponentID {
	if i := find(a.comps, name); i >= 0 {
		return ComponentID(i)
	}
	a.comps = append(a.comps, slot{name: name})
	return ComponentID(len(a.comps) - 1)
}

// find returns the index of the slot called name, or -1. A linear scan
// suffices: an accountant holds a handful of components and a run charges
// about a dozen principals.
func find(slots []slot, name string) int {
	for i := range slots {
		if slots[i].name == name {
			return i
		}
	}
	return -1
}

// Set updates the instantaneous draw of a hardware component, integrating
// energy up to the current instant first.
func (a *Accountant) Set(id ComponentID, watts float64) {
	c := &a.comps[id]
	if watts < 0 {
		//odylint:allow panicfree,hotalloc negative draw corrupts every downstream integral; invariant guard, formatted once as the run aborts
		panic(fmt.Sprintf("power: component %q set to negative power %g", c.name, watts))
	}
	//odylint:allow floateq exact no-op detection: an unchanged draw extends the current constant segment, it does not start a new one
	if c.drawn && c.watts == watts {
		return
	}
	a.integrate()
	a.flushComponents()
	if !c.drawn {
		c.drawn = true
		a.insertOrdered(id)
	}
	c.watts = watts
	a.cacheValid = false
}

// insertOrdered adds a newly drawn component to order, keeping it sorted
// by name.
func (a *Accountant) insertOrdered(id ComponentID) {
	i := len(a.order)
	for i > 0 && a.comps[a.order[i-1]].name > a.comps[id].name {
		i--
	}
	//odylint:allow hotalloc once per component: order grows by one entry the first time each is drawn
	a.order = append(a.order, 0)
	copy(a.order[i+1:], a.order[i:])
	a.order[i] = id
}

// SetSuperlinear installs f, which maps the component sum to total power,
// modelling the consistently superlinear draw the paper measured (+0.21 W
// at full-on idle on the ThinkPad 560X); nil makes total power the plain
// sum. f must be a pure function of the sum: its result is cached until
// the next draw change. Energy up to the current instant is integrated at
// the previous curve first.
func (a *Accountant) SetSuperlinear(f func(sum float64) float64) {
	a.integrate()
	a.flushComponents()
	a.superlinear = f
	a.cacheValid = false
}

// Component returns the current draw of the named component (0 if never
// set).
func (a *Accountant) Component(name string) float64 {
	if i := find(a.comps, name); i >= 0 {
		return a.comps[i].watts
	}
	return 0
}

// SetShares updates the CPU ownership snapshot used for software
// attribution. An empty slice means the idle principal is charged. A
// snapshot identical to the current one is a no-op: it neither starts a
// new integration segment nor copies the slice. A changed snapshot has its
// principals interned here, so integrate only indexes slots.
func (a *Accountant) SetShares(shares []sim.Share) {
	if sameShares(a.shares, shares) {
		return
	}
	a.integrate()
	// A principal that kept its position keeps its slot id, so only the
	// shares that moved are looked up. ids reuses old's array: entry i is
	// read before it is overwritten.
	old := a.shareIDs
	ids := old[:0]
	for i, s := range shares {
		var id int32
		if i < len(old) && a.shares[i].Principal == s.Principal {
			id = old[i]
		} else {
			id = a.principal(s.Principal)
		}
		//odylint:allow hotalloc retained buffer: grows only when a snapshot is longer than any before
		ids = append(ids, id)
	}
	a.shareIDs = ids
	//odylint:allow hotalloc retained buffer: grows only when a snapshot is longer than any before
	a.shares = append(a.shares[:0], shares...)
}

// principal returns the named principal's slot, interning it on first
// sight.
func (a *Accountant) principal(name string) int32 {
	if i := find(a.prins, name); i >= 0 {
		return int32(i)
	}
	//odylint:allow hotalloc once per principal: one slot per name for the accountant's lifetime
	a.prins = append(a.prins, slot{name: name})
	return int32(len(a.prins) - 1)
}

// sameShares reports whether two ownership snapshots are elementwise
// identical.
func sameShares(a, b []sim.Share) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		//odylint:allow floateq exact no-op detection: identical snapshots extend the current segment, tolerance would merge genuinely different splits
		if a[i].Principal != b[i].Principal || a[i].Fraction != b[i].Fraction {
			return false
		}
	}
	return true
}

// Power returns the current total draw including any superlinear term.
func (a *Accountant) Power() float64 {
	if !a.cacheValid {
		sum := 0.0
		for _, id := range a.order {
			sum += a.comps[id].watts
		}
		a.componentSum = sum
		a.power = sum
		if a.superlinear != nil {
			a.power = a.superlinear(sum)
		}
		a.cacheValid = true
	}
	return a.power
}

// integrate accrues energy for the segment since the last change. The
// per-component ledger walk is deferred: component draws are constant
// until the next Set, so the segment only contributes elapsed time to
// pendingDt and flushComponents books the whole constant-draw window at
// once.
func (a *Accountant) integrate() {
	now := a.k.Now()
	elapsed := now - a.last
	a.last = now
	// A zero-length segment books nothing, so it returns before the
	// duration's conversion to seconds.
	if elapsed <= 0 {
		return
	}
	dt := elapsed.Seconds()
	total := a.Power()
	a.totalEnergy += total * dt
	a.pendingDt += dt

	// Software attribution: the full system draw goes to whoever holds
	// the CPU, split by processor-sharing fraction. Shares change with
	// every job-set transition, so this stays per segment.
	if len(a.shares) == 0 {
		p := &a.prins[idleID]
		p.energy += total * dt
		p.booked = true
	} else {
		for i, s := range a.shares {
			p := &a.prins[a.shareIDs[i]]
			p.energy += total * dt * s.Fraction
			p.booked = true
		}
	}
	a.checkInvariants()
}

// flushComponents books the accumulated constant-draw window into the
// per-hardware-component ledger: each component at its own draw; any
// superlinear excess goes to a pseudo-component. It must run before a
// component draw changes and before the component ledger is read.
func (a *Accountant) flushComponents() {
	dt := a.pendingDt
	//odylint:allow floateq pendingDt is set to exactly 0 on flush; the guard detects "nothing accumulated", not numeric equality
	if dt == 0 {
		return
	}
	a.pendingDt = 0
	total := a.Power()
	sum := a.componentSum
	for _, id := range a.order {
		c := &a.comps[id]
		c.energy += c.watts * dt
		c.booked = true
	}
	if excess := total - sum; excess > 1e-12 {
		c := &a.comps[superlinearID]
		c.energy += excess * dt
		c.booked = true
	}
}

// checkInvariants runs the odysseydebug cross-checks (no-op in default
// builds; see debug_on.go / debug_off.go). Every segment is audited, and
// the audit counts the pending component window without flushing it, so a
// debug build books the same ledger bits as a default one.
func (a *Accountant) checkInvariants() {
	if debugAssertions {
		a.assertConsistent()
	}
}

// Sync forces integration up to the current instant so that the energy
// accessors reflect all elapsed time.
func (a *Accountant) Sync() {
	a.integrate()
	a.flushComponents()
}

// TotalEnergy returns joules consumed since construction (after Sync).
func (a *Accountant) TotalEnergy() float64 {
	a.integrate()
	return a.totalEnergy
}

// PrincipalEnergy returns the joules charged to one software principal so
// far (0 if it was never charged). It integrates exactly as
// EnergyByPrincipal does, without copying the ledger.
func (a *Accountant) PrincipalEnergy(name string) float64 {
	a.integrate()
	if i := find(a.prins, name); i >= 0 {
		return a.prins[i].energy
	}
	return 0
}

// EnergyByComponent returns a copy of the per-hardware-component integrals.
func (a *Accountant) EnergyByComponent() map[string]float64 {
	a.integrate()
	a.flushComponents()
	return ledgerMap(a.comps)
}

// EnergyByPrincipal returns a copy of the per-software-principal integrals.
func (a *Accountant) EnergyByPrincipal() map[string]float64 {
	a.integrate()
	return ledgerMap(a.prins)
}

// ledgerMap copies the booked slots into a name-keyed map.
func ledgerMap(slots []slot) map[string]float64 {
	//odylint:allow hotalloc accessor copy: callers take one per trial or run, never per segment
	out := make(map[string]float64, len(slots))
	for i := range slots {
		if slots[i].booked {
			out[slots[i].name] = slots[i].energy
		}
	}
	return out
}

// Principals returns the software principals charged so far, sorted by
// descending energy.
func (a *Accountant) Principals() []string {
	a.integrate()
	var ps []slot
	for _, p := range a.prins {
		if p.booked {
			ps = append(ps, p)
		}
	}
	sort.Slice(ps, func(i, j int) bool {
		ei, ej := ps[i].energy, ps[j].energy
		if ei > ej {
			return true
		}
		if ei < ej {
			return false
		}
		return ps[i].name < ps[j].name
	})
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.name
	}
	return names
}

// Shares returns the current CPU ownership snapshot (aliased; do not modify).
func (a *Accountant) Shares() []sim.Share { return a.shares }

// Checkpoint captures the total energy so intervals can be measured.
type Checkpoint struct {
	a  *Accountant
	at float64
}

// Checkpoint returns a marker for measuring energy over an interval.
func (a *Accountant) Checkpoint() Checkpoint {
	//odylint:allow hotalloc two-word value returned by copy; nothing escapes to the heap
	return Checkpoint{a: a, at: a.TotalEnergy()}
}

// Since returns joules consumed since the checkpoint was taken.
func (c Checkpoint) Since() float64 { return c.a.TotalEnergy() - c.at }
