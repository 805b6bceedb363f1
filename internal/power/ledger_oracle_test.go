package power

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"odyssey/internal/sim"
)

// refAccountant is the map-keyed accountant that the slot ledgers replaced,
// kept as the oracle: string-keyed component and principal maps, a sorted
// name list, an uncached Power and the same batched component flush.
type refAccountant struct {
	k *sim.Kernel

	components  map[string]float64
	order       []string
	shares      []sim.Share
	Superlinear func(sum float64) float64

	last           time.Duration
	totalEnergy    float64
	byComponent    map[string]float64
	byPrincipal    map[string]float64
	componentCache float64
	cacheValid     bool
	pendingDt      float64
}

func newRefAccountant(k *sim.Kernel) *refAccountant {
	return &refAccountant{
		k:           k,
		components:  make(map[string]float64),
		byComponent: make(map[string]float64),
		byPrincipal: make(map[string]float64),
		last:        k.Now(),
	}
}

func (a *refAccountant) SetComponent(name string, watts float64) {
	cur, known := a.components[name]
	if known && cur == watts {
		return
	}
	a.integrate()
	a.flushComponents()
	if !known {
		i := sort.SearchStrings(a.order, name)
		a.order = slices.Insert(a.order, i, name)
	}
	a.components[name] = watts
	a.cacheValid = false
}

// SetSuperlinear books the energy so far at the old curve, as Set books it
// at the old draw, then switches curves.
func (a *refAccountant) SetSuperlinear(f func(sum float64) float64) {
	a.integrate()
	a.flushComponents()
	a.Superlinear = f
}

func (a *refAccountant) SetShares(shares []sim.Share) {
	if sameShares(a.shares, shares) {
		return
	}
	a.integrate()
	a.shares = append(a.shares[:0], shares...)
}

func (a *refAccountant) Power() float64 {
	if !a.cacheValid {
		sum := 0.0
		for _, name := range a.order {
			sum += a.components[name]
		}
		a.componentCache = sum
		a.cacheValid = true
	}
	if a.Superlinear != nil {
		return a.Superlinear(a.componentCache)
	}
	return a.componentCache
}

func (a *refAccountant) integrate() {
	now := a.k.Now()
	dt := (now - a.last).Seconds()
	a.last = now
	if dt <= 0 {
		return
	}
	total := a.Power()
	a.totalEnergy += total * dt
	a.pendingDt += dt
	if len(a.shares) == 0 {
		a.byPrincipal[IdlePrincipal] += total * dt
	} else {
		for _, s := range a.shares {
			a.byPrincipal[s.Principal] += total * dt * s.Fraction
		}
	}
}

func (a *refAccountant) flushComponents() {
	dt := a.pendingDt
	if dt == 0 {
		return
	}
	a.pendingDt = 0
	total := a.Power()
	sum := a.componentCache
	for _, name := range a.order {
		a.byComponent[name] += a.components[name] * dt
	}
	if excess := total - sum; excess > 1e-12 {
		a.byComponent["superlinear"] += excess * dt
	}
}

func (a *refAccountant) Sync() {
	a.integrate()
	a.flushComponents()
}

func (a *refAccountant) TotalEnergy() float64 {
	a.integrate()
	return a.totalEnergy
}

func (a *refAccountant) EnergyByComponent() map[string]float64 {
	a.integrate()
	a.flushComponents()
	return copyLedger(a.byComponent)
}

func (a *refAccountant) EnergyByPrincipal() map[string]float64 {
	a.integrate()
	return copyLedger(a.byPrincipal)
}

func (a *refAccountant) Principals() []string {
	a.integrate()
	names := make([]string, 0, len(a.byPrincipal))
	for n := range a.byPrincipal {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		ei, ej := a.byPrincipal[names[i]], a.byPrincipal[names[j]]
		if ei > ej {
			return true
		}
		if ei < ej {
			return false
		}
		return names[i] < names[j]
	})
	return names
}

func copyLedger(m map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// pair drives an Accountant and its map-keyed oracle through the same
// calls on one kernel and fails on the first ledger that differs in any
// bit or in its key set.
type pair struct {
	t   *testing.T
	k   *sim.Kernel
	a   *Accountant
	ref *refAccountant
}

func newPair(t *testing.T, superlinear func(float64) float64) *pair {
	k := sim.NewKernel(1)
	p := &pair{t: t, k: k, a: NewAccountant(k), ref: newRefAccountant(k)}
	p.a.SetSuperlinear(superlinear)
	p.ref.SetSuperlinear(superlinear)
	return p
}

func (p *pair) set(name string, watts float64) {
	p.a.Set(p.a.Register(name), watts)
	p.ref.SetComponent(name, watts)
}

func (p *pair) shares(s []sim.Share) {
	p.a.SetShares(s)
	p.ref.SetShares(s)
}

// advance moves the shared clock forward by d (0 stays at this instant).
func (p *pair) advance(d time.Duration) {
	p.k.At(p.k.Now()+d, func() {})
	p.k.Run(0)
}

func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

func (p *pair) float(what string, got, want float64) {
	p.t.Helper()
	if !sameBits(got, want) {
		p.t.Fatalf("t=%v %s: got %v (%#x), oracle %v (%#x)",
			p.k.Now(), what, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

func (p *pair) ledger(what string, got, want map[string]float64) {
	p.t.Helper()
	if len(got) != len(want) {
		p.t.Fatalf("t=%v %s: keys %v, oracle %v", p.k.Now(), what, sortedKeys(got), sortedKeys(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			p.t.Fatalf("t=%v %s: missing key %q (oracle %v)", p.k.Now(), what, name, w)
		}
		p.float(what+"["+name+"]", g, w)
	}
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// checkAll compares every accessor, in an order both sides share.
func (p *pair) checkAll(names []string) {
	p.t.Helper()
	p.float("TotalEnergy", p.a.TotalEnergy(), p.ref.TotalEnergy())
	p.float("Power", p.a.Power(), p.ref.Power())
	for _, n := range names {
		p.float("PrincipalEnergy("+n+")", p.a.PrincipalEnergy(n), p.ref.EnergyByPrincipal()[n])
	}
	byC, refC := p.a.EnergyByComponent(), p.ref.EnergyByComponent()
	p.ledger("EnergyByComponent", byC, refC)
	byP, refP := p.a.EnergyByPrincipal(), p.ref.EnergyByPrincipal()
	p.ledger("EnergyByPrincipal", byP, refP)
	if got, want := p.a.Principals(), p.ref.Principals(); !slices.Equal(got, want) {
		p.t.Fatalf("t=%v Principals: %v, oracle %v", p.k.Now(), got, want)
	}
	// The odysseydebug assertion sums slots by name; it must see exactly
	// the sums ConservationCheck computes from the maps.
	p.float("sumByName(components)", sumByName(p.a.comps), sumSorted(refC))
	p.float("sumByName(principals)", sumByName(p.a.prins), sumSorted(refP))
}

var (
	oracleComponents = []string{"cpu", "display", "disk", "network", "other", "smartbattery", "load"}
	oraclePrincipals = []string{IdlePrincipal, "xanim", "X", "odyssey", "wavelan", "janus", "net-retry"}
	oracleSteps      = []time.Duration{0, 0, 1, time.Millisecond, 37 * time.Millisecond, 250 * time.Millisecond, 1300 * time.Millisecond}
	oracleWatts      = []float64{0, 0.24, 0.88, 1.54, 3.2, 4.46}
	oracleCurves     = []func(float64) float64{
		nil,
		func(sum float64) float64 { return sum*1.02 + 0.21 },
		func(sum float64) float64 { return sum + 5e-13 },       // never past the threshold
		func(sum float64) float64 { return sum + sum*1.5e-13 }, // past it only above ~6.7 W
	}
)

// TestLedgerMatchesMapOracle drives the slot-indexed accountant and the
// map-keyed oracle through seeded random sequences of draw changes
// (repeats included), share snapshots (repeats, idle and duplicate
// principals included), time advances (zero-length segments included),
// occasional superlinear-curve switches and interleaved accessor calls,
// and requires every float64 to be equal bit for bit and every key set to
// match.
func TestLedgerMatchesMapOracle(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := newPair(t, oracleCurves[seed%int64(len(oracleCurves))])
		p.a.Register("never-set")
		queries := append([]string{"ghost"}, oraclePrincipals...)
		for op := 0; op < 300; op++ {
			switch r := rng.Intn(40); {
			case r == 0:
				f := oracleCurves[rng.Intn(len(oracleCurves))]
				p.a.SetSuperlinear(f)
				p.ref.SetSuperlinear(f)
			case r < 12:
				name := oracleComponents[rng.Intn(len(oracleComponents))]
				w := oracleWatts[rng.Intn(len(oracleWatts))]
				if rng.Intn(4) == 0 {
					w = p.ref.components[name] // an unchanged draw
				} else if rng.Intn(4) == 0 {
					w = rng.Float64() * 5
				}
				p.set(name, w)
			case r < 24:
				p.shares(randomSnapshot(rng, p.ref.shares))
			case r < 34:
				p.advance(oracleSteps[rng.Intn(len(oracleSteps))])
			default:
				p.query(rng, queries)
			}
		}
		p.advance(time.Second)
		p.checkAll(queries)
	}
}

// randomSnapshot returns a CPU ownership snapshot: a copy of cur, idle, or
// one to four shares (principals may repeat) with equal or random splits
// summing to 1, as a processor-sharing resource reports them.
func randomSnapshot(rng *rand.Rand, cur []sim.Share) []sim.Share {
	switch rng.Intn(7) {
	case 0:
		return append([]sim.Share(nil), cur...)
	case 1:
		return nil
	}
	n := 1 + rng.Intn(4)
	s := make([]sim.Share, n)
	equal := rng.Intn(2) == 0
	sum := 0.0
	for i := range s {
		s[i].Principal = oraclePrincipals[rng.Intn(len(oraclePrincipals))]
		s[i].Fraction = 1 / float64(n)
		if !equal {
			s[i].Fraction = rng.Float64() + 0.01
		}
		sum += s[i].Fraction
	}
	if !equal {
		for i := range s {
			s[i].Fraction /= sum
		}
	}
	return s
}

// query calls one accessor on both sides and compares the result.
func (p *pair) query(rng *rand.Rand, names []string) {
	p.t.Helper()
	switch rng.Intn(8) {
	case 0:
		p.float("TotalEnergy", p.a.TotalEnergy(), p.ref.TotalEnergy())
	case 1:
		p.float("Power", p.a.Power(), p.ref.Power())
	case 2:
		n := names[rng.Intn(len(names))]
		p.float("PrincipalEnergy("+n+")", p.a.PrincipalEnergy(n), p.ref.EnergyByPrincipal()[n])
	case 3:
		p.ledger("EnergyByComponent", p.a.EnergyByComponent(), p.ref.EnergyByComponent())
	case 4:
		p.ledger("EnergyByPrincipal", p.a.EnergyByPrincipal(), p.ref.EnergyByPrincipal())
	case 5:
		if got, want := p.a.Principals(), p.ref.Principals(); !slices.Equal(got, want) {
			p.t.Fatalf("t=%v Principals: %v, oracle %v", p.k.Now(), got, want)
		}
	case 6:
		n := oracleComponents[rng.Intn(len(oracleComponents))]
		p.float("Component("+n+")", p.a.Component(n), p.ref.components[n])
	default:
		p.a.Sync()
		p.ref.Sync()
	}
}

// TestLedgerKeySets pins the key-set rules the fleet fingerprint and the
// determinism traces print one line per key for.
func TestLedgerKeySets(t *testing.T) {
	t.Run("principal charged only in zero-length segments is absent", func(t *testing.T) {
		p := newPair(t, nil)
		p.set("cpu", 2)
		p.shares([]sim.Share{{Principal: "ghost", Fraction: 1}})
		p.shares([]sim.Share{{Principal: "real", Fraction: 1}})
		p.advance(time.Second)
		p.shares([]sim.Share{{Principal: "ghost", Fraction: 1}})
		p.shares(nil)
		p.advance(time.Second)
		p.checkAll([]string{"ghost", "real"})
		if _, ok := p.a.EnergyByPrincipal()["ghost"]; ok {
			t.Fatal("principal seen only in zero-length segments has a ledger entry")
		}
		// Both drew 2 J, so the name breaks the tie.
		if got := p.a.Principals(); !slices.Equal(got, []string{IdlePrincipal, "real"}) {
			t.Fatalf("Principals = %v, want [Idle real]", got)
		}
	})
	t.Run("component registered but never set is absent", func(t *testing.T) {
		p := newPair(t, nil)
		p.a.Register("never-set")
		p.set("cpu", 2)
		p.advance(time.Second)
		p.checkAll(nil)
		if _, ok := p.a.EnergyByComponent()["never-set"]; ok {
			t.Fatal("registered, never-set component has a ledger entry")
		}
	})
	t.Run("component set at zero watts is present", func(t *testing.T) {
		p := newPair(t, nil)
		p.set("cpu", 0)
		p.advance(time.Second)
		p.checkAll(nil)
		if e, ok := p.a.EnergyByComponent()["cpu"]; !ok || e != 0 {
			t.Fatalf("zero-draw component: energy %v present %v, want 0 present", e, ok)
		}
	})
	for _, tc := range []struct {
		name   string
		excess float64
		want   bool
	}{
		{"superlinear below 1e-12 W is absent", 5e-13, false},
		{"superlinear past 1e-12 W is present", 4e-12, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newPair(t, func(sum float64) float64 { return sum + tc.excess })
			p.set("display", 4.46)
			p.advance(time.Second)
			p.checkAll(nil)
			if _, ok := p.a.EnergyByComponent()["superlinear"]; ok != tc.want {
				t.Fatalf("superlinear present = %v, want %v", ok, tc.want)
			}
		})
	}
}

// TestLedgerDuplicatePrincipalAddsInSnapshotOrder: two shares naming one
// principal add to its ledger in snapshot order, the sequence the map
// oracle performs. The values are chosen so the opposite order rounds
// differently.
func TestLedgerDuplicatePrincipalAddsInSnapshotOrder(t *testing.T) {
	// Variables, not constants: constant arithmetic is exact, not float64.
	w, first, second := 3.7, 0.61, 0.13
	p := newPair(t, nil)
	p.set("cpu", w)
	p.shares([]sim.Share{{Principal: "app", Fraction: 1}})
	p.advance(time.Second)
	p.shares([]sim.Share{{Principal: "app", Fraction: first}, {Principal: "X", Fraction: 1 - first - second}, {Principal: "app", Fraction: second}})
	p.advance(3 * time.Second)
	p.checkAll([]string{"app", "X"})

	base := w * 1.0
	inOrder := base + w*3.0*first + w*3.0*second
	reversed := base + w*3.0*second + w*3.0*first
	if sameBits(inOrder, reversed) {
		t.Fatal("test values are not order-sensitive; pick others")
	}
	if got := p.a.PrincipalEnergy("app"); !sameBits(got, inOrder) {
		t.Fatalf("app energy %v, want snapshot-order sum %v (reversed order gives %v)", got, inOrder, reversed)
	}
}
