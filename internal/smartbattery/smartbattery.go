// Package smartbattery models the measurement path the paper proposes for
// deployed systems (Section 5.1.1): instead of an external multimeter and
// data-collection computer, the mobile computer reads its own battery
// through the SmartBattery interface being standardized under ACPI.
//
// Compared to the multimeter, a SmartBattery:
//
//   - reports quantized current (typically ~10 mA steps) and residual
//     capacity (~10 mWh steps),
//   - refreshes readings at a bounded rate (a few Hz rather than 600 Hz),
//   - costs a small measurement overhead (< 10 mW per the DS2437 and
//     ACPITroller parts the paper cites), and
//   - exposes residual capacity directly, so Odyssey no longer needs to be
//     told the initial energy value.
//
// The package provides a Battery (charge state plus quantized readout) and
// a Reader that adapts it to the energy monitor's sampling loop, so the
// goal-directed engine can be driven from either measurement path. The
// comparison experiment lives in internal/experiment.
package smartbattery

import (
	"math"
	"time"

	"odyssey/internal/power"
	"odyssey/internal/sim"
)

// The SmartBattery part the paper cites: a DS2437-class monitor on a
// 560X-class pack.
const (
	// voltage is the pack's nominal (well-controlled) voltage.
	voltage = 16.0
	// currentQuantum is the current-reading resolution in amperes (10 mA).
	currentQuantum = 0.010
	// capacityQuantum is the residual-capacity resolution in joules
	// (10 mWh).
	capacityQuantum = 36.0
	// refreshPeriod bounds how often readings change.
	refreshPeriod = 250 * time.Millisecond
	// measureOverheadWatts is the power cost of the monitoring circuit
	// while polling is enabled (< 0.010 W for the parts the paper cites).
	measureOverheadWatts = 0.008
	// ratedCurrent is the discharge rate at which capacity is nominal.
	ratedCurrent = 0.65
)

// Battery is a finite energy store drained by the machine's accountant,
// read through a quantized, rate-limited SmartBattery interface.
type Battery struct {
	k    *sim.Kernel
	acct *power.Accountant
	comp power.ComponentID // the measurement overhead's ledger slot

	// peukert models rate-dependent capacity: effective drain is
	// (I/I_rated)^(k-1) * I. At or below 1 the effect is off — the ideal
	// source the paper obtained by removing the battery and using a bench
	// supply. Typical Li-ion packs are 1.01-1.10.
	peukert float64

	initial float64 // joules
	drained float64 // joules removed from the pack (after Peukert effect)

	lastAcct    float64       // accountant total at last sync
	lastSync    time.Duration // time of last sync
	lastPower   float64       // average power over the last sync interval
	lastRefresh time.Duration
	cacheValid  bool
	cacheI      float64
	cacheCap    float64

	polling bool
	dropout bool
}

// New attaches a battery holding initialJoules, with Peukert exponent
// peukert, to the machine measured by acct. The battery drains at the
// accountant's power (plus measurement overhead while polling, plus any
// Peukert losses).
func New(k *sim.Kernel, acct *power.Accountant, peukert, initialJoules float64) *Battery {
	return &Battery{
		k:        k,
		acct:     acct,
		comp:     acct.Register("smartbattery"),
		peukert:  peukert,
		initial:  initialJoules,
		lastAcct: acct.TotalEnergy(),
		lastSync: k.Now(),
	}
}

// SetPolling enables or disables the monitoring circuit. While enabled, the
// measurement overhead is billed to a dedicated accountant component, as
// the paper's overhead discussion anticipates.
func (b *Battery) SetPolling(on bool) {
	b.sync()
	b.polling = on
	if on {
		b.acct.Set(b.comp, measureOverheadWatts)
	} else {
		b.acct.Set(b.comp, 0)
	}
}

// sync advances the drain integral to the present.
func (b *Battery) sync() {
	now := b.k.Now()
	elapsed := now - b.lastSync
	total := b.acct.TotalEnergy()
	drawn := total - b.lastAcct
	b.lastAcct = total
	b.lastSync = now
	if elapsed <= 0 {
		return
	}
	dt := elapsed.Seconds()
	avgPower := drawn / dt
	b.lastPower = avgPower
	b.drained += b.effectiveDrain(avgPower) * dt
}

// effectiveDrain maps the electrical load to charge actually removed,
// applying the Peukert rate effect when configured.
func (b *Battery) effectiveDrain(watts float64) float64 {
	k := b.peukert
	if k <= 1.0 {
		return watts
	}
	i := watts / voltage
	x := i / ratedCurrent
	if 0 <= x && x <= 1 {
		// At or below the rated current the pack is at least nominal, so
		// no extra capacity is credited. The scale x^(k-1) is at most 1
		// there and clamps to 1, and watts*1 is watts, so the power is not
		// taken at all (TestEffectiveDrainMatchesPow).
		return watts
	}
	scale := power.Pow(x, k-1)
	if scale < 1 {
		scale = 1
	}
	return watts * scale
}

// SetDropout simulates a monitoring-bus fault (SMBus glitch, controller
// reset): while on, Current reads 0 and RemainingCapacity returns the last
// reading taken before the dropout. The physical pack keeps draining.
func (b *Battery) SetDropout(on bool) {
	if on && !b.dropout {
		// Capture a final good reading so the stale cache is coherent.
		b.refresh()
	}
	b.dropout = on
}

// Dropout reports whether the readout path is currently faulted.
func (b *Battery) Dropout() bool { return b.dropout }

// refresh updates the cached readout if the refresh period has elapsed.
func (b *Battery) refresh() {
	b.sync()
	if b.dropout {
		return
	}
	now := b.k.Now()
	// An explicit flag, not a cacheCap==0 sentinel: a fully drained pack
	// reads exactly 0 and must still be rate-limited.
	if b.cacheValid && now-b.lastRefresh < refreshPeriod {
		return
	}
	b.cacheValid = true
	b.lastRefresh = now

	b.cacheI = math.Round(b.lastPower/voltage/currentQuantum) * currentQuantum

	c := b.initial - b.drained
	if c < 0 {
		c = 0
	}
	b.cacheCap = math.Floor(c/capacityQuantum) * capacityQuantum
}

// Current returns the quantized, rate-limited current reading in amperes.
// During a readout dropout it reads 0, which sampling loops treat as a
// missed sample.
func (b *Battery) Current() float64 {
	b.refresh()
	if b.dropout {
		return 0
	}
	return b.cacheI
}

// Power returns the quantized power reading in watts (current x voltage).
func (b *Battery) Power() float64 {
	return b.Current() * voltage
}

// RemainingCapacity returns the quantized residual energy in joules — the
// reading Odyssey would use instead of tracking an initial value itself.
func (b *Battery) RemainingCapacity() float64 {
	b.refresh()
	return b.cacheCap
}

// TrueResidual returns the exact residual (for tests and comparisons).
func (b *Battery) TrueResidual() float64 {
	b.sync()
	r := b.initial - b.drained
	if r < 0 {
		return 0
	}
	return r
}

// Depleted reports whether the pack is empty.
func (b *Battery) Depleted() bool { return b.TrueResidual() <= 0 }

// Initial returns the design capacity in joules.
func (b *Battery) Initial() float64 { return b.initial }
