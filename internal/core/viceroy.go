package core

import (
	"fmt"
	"sort"
	"time"

	"odyssey/internal/sim"
)

// Viceroy is the Odyssey component responsible for monitoring resource
// availability and managing its use. It hosts the generic resource
// expectation API (the original Odyssey bandwidth adaptation) plus the
// warden and application registries; the energy-specific machinery lives in
// EnergyMonitor, which drives adaptation through the same registrations.
type Viceroy struct {
	k *sim.Kernel

	apps    []*Registration
	order   []*Registration // apps by priority; see byPriority
	wardens map[string]Warden

	resources map[string]*resource

	deliverer UpcallDeliverer
}

// UpcallDeliverer intercepts viceroy-to-application fidelity upcalls. The
// supervision plane (internal/supervise) installs one to wrap each in a
// virtual-clock watchdog; with no deliverer installed, upcalls go straight
// to the application exactly as they always have. Resource-expectation
// upcalls always go straight to the application.
type UpcallDeliverer interface {
	// DeliverSetLevel delivers the fidelity upcall r.App.SetLevel(level).
	DeliverSetLevel(r *Registration, level int)
}

// SetDeliverer installs (or, with nil, removes) the upcall deliverer.
func (v *Viceroy) SetDeliverer(d UpcallDeliverer) { v.deliverer = d }

// deliverSetLevel routes a fidelity upcall through the deliverer when one is
// installed, and directly to the application otherwise.
func (v *Viceroy) deliverSetLevel(r *Registration, level int) {
	if v.deliverer != nil {
		v.deliverer.DeliverSetLevel(r, level)
		return
	}
	r.App.SetLevel(level)
}

// resource is a named, scalar resource level with registered expectations.
type resource struct {
	name  string
	avail float64
	exps  []*Expectation
}

// Expectation is a window registered by an application on a resource; when
// availability strays outside [Low, High], Odyssey notifies the application
// through the Upcall, per the original API.
type Expectation struct {
	Resource string
	Low      float64
	High     float64
	Upcall   func(avail float64)

	active bool
	// cancelled distinguishes an application's Cancel from consumption by
	// the notify-once protocol: UpdateResource clears active itself when
	// it schedules delivery, so the fire path cannot use active to honor
	// a Cancel issued between scheduling and delivery.
	cancelled bool
}

// Cancel deregisters the expectation. A cancelled expectation never fires,
// even if notification was already scheduled.
func (e *Expectation) Cancel() {
	e.active = false
	e.cancelled = true
}

// NewViceroy returns an empty viceroy on k.
func NewViceroy(k *sim.Kernel) *Viceroy {
	return &Viceroy{
		k:         k,
		wardens:   make(map[string]Warden),
		resources: make(map[string]*resource),
	}
}

// RegisterWarden installs a type-specific warden. Installing a second
// warden for the same type is an error, as in the real system where there
// is exactly one warden per data type.
func (v *Viceroy) RegisterWarden(w Warden) error {
	if _, dup := v.wardens[w.TypeName()]; dup {
		return fmt.Errorf("core: warden for type %q already registered", w.TypeName())
	}
	v.wardens[w.TypeName()] = w
	return nil
}

// Warden returns the warden for a data type, or nil.
func (v *Viceroy) Warden(typeName string) Warden { return v.wardens[typeName] }

// Wardens lists registered warden type names, sorted.
func (v *Viceroy) Wardens() []string {
	names := make([]string, 0, len(v.wardens))
	for n := range v.wardens {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// RegisterApp places an adaptive application under viceroy control with the
// given static priority (higher values degrade later) and returns its
// registration.
func (v *Viceroy) RegisterApp(app Adaptive, priority int) *Registration {
	r := &Registration{App: app, Priority: priority, levels: len(app.Levels())}
	v.apps = append(v.apps, r)
	return r
}

// Apps returns the registrations in registration order.
func (v *Viceroy) Apps() []*Registration { return v.apps }

// byPriority returns registrations sorted ascending by priority (ties in
// registration order) — the degradation order. The order is cached and
// sorted again only after a registration or a priority change; callers
// must not modify the returned slice.
func (v *Viceroy) byPriority() []*Registration {
	if len(v.order) == len(v.apps) && !v.priorityChanged() {
		return v.order
	}
	// A fresh slice, so a caller still ranging over the old order is
	// unaffected.
	out := append([]*Registration(nil), v.apps...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Priority < out[j].Priority })
	for _, r := range out {
		r.sortedPriority = r.Priority
	}
	v.order = out
	return out
}

// priorityChanged reports whether any registration's priority moved since
// the cached order was sorted.
func (v *Viceroy) priorityChanged() bool {
	for _, r := range v.order {
		if r.Priority != r.sortedPriority {
			return true
		}
	}
	return false
}

// DeclareResource creates a named resource with the given initial
// availability. Re-declaring an existing resource is an availability change
// like any other: it routes through UpdateResource so expectations whose
// windows no longer contain the new level are notified rather than silently
// missing the transition.
func (v *Viceroy) DeclareResource(name string, avail float64) {
	if _, ok := v.resources[name]; ok {
		v.UpdateResource(name, avail)
		return
	}
	v.resources[name] = &resource{name: name, avail: avail}
}

// Availability reports the current level of a resource (0 if undeclared).
func (v *Viceroy) Availability(name string) float64 {
	if r, ok := v.resources[name]; ok {
		return r.avail
	}
	return 0
}

// Request registers an expectation window on a resource. If the current
// availability is already outside the window, the upcall fires immediately
// (scheduled as an event, not synchronously). It returns the expectation
// for cancellation.
func (v *Viceroy) Request(resourceName string, low, high float64, upcall func(avail float64)) (*Expectation, error) {
	r, ok := v.resources[resourceName]
	if !ok {
		return nil, fmt.Errorf("core: resource %q not declared", resourceName)
	}
	e := &Expectation{Resource: resourceName, Low: low, High: high, Upcall: upcall, active: true}
	r.exps = append(r.exps, e)
	if r.avail < low || r.avail > high {
		avail := r.avail
		v.k.After(0, func() {
			if e.active && !e.cancelled {
				e.Upcall(avail)
			}
		})
	}
	return e, nil
}

// UpdateResource changes a resource's availability, issuing upcalls to every
// expectation whose window no longer contains it. Notified expectations are
// deregistered (the application re-registers with its new window, per the
// Odyssey API).
func (v *Viceroy) UpdateResource(name string, avail float64) {
	r, ok := v.resources[name]
	if !ok {
		return
	}
	r.avail = avail
	keep := r.exps[:0]
	var fire []*Expectation
	for _, e := range r.exps {
		if !e.active {
			continue
		}
		if avail < e.Low || avail > e.High {
			e.active = false
			fire = append(fire, e)
			continue
		}
		keep = append(keep, e)
	}
	for i := len(keep); i < len(r.exps); i++ {
		r.exps[i] = nil
	}
	r.exps = keep
	for _, e := range fire {
		e := e
		v.k.After(0, func() {
			if e.cancelled {
				return
			}
			e.Upcall(avail)
		})
	}
}

// MonitorResource declares the resource at the sampler's current value and
// returns a stopped ticker that, once started, republishes the sampled value
// every period, driving expectation upcalls. This is how the viceroy
// monitors resources it does not receive explicit updates for (network
// bandwidth in the original Odyssey).
func (v *Viceroy) MonitorResource(name string, period time.Duration, sample func() float64) *sim.Ticker {
	t := v.k.Every(period, func() { v.UpdateResource(name, sample()) })
	v.DeclareResource(name, sample())
	return t
}
