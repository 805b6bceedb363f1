package hw

import (
	"fmt"
	"time"

	"odyssey/internal/power"
	"odyssey/internal/sim"
)

// DiskState is a disk power state.
type DiskState int

const (
	// DiskOff: powered down entirely.
	DiskOff DiskState = iota
	// DiskStandby: spun down, motor off.
	DiskStandby
	// DiskIdle: spinning but not transferring.
	DiskIdle
	// DiskActive: seeking or transferring.
	DiskActive
)

// String returns the state name.
func (s DiskState) String() string {
	switch s {
	case DiskOff:
		return "off"
	case DiskStandby:
		return "standby"
	case DiskIdle:
		return "idle"
	case DiskActive:
		return "active"
	default:
		return fmt.Sprintf("DiskState(%d)", int(s))
	}
}

// Disk models the laptop drive. With power management enabled it drops to
// standby after the spin-down timeout (10 s of inactivity in the paper) and
// pays a spin-up delay on the next access.
type Disk struct {
	k    *sim.Kernel
	acct *power.Accountant
	comp power.ComponentID
	prof Profile

	state     DiskState
	powerMgmt bool
	spinDown  sim.Event

	spinUps int
}

// NewDisk returns a spinning (idle) disk without power management.
func NewDisk(k *sim.Kernel, acct *power.Accountant, prof Profile) *Disk {
	d := &Disk{k: k, acct: acct, comp: acct.Register(CompDisk), prof: prof, state: DiskIdle}
	d.publish()
	return d
}

// State returns the current disk state.
func (d *Disk) State() DiskState { return d.state }

// SpinUps reports how many standby-to-active transitions have occurred.
func (d *Disk) SpinUps() int { return d.spinUps }

func (d *Disk) power() float64 {
	switch d.state {
	case DiskActive:
		return d.prof.DiskActive
	case DiskIdle:
		return d.prof.DiskIdle
	case DiskStandby:
		return d.prof.DiskStandby
	default:
		return d.prof.DiskOff
	}
}

func (d *Disk) publish() { d.acct.Set(d.comp, d.power()) }

func (d *Disk) setState(s DiskState) {
	if d.state == s {
		return
	}
	d.state = s
	d.publish()
}

// SetPowerManagement enables or disables the spin-down policy. Enabling arms
// the inactivity timer immediately; disabling spins an idle-or-standby disk
// back to idle (the BIOS-managed always-on behaviour of the baseline runs).
func (d *Disk) SetPowerManagement(on bool) {
	d.powerMgmt = on
	if on {
		if d.state == DiskIdle {
			d.armSpinDown()
		}
	} else {
		d.cancelSpinDown()
		if d.state == DiskStandby {
			d.setState(DiskIdle)
		}
	}
}

// ForceStandby drops the disk straight to standby (used to start experiments
// with the disk already spun down, as in the paper's managed runs).
func (d *Disk) ForceStandby() {
	d.cancelSpinDown()
	if d.state == DiskIdle || d.state == DiskActive {
		d.setState(DiskStandby)
	}
}

func (d *Disk) armSpinDown() {
	d.cancelSpinDown()
	d.spinDown = d.k.After(d.prof.DiskSpinDown, func() {
		d.spinDown = sim.Event{}
		if d.powerMgmt && d.state == DiskIdle {
			d.setState(DiskStandby)
		}
	})
}

func (d *Disk) cancelSpinDown() {
	d.spinDown.Cancel()
	d.spinDown = sim.Event{}
}

// Access performs a disk operation lasting busy of virtual time, paying a
// spin-up delay first if the disk is in standby. The calling process blocks
// for the whole operation.
func (d *Disk) Access(p *sim.Proc, busy time.Duration) {
	d.cancelSpinDown()
	if d.state == DiskStandby || d.state == DiskOff {
		d.spinUps++
		d.setState(DiskActive)
		p.Sleep(d.prof.DiskSpinUp)
	} else {
		d.setState(DiskActive)
	}
	if busy > 0 {
		p.Sleep(busy)
	}
	d.setState(DiskIdle)
	if d.powerMgmt {
		d.armSpinDown()
	}
}
