package hw

import (
	"odyssey/internal/power"
	"odyssey/internal/sim"
)

// Machine assembles the profiled mobile computer: devices wired to a power
// accountant, with the profile's superlinear correction and baseline
// ("other") draw applied. Experiments construct one Machine per trial.
type Machine struct {
	K       *sim.Kernel
	Prof    Profile
	Acct    *power.Accountant
	CPU     *CPU
	Display *Display
	Disk    *Disk
	NIC     *NIC
}

// NewMachine builds a machine on k with the given profile and display zone
// count (1 for a conventional panel). The initial state matches the paper's
// baseline runs: display bright, disk spinning, NIC receiver on, CPU halted,
// no power management.
func NewMachine(k *sim.Kernel, prof Profile, displayZones int) *Machine {
	acct := power.NewAccountant(k)
	acct.SetSuperlinear(prof.Superlinear)
	acct.Set(acct.Register(CompOther), prof.Other)
	m := &Machine{
		K:       k,
		Prof:    prof,
		Acct:    acct,
		CPU:     NewCPU(k, acct, prof),
		Display: NewDisplay(acct, prof, displayZones),
		Disk:    NewDisk(k, acct, prof),
		NIC:     NewNIC(acct, prof),
	}
	return m
}

// EnablePowerManagement turns on the hardware power-management policies the
// paper's "Hardware-Only Power Mgmt." bars use: disk spin-down (starting in
// standby) and NIC standby outside communication windows. The display policy
// is per-application, so it is not set here.
func (m *Machine) EnablePowerManagement() {
	m.Disk.SetPowerManagement(true)
	m.Disk.ForceStandby()
	m.NIC.SetState(NICStandby)
}

// Power returns the current total system draw in watts.
func (m *Machine) Power() float64 { return m.Acct.Power() }
