package hw

import (
	"fmt"

	"odyssey/internal/power"
)

// NICState is a wireless-interface power state.
type NICState int

const (
	// NICOff: interface powered down.
	NICOff NICState = iota
	// NICStandby: doze mode — the modified communication package keeps
	// the interface here except during RPCs and bulk transfers.
	NICStandby
	// NICIdle: receiver on, no traffic.
	NICIdle
	// NICTransfer: transmitting or receiving.
	NICTransfer
)

// String returns the state name.
func (s NICState) String() string {
	switch s {
	case NICOff:
		return "off"
	case NICStandby:
		return "standby"
	case NICIdle:
		return "idle"
	case NICTransfer:
		return "transfer"
	default:
		return fmt.Sprintf("NICState(%d)", int(s))
	}
}

// NIC models the WaveLAN wireless interface. State transitions are driven
// by the network layer (see internal/netsim); the NIC only tracks state and
// publishes power.
type NIC struct {
	acct  *power.Accountant
	comp  power.ComponentID
	prof  Profile
	state NICState
}

// NewNIC returns an idle (receiver-on) interface.
func NewNIC(acct *power.Accountant, prof Profile) *NIC {
	n := &NIC{acct: acct, comp: acct.Register(CompNetwork), prof: prof, state: NICIdle}
	n.publish()
	return n
}

// State returns the current interface state.
func (n *NIC) State() NICState { return n.state }

func (n *NIC) power() float64 {
	switch n.state {
	case NICTransfer:
		return n.prof.NICTransfer
	case NICIdle:
		return n.prof.NICIdle
	case NICStandby:
		return n.prof.NICStandby
	default:
		return n.prof.NICOff
	}
}

func (n *NIC) publish() { n.acct.Set(n.comp, n.power()) }

// SetState moves the interface to s.
func (n *NIC) SetState(s NICState) {
	if n.state == s {
		return
	}
	n.state = s
	n.publish()
}
