package pipeline

import (
	"fmt"

	"microscope/sim/isa"
)

// Port identifies an execution port. Ports are shared between the SMT
// contexts of a core — the sharing is what creates the port-contention
// side channel the paper's main result denoises (§4.3, PortSmash-style).
type Port int

// Execution ports.
const (
	PortALU0 Port = iota // integer ALU, moves, special ops
	PortALU1             // integer ALU, branches
	PortMul              // pipelined integer/FP multiplier and FP adder
	PortDiv              // NON-pipelined integer/FP divider
	PortLoad0
	PortLoad1
	PortStore
	NumPorts
)

// String returns the port name.
func (p Port) String() string {
	switch p {
	case PortALU0:
		return "ALU0"
	case PortALU1:
		return "ALU1"
	case PortMul:
		return "MUL"
	case PortDiv:
		return "DIV"
	case PortLoad0:
		return "LD0"
	case PortLoad1:
		return "LD1"
	case PortStore:
		return "ST"
	}
	return fmt.Sprintf("Port(%d)", int(p))
}

// PortClass identifies a group of ops with identical port preference
// lists. Structural issue failure is class-uniform: if one ready op of a
// class cannot claim a port this cycle, no other op of the same class
// can either (they compete for exactly the same ports in the same
// order), so the issue stage keeps one ready queue per class and skips a
// whole class on its first structural failure.
type PortClass uint8

// Port classes.
const (
	ClassALU PortClass = iota
	ClassBranch
	ClassMul
	ClassDiv
	ClassLoad
	ClassStore
	NumPortClasses
)

// classPorts lists the ports each class may issue on, in preference
// order.
var classPorts = [NumPortClasses][]Port{
	ClassALU:    {PortALU0, PortALU1},
	ClassBranch: {PortALU1, PortALU0},
	ClassMul:    {PortMul},
	ClassDiv:    {PortDiv},
	ClassLoad:   {PortLoad0, PortLoad1},
	ClassStore:  {PortStore},
}

// ClassOf returns the port class of op. The decoder calls it once per
// static instruction (Decode); the cycle engine reads Decoded.Class.
func ClassOf(op isa.Op) PortClass {
	switch {
	case op.IsLoad():
		return ClassLoad
	case op.IsStore():
		return ClassStore
	case op.IsBranch():
		return ClassBranch
	}
	switch op {
	case isa.OpMul, isa.OpFMul, isa.OpFAdd:
		return ClassMul
	case isa.OpDiv, isa.OpFDiv:
		return ClassDiv
	default:
		return ClassALU
	}
}

// PortSet books issue slots per cycle and models the divider's
// non-pipelined occupancy. All state is shared by the core's SMT contexts.
type PortSet struct {
	cycle        uint64
	issuedThis   [NumPorts]bool
	divBusyUntil uint64
	// DivBusyCycles accumulates total cycles the divider was occupied, a
	// diagnostic for contention experiments.
	DivBusyCycles uint64
}

// NewCycle advances the port set to the given cycle, clearing per-cycle
// issue slots.
func (ps *PortSet) NewCycle(cycle uint64) {
	ps.cycle = cycle
	for i := range ps.issuedThis {
		ps.issuedThis[i] = false
	}
}

// TryIssue attempts to claim a port of class cls this cycle. The
// divider is non-pipelined: a div may only begin when the unit is idle,
// and occupies it for the instruction's full latency (passed by the
// caller via occupancy). For pipelined ports occupancy is ignored — one
// issue per cycle per port. It returns the claimed port.
func (ps *PortSet) TryIssue(cls PortClass, occupancy uint64) (Port, bool) {
	for _, p := range classPorts[cls] {
		if ps.issuedThis[p] {
			continue
		}
		if p == PortDiv {
			if ps.divBusyUntil > ps.cycle {
				return 0, false // divider busy: PORT CONTENTION
			}
			ps.divBusyUntil = ps.cycle + occupancy
			ps.DivBusyCycles += occupancy
		}
		ps.issuedThis[p] = true
		return p, true
	}
	return 0, false
}

// RetryAt returns the earliest cycle at which an op of class cls that
// failed TryIssue this cycle could next claim a port: the divider-free
// cycle for div ops blocked on the non-pipelined divider, otherwise the
// next cycle (the per-cycle issue slots reset every NewCycle). The
// fast-forward engine uses it to know how long an issue-ready entry
// stays provably blocked.
func (ps *PortSet) RetryAt(cls PortClass) uint64 {
	if cls == ClassDiv && ps.divBusyUntil > ps.cycle {
		return ps.divBusyUntil
	}
	return ps.cycle + 1
}

// DivBusy reports whether the divider is occupied at the current cycle.
func (ps *PortSet) DivBusy() bool { return ps.divBusyUntil > ps.cycle }

// DivFreeAt returns the cycle at which the divider next becomes free.
func (ps *PortSet) DivFreeAt() uint64 { return ps.divBusyUntil }
