package cputest

import (
	"fmt"

	"microscope/sim/isa"
	"microscope/sim/mem"
)

// Reference is a trivial sequential interpreter for the ISA with the same
// architectural semantics as the out-of-order core but none of its
// microarchitecture. Both evaluate instructions with the sim/isa
// semantics (Instr.Eval, Instr.Taken, RandNext), so the differential
// against it checks what the core adds: renaming, forwarding, branch
// recovery, memory disambiguation and transaction rollback. Any
// terminating program without faults must leave identical architectural
// state on both engines.
type Reference struct {
	as    *mem.AddressSpace
	regs  [isa.NumRegs]uint64
	pc    int
	prog  *isa.Program
	rng   uint64
	steps uint64

	inTx       bool
	checkpoint [isa.NumRegs]uint64
	abortPC    int
	txAborts   uint64
}

// NewReference returns an interpreter over the address space whose
// RDRAND stream starts where a core seeded with randSeed starts.
func NewReference(as *mem.AddressSpace, randSeed uint64) *Reference {
	return &Reference{as: as, rng: isa.RandState(randSeed)}
}

// Reg returns the architectural value of r.
func (r *Reference) Reg(reg isa.Reg) uint64 { return r.regs[reg] }

// SetReg sets a register.
func (r *Reference) SetReg(reg isa.Reg, v uint64) { r.regs[reg] = v }

// Steps returns the number of executed instructions.
func (r *Reference) Steps() uint64 { return r.steps }

// Run executes the program from entry until halt, program end, or the
// step budget is exhausted. It returns an error on a page fault (the
// reference engine models no OS) or budget exhaustion.
func (r *Reference) Run(p *isa.Program, entry int, maxSteps uint64) error {
	r.prog = p
	r.pc = entry
	for r.steps = 0; r.steps < maxSteps; r.steps++ {
		if r.pc < 0 || r.pc >= p.Len() {
			return nil
		}
		in := p.At(r.pc)
		next := r.pc + 1
		// Only the registers the op reads: an unused operand slot may
		// hold isa.NoReg, which indexes no register (the core reads it
		// as 0).
		var a, b uint64
		srcs := in.Sources()
		if s := srcs[0]; s != isa.NoReg {
			a = r.regs[s]
		}
		if s := srcs[1]; s != isa.NoReg {
			b = r.regs[s]
		}
		switch in.Op {
		case isa.OpNop, isa.OpFence:
		case isa.OpHalt:
			return nil
		case isa.OpLoad, isa.OpLoadF:
			v, err := r.load(a+uint64(in.Imm), 8)
			if err != nil {
				return err
			}
			r.regs[in.Rd] = v
		case isa.OpLoad32:
			v, err := r.load(a+uint64(in.Imm), 4)
			if err != nil {
				return err
			}
			r.regs[in.Rd] = v
		case isa.OpStore, isa.OpStoreF:
			if err := r.store(a+uint64(in.Imm), b, 8); err != nil {
				return err
			}
		case isa.OpStore32:
			if err := r.store(a+uint64(in.Imm), b, 4); err != nil {
				return err
			}
		case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpJmp:
			if in.Taken(a, b) {
				next = in.Target
			}
		case isa.OpRdtsc:
			// The reference engine has no cycle clock; expose the step
			// count so deltas are still monotone.
			r.regs[in.Rd] = r.steps
		case isa.OpRdrand:
			r.rng, r.regs[in.Rd] = isa.RandNext(r.rng)
		case isa.OpTxBegin:
			r.inTx = true
			r.checkpoint = r.regs
			r.abortPC = in.Target
		case isa.OpTxEnd:
			r.inTx = false
		case isa.OpTxAbort:
			if r.inTx {
				r.txAborts++
				r.regs = r.checkpoint
				r.regs[isa.AbortReg] = r.txAborts
				r.inTx = false
				next = r.abortPC
			}
		default:
			v, ok := in.Eval(a, b)
			if !ok {
				return fmt.Errorf("cputest: reference: unhandled op %s", in.Op)
			}
			r.regs[in.Rd] = v
		}
		r.pc = next
	}
	return fmt.Errorf("cputest: reference: step budget exhausted at pc=%d", r.pc)
}

func (r *Reference) load(va mem.Addr, size int) (uint64, error) {
	pa, err := r.as.Translate(va)
	if err != nil {
		return 0, err
	}
	if size == 4 {
		return uint64(r.as.Phys().Read32(pa)), nil
	}
	return r.as.Phys().Read64(pa), nil
}

func (r *Reference) store(va mem.Addr, v uint64, size int) error {
	pa, err := r.as.Translate(va)
	if err != nil {
		return err
	}
	if size == 4 {
		r.as.Phys().Write32(pa, uint32(v))
	} else {
		r.as.Phys().Write64(pa, v)
	}
	return nil
}
