package pipeline

import (
	"slices"

	"microscope/sim/isa"
)

// Decoded is a static instruction as the cycle engine reads it. Its
// operand roles and port class are worked out once, when a context loads
// or restores its program, so fetch, dispatch, the ready lists, the
// load/store queues, issue and commit read fields instead of
// re-classifying the op on every dynamic instance — a replayed window
// re-fetches the same instructions once per fault. It holds no pointer
// or string: the disassembly label stays in the isa.Program, which is
// where tracers and fault handlers read the full instruction.
type Decoded struct {
	Op     isa.Op
	Src    [2]isa.Reg // registers read (isa.Instr.Sources); unused slots are isa.NoReg
	Dest   isa.Reg    // register written (isa.Instr.Dest), or isa.NoReg
	Class  PortClass  // ClassOf(Op)
	Imm    int64
	Target int
}

// Decode returns the decoded form of in.
func Decode(in isa.Instr) Decoded {
	return Decoded{
		Op:     in.Op,
		Src:    in.Sources(),
		Dest:   in.Dest(),
		Class:  ClassOf(in.Op),
		Imm:    in.Imm,
		Target: in.Target,
	}
}

// AppendDecoded appends the decoded form of every instruction of p to
// dst, so that element pc of the result decodes p.Instrs[pc] when dst
// is empty. It grows dst at most once.
func AppendDecoded(dst []Decoded, p *isa.Program) []Decoded {
	dst = slices.Grow(dst, len(p.Instrs))
	for _, in := range p.Instrs {
		dst = append(dst, Decode(in))
	}
	return dst
}

// Eval is isa.Instr.Eval for the decoded instruction: the register
// result when its sources hold a and b. Eval reads only the op and the
// immediate, both of which the record keeps.
func (d *Decoded) Eval(a, b uint64) (uint64, bool) {
	return isa.Instr{Op: d.Op, Imm: d.Imm}.Eval(a, b)
}

// Taken is isa.Instr.Taken for the decoded instruction: whether it
// transfers control to Target when its sources hold a and b.
func (d *Decoded) Taken(a, b uint64) bool {
	return isa.Instr{Op: d.Op}.Taken(a, b)
}
