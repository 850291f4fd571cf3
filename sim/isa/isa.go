// Package isa defines the instruction set of the simulated out-of-order
// core used throughout the MicroScope reproduction.
//
// The ISA is a small 64-bit load/store architecture with separate integer
// and floating-point register files, explicit memory operands
// (base register + immediate displacement), and the handful of special
// instructions the paper's attacks require: RDTSC (cycle counter reads for
// the monitor), RDRAND (the §7.2 integrity-bias target), FENCE (the RDRAND
// mitigation), and TSX transaction markers (alternative replay handles,
// §7.1).
//
// The package also defines what each instruction computes (semantics.go):
// Instr.Eval for register results, Instr.Taken for branch directions,
// RandState and RandNext for the RDRAND stream, and AbortReg. The
// out-of-order core, the reference interpreter in sim/cpu/cputest, the
// verifier's abstract interpreter and the static scan's constant folding
// all call these, and add only their own concerns (latency, memory and
// faults; taint; the abstract value domain).
package isa

import "fmt"

// Reg names a register. Values 0..15 are the integer registers R0..R15;
// values 16..31 are the floating-point registers F0..F15. The zero value
// is R0, which is a normal read/write register (not hardwired to zero).
type Reg uint8

// Register file layout.
const (
	NumIntRegs   = 16
	NumFloatRegs = 16
	// FloatBase is the Reg value of F0.
	FloatBase Reg = 16
	// NumRegs is the total architectural register count (both files).
	NumRegs = NumIntRegs + NumFloatRegs
	// NoReg marks an unused register operand.
	NoReg Reg = 0xFF
)

// Integer registers.
const (
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15
)

// Floating-point registers.
const (
	F0 Reg = FloatBase + iota
	F1
	F2
	F3
	F4
	F5
	F6
	F7
	F8
	F9
	F10
	F11
	F12
	F13
	F14
	F15
)

// IsFloat reports whether r names a floating-point register.
func (r Reg) IsFloat() bool { return r >= FloatBase && r < FloatBase+NumFloatRegs }

// Valid reports whether r names an architectural register.
func (r Reg) Valid() bool { return r < NumRegs }

// String returns the assembler name of the register (r3, f7, ...).
func (r Reg) String() string {
	switch {
	case r == NoReg:
		return "-"
	case r.IsFloat():
		return fmt.Sprintf("f%d", int(r-FloatBase))
	case r.Valid():
		return fmt.Sprintf("r%d", int(r))
	default:
		return fmt.Sprintf("reg(%d)", int(r))
	}
}

// Op is an operation code.
type Op uint8

// Operation codes. The comment after each op gives the assembler syntax.
const (
	OpNop      Op = iota // nop
	OpMovImm             // movi rd, imm
	OpMov                // mov rd, rs1
	OpAdd                // add rd, rs1, rs2
	OpAddImm             // addi rd, rs1, imm
	OpSub                // sub rd, rs1, rs2
	OpAnd                // and rd, rs1, rs2
	OpAndImm             // andi rd, rs1, imm
	OpOr                 // or rd, rs1, rs2
	OpXor                // xor rd, rs1, rs2
	OpShl                // shl rd, rs1, rs2
	OpShlImm             // shli rd, rs1, imm
	OpShr                // shr rd, rs1, rs2
	OpShrImm             // shri rd, rs1, imm
	OpMul                // mul rd, rs1, rs2
	OpDiv                // div rd, rs1, rs2 (integer; traps are not modelled, x/0 = 0)
	OpFMov               // fmov fd, fs1
	OpFAdd               // fadd fd, fs1, fs2
	OpFMul               // fmul fd, fs1, fs2
	OpFDiv               // fdiv fd, fs1, fs2
	OpFLoadImm           // fli fd, float-bits-imm
	OpLoad               // ld rd, imm(rs1)
	OpLoad32             // ld32 rd, imm(rs1) (zero-extending 32-bit load)
	OpLoadF              // fld fd, imm(rs1)
	OpStore              // st rs2, imm(rs1)
	OpStore32            // st32 rs2, imm(rs1) (32-bit store)
	OpStoreF             // fst fs2, imm(rs1)
	OpBeq                // beq rs1, rs2, label
	OpBne                // bne rs1, rs2, label
	OpBlt                // blt rs1, rs2, label
	OpBge                // bge rs1, rs2, label
	OpJmp                // jmp label
	OpRdtsc              // rdtsc rd (reads core cycle counter)
	OpRdrand             // rdrand rd (hardware random number)
	OpFence              // fence (no younger instruction dispatches until retired)
	OpTxBegin            // txbegin label (abort handler target)
	OpTxEnd              // txend
	OpTxAbort            // txabort
	OpHalt               // halt
	opMax
)

// OpCount is the number of defined operation codes. Tooling that must be
// total over the ISA (the static analyzer's channel taxonomy, the
// determinism lints) iterates Op(0)..Op(OpCount-1).
const OpCount = int(opMax)

var opNames = [...]string{
	OpNop:      "nop",
	OpMovImm:   "movi",
	OpMov:      "mov",
	OpAdd:      "add",
	OpAddImm:   "addi",
	OpSub:      "sub",
	OpAnd:      "and",
	OpAndImm:   "andi",
	OpOr:       "or",
	OpXor:      "xor",
	OpShl:      "shl",
	OpShlImm:   "shli",
	OpShr:      "shr",
	OpShrImm:   "shri",
	OpMul:      "mul",
	OpDiv:      "div",
	OpFMov:     "fmov",
	OpFAdd:     "fadd",
	OpFMul:     "fmul",
	OpFDiv:     "fdiv",
	OpFLoadImm: "fli",
	OpLoad:     "ld",
	OpLoad32:   "ld32",
	OpLoadF:    "fld",
	OpStore:    "st",
	OpStore32:  "st32",
	OpStoreF:   "fst",
	OpBeq:      "beq",
	OpBne:      "bne",
	OpBlt:      "blt",
	OpBge:      "bge",
	OpJmp:      "jmp",
	OpRdtsc:    "rdtsc",
	OpRdrand:   "rdrand",
	OpFence:    "fence",
	OpTxBegin:  "txbegin",
	OpTxEnd:    "txend",
	OpTxAbort:  "txabort",
	OpHalt:     "halt",
}

// String returns the assembler mnemonic of the op.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Valid reports whether o is a defined operation code.
func (o Op) Valid() bool { return o < opMax }

// IsBranch reports whether o is a conditional branch or jump.
func (o Op) IsBranch() bool {
	switch o {
	case OpBeq, OpBne, OpBlt, OpBge, OpJmp:
		return true
	}
	return false
}

// IsCondBranch reports whether o is a conditional branch.
func (o Op) IsCondBranch() bool {
	switch o {
	case OpBeq, OpBne, OpBlt, OpBge:
		return true
	}
	return false
}

// IsMem reports whether o accesses data memory.
func (o Op) IsMem() bool {
	switch o {
	case OpLoad, OpLoad32, OpLoadF, OpStore, OpStore32, OpStoreF:
		return true
	}
	return false
}

// IsLoad reports whether o is a load.
func (o Op) IsLoad() bool { return o == OpLoad || o == OpLoad32 || o == OpLoadF }

// IsStore reports whether o is a store.
func (o Op) IsStore() bool { return o == OpStore || o == OpStore32 || o == OpStoreF }

// Instr is a single decoded instruction.
//
// Operand roles by op class:
//   - ALU reg-reg:  Rd <- Rs1 op Rs2
//   - ALU reg-imm:  Rd <- Rs1 op Imm
//   - Load:         Rd <- mem[Rs1 + Imm]
//   - Store:        mem[Rs1 + Imm] <- Rs2
//   - Branch:       compare Rs1, Rs2; Target is the instruction index
//   - TxBegin:      Target is the abort-handler instruction index
type Instr struct {
	Op     Op
	Rd     Reg
	Rs1    Reg
	Rs2    Reg
	Imm    int64
	Target int
	// Label, when non-empty, names the target for branches/txbegin in
	// disassembly; it carries no semantics.
	Label string
}

// Dest returns the destination register of the instruction, or NoReg if
// the instruction writes no register.
func (in Instr) Dest() Reg {
	switch in.Op {
	case OpNop, OpStore, OpStore32, OpStoreF, OpBeq, OpBne, OpBlt, OpBge, OpJmp,
		OpFence, OpTxBegin, OpTxEnd, OpTxAbort, OpHalt:
		return NoReg
	}
	return in.Rd
}

// Sources returns the source registers read by the instruction. Unused
// slots are NoReg.
func (in Instr) Sources() [2]Reg {
	switch in.Op {
	case OpNop, OpMovImm, OpFLoadImm, OpJmp, OpRdtsc, OpRdrand, OpFence,
		OpTxBegin, OpTxEnd, OpTxAbort, OpHalt:
		return [2]Reg{NoReg, NoReg}
	case OpMov, OpFMov, OpAddImm, OpAndImm, OpShlImm, OpShrImm,
		OpLoad, OpLoad32, OpLoadF:
		return [2]Reg{in.Rs1, NoReg}
	default:
		return [2]Reg{in.Rs1, in.Rs2}
	}
}

// String disassembles the instruction.
func (in Instr) String() string {
	target := in.Label
	if target == "" {
		target = fmt.Sprintf("@%d", in.Target)
	}
	switch in.Op {
	case OpNop, OpFence, OpTxEnd, OpTxAbort, OpHalt:
		return in.Op.String()
	case OpMovImm, OpFLoadImm:
		return fmt.Sprintf("%s %s, %d", in.Op, in.Rd, in.Imm)
	case OpMov, OpFMov:
		return fmt.Sprintf("%s %s, %s", in.Op, in.Rd, in.Rs1)
	case OpAddImm, OpAndImm, OpShlImm, OpShrImm:
		return fmt.Sprintf("%s %s, %s, %d", in.Op, in.Rd, in.Rs1, in.Imm)
	case OpLoad, OpLoad32, OpLoadF:
		return fmt.Sprintf("%s %s, %d(%s)", in.Op, in.Rd, in.Imm, in.Rs1)
	case OpStore, OpStore32, OpStoreF:
		return fmt.Sprintf("%s %s, %d(%s)", in.Op, in.Rs2, in.Imm, in.Rs1)
	case OpBeq, OpBne, OpBlt, OpBge:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, in.Rs1, in.Rs2, target)
	case OpJmp, OpTxBegin:
		return fmt.Sprintf("%s %s", in.Op, target)
	case OpRdtsc, OpRdrand:
		return fmt.Sprintf("%s %s", in.Op, in.Rd)
	default:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, in.Rd, in.Rs1, in.Rs2)
	}
}

// Program is a sequence of instructions plus the label table produced by
// the Builder or Assembler. Instruction addresses are indices into Instrs;
// the pipeline fetches by index. Code occupies its own virtual page(s) so
// instruction fetch does not perturb the data caches under attack.
type Program struct {
	Instrs []Instr
	Labels map[string]int
}

// Len returns the number of instructions.
func (p *Program) Len() int { return len(p.Instrs) }

// At returns the instruction at index i.
func (p *Program) At(i int) Instr { return p.Instrs[i] }

// LabelOf returns the index of a defined label.
func (p *Program) LabelOf(name string) (int, bool) {
	i, ok := p.Labels[name]
	return i, ok
}

// Validate checks that every instruction is well formed: defined opcode,
// valid register operands, and in-range branch targets.
func (p *Program) Validate() error {
	for i := range p.Instrs {
		if err := p.ValidateAt(i); err != nil {
			return err
		}
	}
	return nil
}

// ValidateAt checks the single instruction at index i (see Validate). The
// assembler uses it to map validation errors back to source lines.
func (p *Program) ValidateAt(i int) error {
	in := p.Instrs[i]
	if !in.Op.Valid() {
		return fmt.Errorf("isa: instr %d: invalid opcode %d", i, int(in.Op))
	}
	if !in.Rd.Valid() || !in.Rs1.Valid() || !in.Rs2.Valid() {
		// NoReg (or any register out of range) is legal only in a slot
		// the op does not use. The same op with real registers in every
		// slot names the slots it writes and reads.
		live := Instr{Op: in.Op}
		reads := live.Sources()
		switch {
		case !in.Rd.Valid() && live.Dest() != NoReg:
			return fmt.Errorf("isa: instr %d (%s): invalid dest %s", i, in, in.Rd)
		case !in.Rs1.Valid() && reads[0] != NoReg:
			return fmt.Errorf("isa: instr %d (%s): invalid source %s", i, in, in.Rs1)
		case !in.Rs2.Valid() && reads[1] != NoReg:
			return fmt.Errorf("isa: instr %d (%s): invalid source %s", i, in, in.Rs2)
		}
	}
	if in.Op.IsBranch() || in.Op == OpTxBegin {
		if in.Target < 0 || in.Target >= len(p.Instrs) {
			return fmt.Errorf("isa: instr %d (%s): target %d out of range [0,%d)",
				i, in, in.Target, len(p.Instrs))
		}
	}
	return validateRegClasses(i, in)
}

// validateRegClasses enforces that FP ops use FP registers and integer ops
// use integer registers where the distinction matters.
func validateRegClasses(i int, in Instr) error {
	wantFloatDest := false
	switch in.Op {
	case OpFMov, OpFAdd, OpFMul, OpFDiv, OpFLoadImm, OpLoadF:
		wantFloatDest = true
	}
	if d := in.Dest(); d != NoReg && d.IsFloat() != wantFloatDest {
		return fmt.Errorf("isa: instr %d (%s): dest %s has wrong register class", i, in, d)
	}
	// Address base registers are always integer.
	if in.Op.IsMem() && in.Rs1.IsFloat() {
		return fmt.Errorf("isa: instr %d (%s): address base %s must be integer", i, in, in.Rs1)
	}
	return nil
}
