package isa_test

import (
	"math"
	"testing"

	"microscope/sim/cpu"
	"microscope/sim/isa"
)

// The known-answer table for the ISA's value semantics. The core, the
// reference interpreter, the verifier and the static scan all evaluate
// instructions through isa.Eval, isa.Taken and isa.RandNext, so a
// differential between any two of them cannot see a wrong result; this
// table can. Every expected value is a literal worked out from the
// opcode comments in isa.go (64-bit wrap-around arithmetic, shift
// counts taken mod 64, x/0 = 0, signed blt/bge, IEEE-754 doubles on
// their bit patterns), not computed by code.

const (
	allOnes = 0xffff_ffff_ffff_ffff
	signBit = 0x8000_0000_0000_0000
	maxI64  = 0x7fff_ffff_ffff_ffff

	fOne       = 0x3ff0_0000_0000_0000 // 1.0
	fMinusOne  = 0xbff0_0000_0000_0000 // -1.0
	fTwo       = 0x4000_0000_0000_0000 // 2.0
	fTen       = 0x4024_0000_0000_0000 // 10.0
	f1e308     = 0x7fe1_ccf3_85eb_c8a0 // 1e308
	fPosInf    = 0x7ff0_0000_0000_0000
	fNegInf    = 0xfff0_0000_0000_0000
	fNegZero   = 0x8000_0000_0000_0000
	fQNaN      = 0x7ff8_0000_0000_0001
	fMinNormal = 0x0010_0000_0000_0000 // 2^-1022
	fSubHalf   = 0x0008_0000_0000_0000 // 2^-1023, subnormal
	fSubMin    = 0x0000_0000_0000_0001 // 2^-1074, smallest subnormal
)

// nan marks a row whose result must be a NaN: which NaN bit pattern an
// operation produces (payload, sign) is the host FPU's choice.
const nan = 0x7ff0_dead_beef_0000

type evalRow struct {
	op   isa.Op
	imm  int64
	a, b uint64
	want uint64
}

var evalRows = []evalRow{
	{op: isa.OpMovImm, imm: 42, want: 42},
	{op: isa.OpMovImm, imm: -1, want: allOnes},
	{op: isa.OpFLoadImm, imm: fOne, want: fOne},
	{op: isa.OpFLoadImm, imm: -0x10_0000_0000_0000, want: 0xfff0_0000_0000_0000},
	{op: isa.OpMov, a: 0x1234_5678_9abc_def0, b: 7, want: 0x1234_5678_9abc_def0},
	{op: isa.OpFMov, a: fNegZero, b: fOne, want: fNegZero},

	{op: isa.OpAdd, a: 2, b: 3, want: 5},
	{op: isa.OpAdd, a: allOnes, b: 2, want: 1},
	{op: isa.OpAddImm, a: 10, imm: -3, want: 7},
	{op: isa.OpAddImm, a: 0, imm: -1, want: allOnes},
	{op: isa.OpAddImm, a: 1, imm: 0x12345, want: 0x12346},
	{op: isa.OpAddImm, a: 1, imm: 0x1_0000_0000, want: 0x1_0000_0001},
	{op: isa.OpSub, a: 5, b: 3, want: 2},
	{op: isa.OpSub, a: 0, b: 1, want: allOnes},

	{op: isa.OpAnd, a: 0xff00_ff00, b: 0x0ff0_0ff0, want: 0x0f00_0f00},
	{op: isa.OpAndImm, a: allOnes, imm: -2, want: 0xffff_ffff_ffff_fffe},
	{op: isa.OpAndImm, a: allOnes, imm: 0x12345, want: 0x12345},
	{op: isa.OpAndImm, a: allOnes, imm: 0x1_0000_ffff, want: 0x1_0000_ffff},
	{op: isa.OpAndImm, a: 0x1234_5678, imm: 0xff, want: 0x78},
	{op: isa.OpOr, a: 0xf0, b: 0x0f, want: 0xff},
	{op: isa.OpOr, a: signBit, b: 1, want: 0x8000_0000_0000_0001},
	{op: isa.OpXor, a: 0xff, b: 0x0f, want: 0xf0},
	{op: isa.OpXor, a: allOnes, b: 0x1234, want: 0xffff_ffff_ffff_edcb},

	{op: isa.OpShl, a: 1, b: 31, want: 0x8000_0000},
	{op: isa.OpShl, a: 1, b: 32, want: 0x1_0000_0000},
	{op: isa.OpShl, a: 1, b: 63, want: signBit},
	{op: isa.OpShl, a: 1, b: 64, want: 1},
	{op: isa.OpShl, a: 3, b: 65, want: 6},
	{op: isa.OpShlImm, a: 1, imm: 31, want: 0x8000_0000},
	{op: isa.OpShlImm, a: 1, imm: 32, want: 0x1_0000_0000},
	{op: isa.OpShlImm, a: 1, imm: 63, want: signBit},
	{op: isa.OpShlImm, a: 1, imm: 64, want: 1},
	{op: isa.OpShr, a: signBit, b: 31, want: 0x1_0000_0000},
	{op: isa.OpShr, a: signBit, b: 32, want: 0x8000_0000},
	{op: isa.OpShr, a: signBit, b: 63, want: 1},
	{op: isa.OpShr, a: signBit, b: 64, want: signBit},
	{op: isa.OpShrImm, a: signBit, imm: 31, want: 0x1_0000_0000},
	{op: isa.OpShrImm, a: signBit, imm: 32, want: 0x8000_0000},
	{op: isa.OpShrImm, a: signBit, imm: 63, want: 1},
	{op: isa.OpShrImm, a: signBit, imm: 64, want: signBit},
	{op: isa.OpShrImm, a: 0xff, imm: 4, want: 0xf},

	{op: isa.OpMul, a: 6, b: 7, want: 42},
	{op: isa.OpMul, a: allOnes, b: 2, want: 0xffff_ffff_ffff_fffe},
	{op: isa.OpDiv, a: 100, b: 7, want: 14},
	{op: isa.OpDiv, a: 7, b: 0, want: 0},
	{op: isa.OpDiv, a: 0, b: 0, want: 0},
	{op: isa.OpDiv, a: allOnes, b: 2, want: maxI64}, // unsigned

	{op: isa.OpFAdd, a: 0x3ff8_0000_0000_0000, b: 0x4002_0000_0000_0000, want: 0x400e_0000_0000_0000}, // 1.5+2.25
	{op: isa.OpFAdd, a: fPosInf, b: fOne, want: fPosInf},
	{op: isa.OpFAdd, a: fPosInf, b: fNegInf, want: nan},
	{op: isa.OpFAdd, a: fQNaN, b: fOne, want: nan},
	{op: isa.OpFAdd, a: fSubMin, b: fSubMin, want: 0x0000_0000_0000_0002},
	{op: isa.OpFMul, a: fTwo, b: 0x3ff8_0000_0000_0000, want: 0x4008_0000_0000_0000}, // 2*1.5
	{op: isa.OpFMul, a: fSubMin, b: fTwo, want: 0x0000_0000_0000_0002},
	{op: isa.OpFMul, a: f1e308, b: fTen, want: fPosInf},
	{op: isa.OpFMul, a: fNegZero, b: fOne, want: fNegZero},
	{op: isa.OpFMul, a: fPosInf, b: 0, want: nan},
	{op: isa.OpFDiv, a: 0x4018_0000_0000_0000, b: fTwo, want: 0x4008_0000_0000_0000}, // 6/2
	{op: isa.OpFDiv, a: fOne, b: 0, want: fPosInf},
	{op: isa.OpFDiv, a: fMinusOne, b: 0, want: fNegInf},
	{op: isa.OpFDiv, a: 0, b: 0, want: nan},
	{op: isa.OpFDiv, a: fOne, b: fNegInf, want: fNegZero},
	{op: isa.OpFDiv, a: fMinNormal, b: fTwo, want: fSubHalf},
	{op: isa.OpFDiv, a: fSubHalf, b: fSubHalf, want: fOne},
	{op: isa.OpFDiv, a: fQNaN, b: fOne, want: nan},
}

type takenRow struct {
	op   isa.Op
	a, b uint64
	want bool
}

var takenRows = []takenRow{
	{isa.OpBeq, 5, 5, true},
	{isa.OpBeq, 5, 6, false},
	{isa.OpBne, 5, 6, true},
	{isa.OpBne, allOnes, allOnes, false},
	// blt/bge compare signed: the sign bit makes a value the smallest.
	{isa.OpBlt, signBit, maxI64, true},
	{isa.OpBlt, maxI64, signBit, false},
	{isa.OpBlt, allOnes, 0, true},
	{isa.OpBlt, 0, allOnes, false},
	{isa.OpBlt, 3, 3, false},
	{isa.OpBge, signBit, maxI64, false},
	{isa.OpBge, maxI64, signBit, true},
	{isa.OpBge, allOnes, 0, false},
	{isa.OpBge, 0, allOnes, true},
	{isa.OpBge, 3, 3, true},
	{isa.OpJmp, 0, 1, true},
	{isa.OpJmp, 1, 1, true},
}

// noResult lists the ops whose result the operands do not determine
// (memory, the cycle counter, the RNG) or that write no register and
// are not branches. Eval must decline every one.
var noResult = map[isa.Op]bool{
	isa.OpNop: true, isa.OpFence: true, isa.OpHalt: true,
	isa.OpLoad: true, isa.OpLoad32: true, isa.OpLoadF: true,
	isa.OpStore: true, isa.OpStore32: true, isa.OpStoreF: true,
	isa.OpRdtsc: true, isa.OpRdrand: true,
	isa.OpTxBegin: true, isa.OpTxEnd: true, isa.OpTxAbort: true,
}

func TestEvalKnownAnswers(t *testing.T) {
	for _, r := range evalRows {
		in := isa.Instr{Op: r.op, Imm: r.imm}
		got, ok := in.Eval(r.a, r.b)
		switch {
		case !ok:
			t.Errorf("%s imm=%#x: Eval declined", r.op, r.imm)
		case r.want == nan:
			if !math.IsNaN(math.Float64frombits(got)) {
				t.Errorf("%s(%#x, %#x) = %#x, want a NaN", r.op, r.a, r.b, got)
			}
		case got != r.want:
			t.Errorf("%s(%#x, %#x) imm=%#x = %#x, want %#x", r.op, r.a, r.b, r.imm, got, r.want)
		}
	}
}

func TestTakenKnownAnswers(t *testing.T) {
	for _, r := range takenRows {
		if got := (isa.Instr{Op: r.op}).Taken(r.a, r.b); got != r.want {
			t.Errorf("%s(%#x, %#x) taken = %v, want %v", r.op, r.a, r.b, got, r.want)
		}
	}
}

// TestSemanticsTotal: every op has known answers or is declared to have
// no operand-determined result, so a new op cannot skip the semantics.
func TestSemanticsTotal(t *testing.T) {
	hasEval := make(map[isa.Op]bool)
	for _, r := range evalRows {
		hasEval[r.op] = true
	}
	hasTaken := make(map[isa.Op]bool)
	for _, r := range takenRows {
		hasTaken[r.op] = true
	}
	for op := isa.Op(0); int(op) < isa.OpCount; op++ {
		in := isa.Instr{Op: op}
		v, ok := in.Eval(3, 5)
		switch {
		case hasEval[op] && (hasTaken[op] || noResult[op]):
			t.Errorf("%s is listed twice", op)
		case hasTaken[op] && noResult[op]:
			t.Errorf("%s is listed twice", op)
		case !hasEval[op] && !hasTaken[op] && !noResult[op]:
			t.Errorf("%s has no known answers and is not listed as having no result", op)
		case !hasEval[op] && (ok || v != 0):
			t.Errorf("%s: Eval = (%#x, %v), want (0, false)", op, v, ok)
		}
		if !op.IsBranch() && (in.Taken(0, 0) || in.Taken(3, 5)) {
			t.Errorf("%s is not a branch but Taken reports true", op)
		}
		if hasTaken[op] != op.IsBranch() {
			t.Errorf("%s: IsBranch = %v but has taken rows = %v", op, op.IsBranch(), hasTaken[op])
		}
	}
}

func TestRandKnownAnswers(t *testing.T) {
	for seed, want := range map[uint64]uint64{0: 1, 1: 1, 2: 3, 0x5ca1ab1e: 0x5ca1ab1f} {
		if got := isa.RandState(seed); got != want {
			t.Errorf("RandState(%#x) = %#x, want %#x", seed, got, want)
		}
	}
	seed := cpu.DefaultConfig().RandSeed
	if seed != 0x5ca1ab1e {
		t.Fatalf("default RandSeed = %#x; the draws below are worked out for 0x5ca1ab1e", seed)
	}
	s := isa.RandState(seed)
	for i, want := range []uint64{0xc307_4276_1d13_f0f3, 0x49eb_9c31_73e5_166b, 0x1fcb_d3de_3a03_e126} {
		var v uint64
		s, v = isa.RandNext(s)
		if v != want {
			t.Errorf("draw %d = %#x, want %#x", i, v, want)
		}
	}
}
