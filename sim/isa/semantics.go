package isa

import "math"

// The value semantics of the ISA: what each instruction computes from
// its operand values. The out-of-order core, the sequential reference
// interpreter, the verifier's abstract interpreter and the static scan's
// constant folding all evaluate instructions here, so they cannot
// disagree about a result.

// AbortReg is the integer register that receives the cumulative abort
// count when a transaction aborts (the simulated analogue of EAX holding
// the TSX abort status).
const AbortReg = R15

// Eval returns the register result of in when its source registers hold
// a (Rs1) and b (Rs2). ok is false, and v zero, for ops whose result
// the operands do not determine (loads, rdtsc, rdrand) and for ops that
// write no register.
func (in Instr) Eval(a, b uint64) (v uint64, ok bool) {
	switch in.Op {
	case OpMovImm, OpFLoadImm:
		return uint64(in.Imm), true
	case OpMov, OpFMov:
		return a, true
	case OpAdd:
		return a + b, true
	case OpAddImm:
		return a + uint64(in.Imm), true
	case OpSub:
		return a - b, true
	case OpAnd:
		return a & b, true
	case OpAndImm:
		return a & uint64(in.Imm), true
	case OpOr:
		return a | b, true
	case OpXor:
		return a ^ b, true
	case OpShl:
		return a << (b & 63), true
	case OpShlImm:
		return a << (uint64(in.Imm) & 63), true
	case OpShr:
		return a >> (b & 63), true
	case OpShrImm:
		return a >> (uint64(in.Imm) & 63), true
	case OpMul:
		return a * b, true
	case OpDiv:
		if b == 0 {
			return 0, true
		}
		return a / b, true
	case OpFAdd:
		return math.Float64bits(math.Float64frombits(a) + math.Float64frombits(b)), true
	case OpFMul:
		return math.Float64bits(math.Float64frombits(a) * math.Float64frombits(b)), true
	case OpFDiv:
		return math.Float64bits(math.Float64frombits(a) / math.Float64frombits(b)), true
	}
	return 0, false
}

// Taken reports whether in transfers control to its Target when its
// source registers hold a (Rs1) and b (Rs2): the condition of a
// conditional branch (blt and bge compare signed), always for jmp, and
// never for any other op.
func (in Instr) Taken(a, b uint64) bool {
	switch in.Op {
	case OpBeq:
		return a == b
	case OpBne:
		return a != b
	case OpBlt:
		return int64(a) < int64(b)
	case OpBge:
		return int64(a) >= int64(b)
	case OpJmp:
		return true
	}
	return false
}

// RandState returns the RDRAND generator state of a machine seeded with
// seed. The state is never zero, the one fixed point of the generator.
func RandState(seed uint64) uint64 { return seed | 1 }

// RandNext advances the RDRAND generator (xorshift64*) by one draw,
// returning the new state and the value RDRAND delivers.
func RandNext(state uint64) (next, v uint64) {
	state ^= state >> 12
	state ^= state << 25
	state ^= state >> 27
	return state, state * 0x2545F4914F6CDD1D
}
