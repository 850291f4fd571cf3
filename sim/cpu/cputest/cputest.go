// Package cputest provides the deterministic random-program generators,
// the pre-initialized data address spaces and the sequential reference
// interpreter (Reference) shared by the sim/cpu differential suites. It
// lives outside the test files so both the in-package tests (package
// cpu) and the external ones (package cpu_test, which may import
// packages that themselves depend on sim/cpu, such as sim/trace) can
// drive the same program distribution.
//
// All randomness flows through the caller-supplied seeded *rand.Rand, so
// a (generator, seed) pair names one exact program forever — the
// property the differential and golden suites rely on.
package cputest

import (
	"math"
	"math/rand"

	"microscope/sim/isa"
	"microscope/sim/mem"
)

// Data-space geometry used by every generated program.
const (
	// DataVA is the virtual base address of the pre-mapped data region.
	DataVA mem.Addr = 0x0100_0000
	// DataPages is the number of mapped data pages.
	DataPages = 4
	// Base is the register that always holds DataVA.
	Base = isa.R12
)

// intRegs usable as scratch (r13 is a loop counter, r14/r15 reserved by
// transactions).
var intRegs = []isa.Reg{isa.R1, isa.R2, isa.R3, isa.R4, isa.R5, isa.R6, isa.R7, isa.R8}

var floatRegs = []isa.Reg{isa.F1, isa.F2, isa.F3, isa.F4}

// loopCounters maps nesting depth to its reserved counter register, so
// nested counted loops never clobber each other.
var loopCounters = [3]isa.Reg{isa.R9, isa.R10, isa.R13}

// gen emits random structured programs: straight-line ALU/memory blocks,
// forward branches, counted loops, occasional transactions.
type gen struct {
	rng *rand.Rand
	b   *isa.Builder
	n   int // emitted instruction count (approximate budget control)
}

func (g *gen) reg() isa.Reg  { return intRegs[g.rng.Intn(len(intRegs))] }
func (g *gen) freg() isa.Reg { return floatRegs[g.rng.Intn(len(floatRegs))] }

func (g *gen) offset() int64 {
	return int64(g.rng.Intn(DataPages*mem.PageSize/8)) * 8
}

func (g *gen) emitOp() {
	g.n++
	switch g.rng.Intn(16) {
	case 0:
		g.b.MovImm(g.reg(), int64(g.rng.Uint64()%1_000_000))
	case 1:
		g.b.Add(g.reg(), g.reg(), g.reg())
	case 2:
		g.b.Sub(g.reg(), g.reg(), g.reg())
	case 3:
		g.b.Mul(g.reg(), g.reg(), g.reg())
	case 4:
		g.b.Div(g.reg(), g.reg(), g.reg())
	case 5:
		g.b.Xor(g.reg(), g.reg(), g.reg())
	case 6:
		g.b.AndImm(g.reg(), g.reg(), int64(g.rng.Uint64()&0xffff))
	case 7:
		g.b.ShrImm(g.reg(), g.reg(), int64(g.rng.Intn(63)))
	case 8:
		g.b.ShlImm(g.reg(), g.reg(), int64(g.rng.Intn(16)))
	case 9:
		g.b.Load(g.reg(), Base, g.offset())
	case 10:
		g.b.Store(g.reg(), Base, g.offset())
	case 11:
		g.b.Load32(g.reg(), Base, g.offset())
	case 12:
		g.b.Store32(g.reg(), Base, g.offset())
	case 13:
		g.b.FAdd(g.freg(), g.freg(), g.freg())
	case 14:
		g.b.FMul(g.freg(), g.freg(), g.freg())
	case 15:
		g.b.FDiv(g.freg(), g.freg(), g.freg())
	}
}

func (g *gen) emitBlock(depth int, label *int) {
	nOps := 2 + g.rng.Intn(6)
	for i := 0; i < nOps; i++ {
		g.emitOp()
	}
	if depth <= 0 || g.n > 150 {
		return
	}
	switch g.rng.Intn(4) {
	case 0: // forward branch over a sub-block
		*label++
		skip := labelName("skip", *label)
		g.b.Beq(g.reg(), g.reg(), skip)
		g.emitBlock(depth-1, label)
		g.b.Label(skip)
	case 1: // counted loop (one reserved counter register per depth)
		*label++
		loop := labelName("loop", *label)
		iters := int64(1 + g.rng.Intn(5))
		counter := loopCounters[depth]
		g.b.MovImm(counter, iters)
		g.b.Label(loop)
		g.emitBlock(depth-1, label)
		g.b.AddImm(counter, counter, -1)
		g.b.Bne(counter, isa.R0, loop)
	case 2: // transaction that always commits
		*label++
		abort := labelName("abort", *label)
		after := labelName("after", *label)
		g.b.TxBegin(abort)
		g.emitBlock(depth-1, label)
		g.b.TxEnd()
		g.b.Jmp(after)
		g.b.Label(abort)
		g.b.MovImm(isa.R11, 77)
		g.b.Label(after)
	case 3: // transaction that explicitly aborts
		*label++
		abort := labelName("abt", *label)
		g.b.TxBegin(abort)
		g.emitBlock(depth-1, label)
		g.b.TxAbort()
		g.b.Label(abort)
	}
}

func labelName(prefix string, n int) string {
	return prefix + "_" + string(rune('a'+n%26)) + string(rune('a'+(n/26)%26)) +
		string(rune('a'+(n/676)%26))
}

// GenProgram emits one random structured program: nested blocks of ALU
// and memory traffic, forward branches, counted loops and transactions,
// always terminated by a halt. rng fully determines the program.
func GenProgram(rng *rand.Rand) *isa.Program {
	g := &gen{rng: rng, b: isa.NewBuilder()}
	g.b.MovImm(Base, int64(DataVA))
	// Seed float registers with interesting values.
	g.b.FLoadImm(isa.F1, int64(math.Float64bits(3.5)))
	g.b.FLoadImm(isa.F2, int64(math.Float64bits(-0.25)))
	g.b.FLoadImm(isa.F3, int64(math.Float64bits(1e300)))
	g.b.FLoadImm(isa.F4, int64(math.Float64bits(7.0)))
	label := 0
	blocks := 2 + rng.Intn(4)
	for i := 0; i < blocks; i++ {
		g.emitBlock(2, &label)
	}
	g.b.Halt()
	return g.b.MustBuild()
}

// GenAliasProgram emits one flat program whose loads and stores are
// confined to 4 memory slots, so accesses alias constantly: dense
// store-to-load forwarding and memory-order-violation recovery traffic.
// Slow producers (div) feeding store addresses increase the chance loads
// speculate past unresolved stores.
func GenAliasProgram(rng *rand.Rand) *isa.Program {
	g := &gen{rng: rng, b: isa.NewBuilder()}
	g.b.MovImm(Base, int64(DataVA))
	g.b.FLoadImm(isa.F1, int64(math.Float64bits(2.0)))
	g.b.FLoadImm(isa.F2, int64(math.Float64bits(5.0)))
	slot := func() int64 { return int64(rng.Intn(4)) * 8 }
	for i := 0; i < 120; i++ {
		switch rng.Intn(6) {
		case 0:
			g.b.MovImm(g.reg(), int64(rng.Uint64()%100_000))
		case 1:
			g.b.Add(g.reg(), g.reg(), g.reg())
		case 2:
			g.b.Mul(g.reg(), g.reg(), g.reg())
		case 3:
			g.b.Load(g.reg(), Base, slot())
		case 4:
			g.b.Store(g.reg(), Base, slot())
		case 5:
			g.b.Div(g.reg(), g.reg(), g.reg())
		}
	}
	g.b.Halt()
	return g.b.MustBuild()
}

// NewDataSpace builds a fresh address space over its own physical memory
// with DataPages pages mapped at DataVA, filled with bytes drawn from a
// rand.Rand seeded with seedMem — so two spaces built with the same seed
// hold identical initial contents.
func NewDataSpace(seedMem int64) (*mem.AddressSpace, error) {
	phys := mem.NewPhysMem(16 << 20)
	as, err := mem.NewAddressSpace(phys, 1)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seedMem))
	for p := 0; p < DataPages; p++ {
		va := DataVA + mem.Addr(p)*mem.PageSize
		if _, err := as.MapNew(va, mem.FlagUser|mem.FlagWritable); err != nil {
			return nil, err
		}
		init := make([]byte, mem.PageSize)
		rng.Read(init)
		if err := as.WriteVirt(va, init); err != nil {
			return nil, err
		}
	}
	return as, nil
}
