package cpu

import (
	"fmt"
	"math"
	"testing"

	"microscope/sim/cpu/cputest"
	"microscope/sim/isa"
	"microscope/sim/mem"
)

var coreSink *Core

// BenchmarkNewCore is the per-boot cost of the core's microarchitectural
// state (caches, TLBs, PWC, ROBs), which the verifier pays on every
// differential trial.
func BenchmarkNewCore(b *testing.B) {
	phys := mem.NewPhysMem(16 << 20)
	cfg := DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		coreSink = NewCore(cfg, phys)
	}
}

// convoyProgram is the Fig. 10 port-contention monitor loop (attack/monitor
// PortContention with two divisions per sample), storing every sample to
// one slot so it can run forever inside the mapped data page.
func convoyProgram() *isa.Program {
	return isa.NewBuilder().
		MovImm(isa.R1, int64(cputest.DataVA)).
		MovImm(isa.R2, math.MaxInt64).
		MovImm(isa.R3, 0).
		FLoadImm(isa.F0, int64(math.Float64bits(3.0))).
		FLoadImm(isa.F1, int64(math.Float64bits(1.5))).
		Label("loop").
		Rdtsc(isa.R4).
		FDiv(isa.F2, isa.F0, isa.F1).
		FDiv(isa.F2, isa.F0, isa.F1).
		FMov(isa.F3, isa.F2).
		Rdtsc(isa.R5).
		Sub(isa.R6, isa.R5, isa.R4).
		Store(isa.R6, isa.R1, 0).
		AddImm(isa.R3, isa.R3, 1).
		Blt(isa.R3, isa.R2, "loop").
		Halt().MustBuild()
}

// storeLoadProgram is an aliasing loop. Each iteration's first store
// takes its address from a divide, so the younger load of the same word
// executes first and the store's issue squashes it (a memory-order
// violation). The second load's address waits on the data of the store
// just before it, so that store has issued and the load forwards from
// it.
func storeLoadProgram() *isa.Program {
	return isa.NewBuilder().
		MovImm(isa.R1, int64(cputest.DataVA)).
		MovImm(isa.R2, math.MaxInt64).
		MovImm(isa.R3, 0).
		MovImm(isa.R5, 0).
		MovImm(isa.R6, 1).
		Label("loop").
		Div(isa.R4, isa.R5, isa.R6).
		Add(isa.R7, isa.R1, isa.R4).
		Store(isa.R3, isa.R7, 0).
		Load(isa.R8, isa.R1, 0).
		Store(isa.R8, isa.R1, 8).
		AndImm(isa.R10, isa.R8, 0).
		Add(isa.R10, isa.R1, isa.R10).
		Load(isa.R9, isa.R10, 8).
		AddImm(isa.R3, isa.R3, 1).
		Blt(isa.R3, isa.R2, "loop").
		Halt().MustBuild()
}

// replayHandleVA is the first page past cputest's mapped data region:
// its PTE is not present, so a load from it walks all four levels and
// faults.
const replayHandleVA = cputest.DataVA + cputest.DataPages*mem.PageSize

// replayWindowProgram is a MicroScope replay handle in front of its
// transient window: a load from replayHandleVA, then 256 instructions
// shaped like an AES round (table lookups whose addresses come from
// earlier results, and the ALU ops between them). The handle never
// retires, so the window is squashed and fetched again on every fault.
func replayWindowProgram() *isa.Program {
	b := isa.NewBuilder().
		MovImm(isa.R1, int64(cputest.DataVA)).
		MovImm(isa.R2, 1).
		MovImm(isa.R3, 7).
		MovImm(isa.R9, int64(replayHandleVA)).
		Load(isa.R10, isa.R9, 0)
	for i := 0; i < 32; i++ {
		b.Add(isa.R2, isa.R2, isa.R3).
			Load(isa.R4, isa.R1, int64(8*i)).
			Xor(isa.R5, isa.R4, isa.R2).
			Mul(isa.R6, isa.R5, isa.R3).
			ShrImm(isa.R7, isa.R6, 3).
			AndImm(isa.R7, isa.R7, 0xff8).
			Add(isa.R8, isa.R1, isa.R7).
			Load(isa.R11, isa.R8, 0)
	}
	return b.Halt().MustBuild()
}

// benchStep runs prog alone on context 0 of a default core, warms it up,
// then times Run in chunks of 1,024 simulated cycles. Beside ns/op it
// reports host time per stepped cycle: the cycles fast-forward could
// not skip, which carry all of the engine's cost. setup, when non-nil,
// runs on the loaded core before the warm-up.
func benchStep(b *testing.B, prog *isa.Program, setup func(*Core, *mem.AddressSpace), warmed func(*Context) error) {
	c := benchCore(b, prog, setup)
	if err := warmed(c.Context(0)); err != nil {
		b.Fatal(err)
	}
	cycle, skipped := c.Cycle(), c.SkippedCycles()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Run(1024)
	}
	b.StopTimer()
	stepped := c.Cycle() - cycle - (c.SkippedCycles() - skipped)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(stepped), "ns/stepped-cycle")
	if c.Halted() {
		b.Fatal("benchmark loop halted")
	}
}

// benchCore loads prog alone on context 0 of a default core over
// cputest's data space, runs setup (when non-nil), and runs 20,000
// cycles.
func benchCore(b *testing.B, prog *isa.Program, setup func(*Core, *mem.AddressSpace)) *Core {
	as, err := cputest.NewDataSpace(1)
	if err != nil {
		b.Fatal(err)
	}
	c := NewCore(DefaultConfig(), as.Phys())
	ctx := c.Context(0)
	ctx.SetAddressSpace(as)
	ctx.SetProgram(prog, 0)
	if setup != nil {
		setup(c, as)
	}
	c.Run(20_000)
	return c
}

// convoyFull checks that the divider convoy filled the ROB.
func convoyFull(ctx *Context) error {
	if !ctx.rob.Full() {
		return fmt.Errorf("ROB holds %d of %d entries after warm-up", ctx.rob.Len(), ctx.rob.Cap())
	}
	return nil
}

// BenchmarkStepDividerConvoy is the issue stage's Fig. 10 case: a full
// ROB of monitor iterations queued behind the non-pipelined divider.
func BenchmarkStepDividerConvoy(b *testing.B) {
	benchStep(b, convoyProgram(), nil, convoyFull)
}

// replayHandler installs the replay fault handler of
// replayWindowProgram: it never maps the handle's page and flushes its
// translation path from the caches and the page-walk cache, as
// MicroScope's module does, so every walk is slow, the window fills the
// ROB behind the handle, and every fault squashes and re-fetches it.
func replayHandler(c *Core, as *mem.AddressSpace) {
	steps, _ := as.Walk(replayHandleVA) // the leaf is not present: a fault with every step
	c.SetFaultHandler(FaultHandlerFunc(func(PageFault) FaultOutcome {
		for _, s := range steps {
			c.FlushPageStructures(s.EntryAddr)
		}
		return FaultOutcome{HandlerLatency: 1000}
	}))
}

// BenchmarkStepReplayWindow is the replay case of the AES key sweep
// (replayHandler).
func BenchmarkStepReplayWindow(b *testing.B) {
	benchStep(b, replayWindowProgram(), replayHandler, func(ctx *Context) error {
		// The first walk is short and faults before the window fills;
		// every later one starts from a flushed translation path.
		st := ctx.stats
		if st.PageFaults < 2 || st.Squashed < 180*(st.PageFaults-1) {
			return fmt.Errorf("%d faults squashed %d entries during warm-up, want >= 180 per replay", st.PageFaults, st.Squashed)
		}
		return nil
	})
}

// BenchmarkStepStoreLoad is the load/store path: store-to-load
// forwarding and a memory-order violation squash every iteration.
func BenchmarkStepStoreLoad(b *testing.B) {
	benchStep(b, storeLoadProgram(), nil, func(ctx *Context) error {
		if ctx.stats.MemOrderViolations == 0 {
			return fmt.Errorf("no memory-order violation during warm-up")
		}
		return nil
	})
}

// pendingCore is a core mid-run with a full ROB in which some operands
// still wait on their producers: the divider convoy after warm-up.
func pendingCore(b *testing.B) *Core {
	c := benchCore(b, convoyProgram(), nil)
	ctx := c.Context(0)
	if err := convoyFull(ctx); err != nil {
		b.Fatal(err)
	}
	pending := 0
	for _, e := range ctx.rob.Entries() {
		for _, op := range e.Src {
			if !op.Ready {
				pending++
			}
		}
	}
	if pending == 0 {
		b.Fatal("no operand waits on a producer")
	}
	return c
}

// BenchmarkCoreSnapshot is the cost of capturing a core image: the
// per-context registers, ROB entries with their operand links and
// rename table, predictors, caches and TLBs.
func BenchmarkCoreSnapshot(b *testing.B) {
	c := pendingCore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoreRestore is the cost of restoring that image onto the
// core it was taken from.
func BenchmarkCoreRestore(b *testing.B) {
	c := pendingCore(b)
	s, err := c.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Restore(s); err != nil {
			b.Fatal(err)
		}
	}
}
