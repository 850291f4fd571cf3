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

// benchStep runs prog alone on context 0 of a default core, warms it up,
// then times Run in chunks of 1,024 simulated cycles. Beside ns/op it
// reports host time per stepped cycle: the cycles fast-forward could
// not skip, which carry all of the engine's cost.
func benchStep(b *testing.B, prog *isa.Program, warmed func(*Context) error) {
	as, err := cputest.NewDataSpace(1)
	if err != nil {
		b.Fatal(err)
	}
	c := NewCore(DefaultConfig(), as.Phys())
	ctx := c.Context(0)
	ctx.SetAddressSpace(as)
	ctx.SetProgram(prog, 0)
	c.Run(20_000)
	if err := warmed(ctx); err != nil {
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

// BenchmarkStepDividerConvoy is the issue stage's Fig. 10 case: a full
// ROB of monitor iterations queued behind the non-pipelined divider.
func BenchmarkStepDividerConvoy(b *testing.B) {
	benchStep(b, convoyProgram(), func(ctx *Context) error {
		if !ctx.rob.Full() {
			return fmt.Errorf("ROB holds %d of %d entries after warm-up", ctx.rob.Len(), ctx.rob.Cap())
		}
		return nil
	})
}

// BenchmarkStepStoreLoad is the load/store path: store-to-load
// forwarding and a memory-order violation squash every iteration.
func BenchmarkStepStoreLoad(b *testing.B) {
	benchStep(b, storeLoadProgram(), func(ctx *Context) error {
		if ctx.stats.MemOrderViolations == 0 {
			return fmt.Errorf("no memory-order violation during warm-up")
		}
		return nil
	})
}
