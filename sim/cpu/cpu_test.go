package cpu

import (
	"math"
	"testing"

	"microscope/sim/cache"
	"microscope/sim/isa"
	"microscope/sim/mem"
)

// testRig bundles a core with one victim address space on context 0.
type testRig struct {
	core *Core
	as   *mem.AddressSpace
}

func newRig(t *testing.T, cfg Config) *testRig {
	t.Helper()
	phys := mem.NewPhysMem(16 << 20)
	core := NewCore(cfg, phys)
	as, err := mem.NewAddressSpace(phys, 1)
	if err != nil {
		t.Fatal(err)
	}
	core.Context(0).SetAddressSpace(as)
	// Default handler: make the page present on demand.
	core.SetFaultHandler(FaultHandlerFunc(func(f PageFault) FaultOutcome {
		if _, err := as.MapNew(mem.PageBase(f.VA), mem.FlagUser|mem.FlagWritable); err != nil {
			return FaultOutcome{Terminate: true}
		}
		return FaultOutcome{HandlerLatency: 100}
	}))
	return &testRig{core: core, as: as}
}

func (r *testRig) mapPage(t *testing.T, va mem.Addr) {
	t.Helper()
	if _, err := r.as.MapNew(va, mem.FlagUser|mem.FlagWritable); err != nil {
		t.Fatal(err)
	}
}

func (r *testRig) run(t *testing.T, p *isa.Program, maxCycles uint64) *Context {
	t.Helper()
	ctx := r.core.Context(0)
	ctx.SetProgram(p, 0)
	r.core.Run(maxCycles)
	if !ctx.Halted() {
		t.Fatalf("program did not halt in %d cycles (pc=%d)", maxCycles, ctx.PC())
	}
	return ctx
}

func TestStraightLineArithmetic(t *testing.T) {
	r := newRig(t, DefaultConfig())
	p := isa.NewBuilder().
		MovImm(isa.R1, 6).
		MovImm(isa.R2, 7).
		Mul(isa.R3, isa.R1, isa.R2).
		AddImm(isa.R4, isa.R3, 8).
		Sub(isa.R5, isa.R4, isa.R1).
		Div(isa.R6, isa.R5, isa.R2).
		Xor(isa.R7, isa.R6, isa.R6).
		MustBuild()
	// No halt: running off the end stops fetch; drain via Run.
	pp := isa.NewBuilder()
	for _, in := range p.Instrs {
		pp.Emit(in)
	}
	prog := pp.Halt().MustBuild()

	ctx := r.run(t, prog, 10_000)
	if got := ctx.Reg(isa.R3); got != 42 {
		t.Errorf("r3 = %d, want 42", got)
	}
	if got := ctx.Reg(isa.R4); got != 50 {
		t.Errorf("r4 = %d, want 50", got)
	}
	if got := ctx.Reg(isa.R5); got != 44 {
		t.Errorf("r5 = %d, want 44", got)
	}
	if got := ctx.Reg(isa.R6); got != 6 {
		t.Errorf("r6 = %d, want 6", got)
	}
	if got := ctx.Reg(isa.R7); got != 0 {
		t.Errorf("r7 = %d, want 0", got)
	}
}

func TestDivideByZeroYieldsZero(t *testing.T) {
	r := newRig(t, DefaultConfig())
	prog := isa.NewBuilder().
		MovImm(isa.R1, 100).
		MovImm(isa.R2, 0).
		Div(isa.R3, isa.R1, isa.R2).
		Halt().MustBuild()
	ctx := r.run(t, prog, 10_000)
	if got := ctx.Reg(isa.R3); got != 0 {
		t.Errorf("100/0 = %d, want 0", got)
	}
}

func TestFloatOps(t *testing.T) {
	r := newRig(t, DefaultConfig())
	bits := func(f float64) int64 { return int64(math.Float64bits(f)) }
	prog := isa.NewBuilder().
		FLoadImm(isa.F1, bits(1.5)).
		FLoadImm(isa.F2, bits(2.0)).
		FAdd(isa.F3, isa.F1, isa.F2).
		FMul(isa.F4, isa.F1, isa.F2).
		FDiv(isa.F5, isa.F4, isa.F2).
		Halt().MustBuild()
	ctx := r.run(t, prog, 10_000)
	if got := math.Float64frombits(ctx.Reg(isa.F3)); got != 3.5 {
		t.Errorf("fadd = %v", got)
	}
	if got := math.Float64frombits(ctx.Reg(isa.F4)); got != 3.0 {
		t.Errorf("fmul = %v", got)
	}
	if got := math.Float64frombits(ctx.Reg(isa.F5)); got != 1.5 {
		t.Errorf("fdiv = %v", got)
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	r := newRig(t, DefaultConfig())
	va := mem.Addr(0x10_0000)
	r.mapPage(t, va)
	prog := isa.NewBuilder().
		MovImm(isa.R1, int64(va)).
		MovImm(isa.R2, 0xbeef).
		Store(isa.R2, isa.R1, 16).
		Load(isa.R3, isa.R1, 16).
		Halt().MustBuild()
	ctx := r.run(t, prog, 100_000)
	if got := ctx.Reg(isa.R3); got != 0xbeef {
		t.Errorf("loaded %#x, want 0xbeef", got)
	}
	// The value must be in memory after commit.
	v, err := r.as.Read64Virt(va + 16)
	if err != nil || v != 0xbeef {
		t.Errorf("memory value = %#x, %v", v, err)
	}
}

// A load that issues while an older same-address store is in flight must
// forward the store's data (store-buffer forwarding), and the committed
// memory state must be the stored value.
func TestStoreToLoadForwarding(t *testing.T) {
	r := newRig(t, DefaultConfig())
	va := mem.Addr(0x10_0000)
	r.mapPage(t, va)
	if err := r.as.Write64Virt(va, 111); err != nil {
		t.Fatal(err)
	}
	prog := isa.NewBuilder().
		MovImm(isa.R1, int64(va)).
		MovImm(isa.R2, 222).
		Store(isa.R2, isa.R1, 0).
		Load(isa.R3, isa.R1, 0).
		Halt().MustBuild()
	ctx := r.run(t, prog, 100_000)
	if got := ctx.Reg(isa.R3); got != 222 {
		t.Errorf("load observed %d, want 222 (forwarded)", got)
	}
	v, _ := r.as.Read64Virt(va)
	if v != 222 {
		t.Errorf("committed value = %d, want 222", v)
	}
}

// A load that speculated past a store whose data was not yet ready must be
// squashed and re-executed when the store discovers the conflict (memory-
// order violation), ending with the store's value.
func TestMemoryOrderViolationSquash(t *testing.T) {
	r := newRig(t, DefaultConfig())
	va := mem.Addr(0x10_0000)
	cold := mem.Addr(0x90_0000)
	r.mapPage(t, va)
	r.mapPage(t, cold)
	if err := r.as.Write64Virt(va, 111); err != nil {
		t.Fatal(err)
	}
	prog := isa.NewBuilder().
		MovImm(isa.R1, int64(va)).
		MovImm(isa.R2, int64(cold)).
		Load(isa.R5, isa.R2, 0).     // slow: cold TLB, full page walk
		AddImm(isa.R6, isa.R5, 222). // store data arrives late
		Store(isa.R6, isa.R1, 0).
		Load(isa.R3, isa.R1, 0). // issues early with stale memory data
		Halt().MustBuild()
	ctx := r.run(t, prog, 1_000_000)
	if got := ctx.Reg(isa.R3); got != 222 {
		t.Errorf("r3 = %d, want 222 (violation must replay the load)", got)
	}
	if ctx.Stats().MemOrderViolations == 0 {
		t.Error("no memory-order violation recorded")
	}
}

// Loads to different addresses see memory, not the store buffer.
func TestLoadPastStoreDifferentAddress(t *testing.T) {
	r := newRig(t, DefaultConfig())
	va := mem.Addr(0x10_0000)
	r.mapPage(t, va)
	if err := r.as.Write64Virt(va+8, 77); err != nil {
		t.Fatal(err)
	}
	prog := isa.NewBuilder().
		MovImm(isa.R1, int64(va)).
		MovImm(isa.R2, 222).
		Store(isa.R2, isa.R1, 0).
		Load(isa.R3, isa.R1, 8). // different address: memory value
		Halt().MustBuild()
	ctx := r.run(t, prog, 100_000)
	if got := ctx.Reg(isa.R3); got != 77 {
		t.Errorf("load observed %d, want 77", got)
	}
}

func TestLoopExecutesCorrectIterations(t *testing.T) {
	r := newRig(t, DefaultConfig())
	prog := isa.NewBuilder().
		MovImm(isa.R1, 10). // counter
		MovImm(isa.R2, 0).  // accumulator
		Label("loop").
		AddImm(isa.R2, isa.R2, 3).
		AddImm(isa.R1, isa.R1, -1).
		Bne(isa.R1, isa.R0, "loop").
		Halt().MustBuild()
	ctx := r.run(t, prog, 100_000)
	if got := ctx.Reg(isa.R2); got != 30 {
		t.Errorf("accumulator = %d, want 30", got)
	}
	if ctx.Stats().Mispredicts == 0 {
		t.Error("loop ran with zero mispredicts (exit branch must mispredict at least once)")
	}
}

func TestBranchPredictorLearnsLoop(t *testing.T) {
	r := newRig(t, DefaultConfig())
	prog := isa.NewBuilder().
		MovImm(isa.R1, 200).
		Label("loop").
		AddImm(isa.R1, isa.R1, -1).
		Bne(isa.R1, isa.R0, "loop").
		Halt().MustBuild()
	ctx := r.run(t, prog, 1_000_000)
	mp := ctx.Stats().Mispredicts
	// A 2-bit counter mispredicts a handful of times, not per-iteration.
	if mp > 10 {
		t.Errorf("mispredicts = %d for 200 iterations; predictor not learning", mp)
	}
}

func TestColdTLBWalkIsSlow(t *testing.T) {
	r := newRig(t, DefaultConfig())
	va := mem.Addr(0x20_0000)
	r.mapPage(t, va)
	prog := isa.NewBuilder().
		MovImm(isa.R1, int64(va)).
		Rdtsc(isa.R10).
		Load(isa.R2, isa.R1, 0).
		Rdtsc(isa.R11).
		Load(isa.R3, isa.R1, 8).
		Rdtsc(isa.R12).
		Halt().MustBuild()
	ctx := r.run(t, prog, 100_000)
	cold := ctx.Reg(isa.R11) - ctx.Reg(isa.R10)
	warm := ctx.Reg(isa.R12) - ctx.Reg(isa.R11)
	// Cold: 4 page-table levels + data from memory ≈ 5×276 cycles.
	// Warm: TLB hit + L1 hit.
	if cold < 1000 {
		t.Errorf("cold access took %d cycles; walk not going to memory", cold)
	}
	if warm > 50 {
		t.Errorf("warm access took %d cycles; TLB/L1 not effective", warm)
	}
}

func TestPageFaultHandlerMapsOnDemand(t *testing.T) {
	r := newRig(t, DefaultConfig())
	va := mem.Addr(0x30_0000) // never mapped: demand paging via handler
	prog := isa.NewBuilder().
		MovImm(isa.R1, int64(va)).
		Load(isa.R2, isa.R1, 0).
		Halt().MustBuild()
	ctx := r.run(t, prog, 1_000_000)
	if ctx.Stats().PageFaults != 1 {
		t.Errorf("page faults = %d, want 1", ctx.Stats().PageFaults)
	}
	if ctx.Reg(isa.R2) != 0 {
		t.Errorf("loaded %d from fresh page, want 0", ctx.Reg(isa.R2))
	}
}

// TestReplayLoop is the core MicroScope mechanism: a handler that keeps
// the present bit clear forces the faulting load — and everything younger —
// to re-execute, an unbounded number of times, in a single logical run.
func TestReplayLoop(t *testing.T) {
	r := newRig(t, DefaultConfig())
	handleVA := mem.Addr(0x40_0000)
	r.mapPage(t, handleVA)

	// Clear the present bit (attack setup).
	if _, err := r.as.SetPresent(handleVA, false); err != nil {
		t.Fatal(err)
	}

	const wantReplays = 5
	replays := 0
	r.core.SetFaultHandler(FaultHandlerFunc(func(f PageFault) FaultOutcome {
		if f.VA != handleVA {
			t.Errorf("fault at %#x, want %#x", f.VA, handleVA)
		}
		replays++
		if replays < wantReplays {
			// Keep the present bit clear and re-flush the translation
			// path so the next walk is slow again (paper timeline 2).
			steps, _ := r.as.Walk(handleVA)
			for _, s := range steps {
				r.core.FlushPageStructures(s.EntryAddr)
			}
			return FaultOutcome{HandlerLatency: 500}
		}
		if _, err := r.as.SetPresent(handleVA, true); err != nil {
			t.Fatal(err)
		}
		return FaultOutcome{HandlerLatency: 500}
	}))

	prog := isa.NewBuilder().
		MovImm(isa.R1, int64(handleVA)).
		FLoadImm(isa.F1, int64(math.Float64bits(3.0))).
		FLoadImm(isa.F2, int64(math.Float64bits(1.5))).
		Load(isa.R2, isa.R1, 0). // replay handle
		FDiv(isa.F3, isa.F1, isa.F2).
		Halt().MustBuild()
	ctx := r.run(t, prog, 2_000_000)

	if replays != wantReplays {
		t.Errorf("handler invoked %d times, want %d", replays, wantReplays)
	}
	if ctx.Stats().PageFaults != wantReplays {
		t.Errorf("PageFaults = %d, want %d", ctx.Stats().PageFaults, wantReplays)
	}
	// The fdiv after the handle executed speculatively during EVERY
	// replay: the divider saw ~24 cycles of occupancy per replay.
	minBusy := uint64(wantReplays) * uint64(r.core.Config().FDivLat)
	if got := r.core.Ports().DivBusyCycles; got < minBusy {
		t.Errorf("DivBusyCycles = %d, want >= %d (speculative re-execution)", got, minBusy)
	}
	if got := math.Float64frombits(ctx.Reg(isa.F3)); got != 2.0 {
		t.Errorf("fdiv result = %v, want 2.0 (victim must make forward progress)", got)
	}
}

// TestSpeculativeCacheFootprint shows the transmitter: a load younger than
// the faulting replay handle fills the cache even though it never retires,
// and the footprint survives the squash — exactly what the AES attack
// probes.
func TestSpeculativeCacheFootprint(t *testing.T) {
	r := newRig(t, DefaultConfig())
	handleVA := mem.Addr(0x40_0000)
	secretVA := mem.Addr(0x50_0000)
	r.mapPage(t, handleVA)
	r.mapPage(t, secretVA)
	if _, err := r.as.SetPresent(handleVA, false); err != nil {
		t.Fatal(err)
	}
	secretPA, err := r.as.Translate(secretVA)
	if err != nil {
		t.Fatal(err)
	}

	released := false
	r.core.SetFaultHandler(FaultHandlerFunc(func(f PageFault) FaultOutcome {
		released = true
		if _, err := r.as.SetPresent(handleVA, true); err != nil {
			t.Fatal(err)
		}
		return FaultOutcome{HandlerLatency: 100}
	}))

	prog := isa.NewBuilder().
		MovImm(isa.R1, int64(handleVA)).
		MovImm(isa.R2, int64(secretVA)).
		Load(isa.R3, isa.R1, 0). // replay handle (faults)
		Load(isa.R4, isa.R2, 0). // transmitter: younger, independent
		Halt().MustBuild()

	ctx := r.core.Context(0)
	ctx.SetProgram(prog, 0)
	// Run until the fault is delivered, then check the footprint.
	r.core.RunUntil(func() bool { return released }, 1_000_000)
	if !released {
		t.Fatal("fault never delivered")
	}
	if lvl := r.core.Hierarchy().LevelOf(secretPA); lvl == cache.LevelMem {
		t.Error("speculative load left no cache footprint")
	}
}

// TestWalkShadowWindowBounded: instructions dependent on the faulting load
// must NOT execute during the walk shadow.
func TestDependentsDoNotExecuteSpeculatively(t *testing.T) {
	r := newRig(t, DefaultConfig())
	handleVA := mem.Addr(0x40_0000)
	r.mapPage(t, handleVA)
	if _, err := r.as.SetPresent(handleVA, false); err != nil {
		t.Fatal(err)
	}
	secretVA := mem.Addr(0x50_0000)
	r.mapPage(t, secretVA)
	secretPA, err := r.as.Translate(secretVA)
	if err != nil {
		t.Fatal(err)
	}

	released := false
	r.core.SetFaultHandler(FaultHandlerFunc(func(f PageFault) FaultOutcome {
		released = true
		// Terminate instead of resuming: we only examine the shadow.
		return FaultOutcome{Terminate: true}
	}))

	prog := isa.NewBuilder().
		MovImm(isa.R1, int64(handleVA)).
		MovImm(isa.R2, int64(secretVA)).
		Load(isa.R3, isa.R1, 0).     // faulting handle
		Add(isa.R4, isa.R3, isa.R2). // depends on handle
		Load(isa.R5, isa.R4, 0).     // dependent load: must not execute
		Halt().MustBuild()

	ctx := r.core.Context(0)
	ctx.SetProgram(prog, 0)
	r.core.RunUntil(func() bool { return released }, 1_000_000)
	// The dependent chain's address is handle-data + secretVA; since the
	// load never executed, secretPA must be untouched (and so must the
	// garbage address). Check secret page line is cold.
	if lvl := r.core.Hierarchy().LevelOf(secretPA); lvl != cache.LevelMem {
		t.Errorf("dependent load executed speculatively (footprint at %s)", lvl)
	}
}

// TestMispredictSquashAndRecovery: wrong-path work is squashed; the
// architectural result follows the correct path; transient footprints
// remain (Spectre-style residue, §9).
func TestMispredictSquashAndRecovery(t *testing.T) {
	r := newRig(t, DefaultConfig())
	wrongVA := mem.Addr(0x60_0000)
	r.mapPage(t, wrongVA)
	wrongPA, err := r.as.Translate(wrongVA)
	if err != nil {
		t.Fatal(err)
	}

	prog := isa.NewBuilder().
		MovImm(isa.R1, 1).
		MovImm(isa.R2, int64(wrongVA)).
		Beq(isa.R1, isa.R0, "wrong"). // never taken... but predictable as taken after priming
		MovImm(isa.R3, 7).
		Jmp("done").
		Label("wrong").
		Load(isa.R4, isa.R2, 0). // wrong-path load
		MovImm(isa.R3, 9).
		Label("done").
		Halt().MustBuild()

	// Prime the predictor so the branch at pc=2 predicts TAKEN (wrong).
	ctx := r.core.Context(0)
	ctx.Predictor().Prime(2, true, 5)
	ctx.SetProgram(prog, 0)
	r.core.Run(1_000_000)
	if !ctx.Halted() {
		t.Fatal("did not halt")
	}
	if got := ctx.Reg(isa.R3); got != 7 {
		t.Errorf("r3 = %d, want 7 (correct path)", got)
	}
	if got := ctx.Reg(isa.R4); got != 0 {
		t.Errorf("r4 = %d, wrong-path load retired!", got)
	}
	if ctx.Stats().Mispredicts == 0 {
		t.Error("no mispredict recorded")
	}
	if lvl := r.core.Hierarchy().LevelOf(wrongPA); lvl == cache.LevelMem {
		t.Error("wrong-path load left no transient footprint")
	}
}

// TestFenceBlocksSpeculation: with a fence between the replay handle and
// the transmitter, the transmitter never executes in the walk shadow.
func TestFenceBlocksSpeculation(t *testing.T) {
	r := newRig(t, DefaultConfig())
	handleVA := mem.Addr(0x40_0000)
	secretVA := mem.Addr(0x50_0000)
	r.mapPage(t, handleVA)
	r.mapPage(t, secretVA)
	if _, err := r.as.SetPresent(handleVA, false); err != nil {
		t.Fatal(err)
	}
	secretPA, err := r.as.Translate(secretVA)
	if err != nil {
		t.Fatal(err)
	}

	released := false
	r.core.SetFaultHandler(FaultHandlerFunc(func(f PageFault) FaultOutcome {
		released = true
		return FaultOutcome{Terminate: true}
	}))

	prog := isa.NewBuilder().
		MovImm(isa.R1, int64(handleVA)).
		MovImm(isa.R2, int64(secretVA)).
		Load(isa.R3, isa.R1, 0). // faulting handle
		Fence().
		Load(isa.R4, isa.R2, 0). // behind the fence: must not execute
		Halt().MustBuild()

	ctx := r.core.Context(0)
	ctx.SetProgram(prog, 0)
	r.core.RunUntil(func() bool { return released }, 1_000_000)
	if lvl := r.core.Hierarchy().LevelOf(secretPA); lvl != cache.LevelMem {
		t.Errorf("load behind fence executed (footprint at %s)", lvl)
	}
}

func TestRdtscMonotonicAndOrdered(t *testing.T) {
	r := newRig(t, DefaultConfig())
	prog := isa.NewBuilder().
		Rdtsc(isa.R1).
		MovImm(isa.R3, 5).
		Mul(isa.R4, isa.R3, isa.R3).
		Rdtsc(isa.R2).
		Halt().MustBuild()
	ctx := r.run(t, prog, 10_000)
	t1, t2 := ctx.Reg(isa.R1), ctx.Reg(isa.R2)
	if t2 <= t1 {
		t.Errorf("rdtsc not monotonic: %d then %d", t1, t2)
	}
}

func TestSubnormalFDivTakesLonger(t *testing.T) {
	cfg := DefaultConfig()
	r := newRig(t, cfg)
	sub := math.Float64frombits(1) // smallest subnormal
	timeOf := func(bitsA, bitsB uint64) uint64 {
		prog := isa.NewBuilder().
			FLoadImm(isa.F1, int64(bitsA)).
			FLoadImm(isa.F2, int64(bitsB)).
			Rdtsc(isa.R1).
			FDiv(isa.F3, isa.F1, isa.F2).
			FMov(isa.F4, isa.F3). // dependent: orders the final rdtsc
			Rdtsc(isa.R2).
			Halt().MustBuild()
		ctx := r.run(t, prog, 100_000)
		return ctx.Reg(isa.R2) - ctx.Reg(isa.R1)
	}
	normal := timeOf(math.Float64bits(3.0), math.Float64bits(1.5))
	subnormal := timeOf(math.Float64bits(sub), math.Float64bits(2.0))
	if subnormal < normal+uint64(cfg.SubnormalPenalty)/2 {
		t.Errorf("subnormal fdiv %d cycles vs normal %d; penalty not applied", subnormal, normal)
	}
}

func TestSMTPortContention(t *testing.T) {
	cfg := DefaultConfig()
	phys := mem.NewPhysMem(16 << 20)
	core := NewCore(cfg, phys)
	as0, _ := mem.NewAddressSpace(phys, 1)
	as1, _ := mem.NewAddressSpace(phys, 2)
	core.Context(0).SetAddressSpace(as0)
	core.Context(1).SetAddressSpace(as1)

	divLoop := func(iters int64) *isa.Program {
		return isa.NewBuilder().
			MovImm(isa.R1, iters).
			FLoadImm(isa.F1, int64(math.Float64bits(3.0))).
			FLoadImm(isa.F2, int64(math.Float64bits(1.5))).
			Label("loop").
			FDiv(isa.F3, isa.F1, isa.F2).
			FMov(isa.F1, isa.F3). // dependent chain: one div at a time per ctx
			AddImm(isa.R1, isa.R1, -1).
			Bne(isa.R1, isa.R0, "loop").
			Halt().MustBuild()
	}
	mulLoop := func(iters int64) *isa.Program {
		return isa.NewBuilder().
			MovImm(isa.R1, iters).
			MovImm(isa.R2, 3).
			Label("loop").
			Mul(isa.R3, isa.R2, isa.R2).
			AddImm(isa.R1, isa.R1, -1).
			Bne(isa.R1, isa.R0, "loop").
			Halt().MustBuild()
	}

	// Run 1: monitor divs alone.
	core.Context(0).SetProgram(divLoop(100), 0)
	start := core.Cycle()
	core.Run(1_000_000)
	alone := core.Cycle() - start

	// Run 2: monitor divs with a competing div thread.
	core2 := NewCore(cfg, phys)
	core2.Context(0).SetAddressSpace(as0)
	core2.Context(1).SetAddressSpace(as1)
	core2.Context(0).SetProgram(divLoop(100), 0)
	core2.Context(1).SetProgram(divLoop(100), 0)
	start = core2.Cycle()
	core2.Run(2_000_000)
	contended := core2.Cycle() - start

	// Run 3: monitor divs with a competing mul thread.
	core3 := NewCore(cfg, phys)
	core3.Context(0).SetAddressSpace(as0)
	core3.Context(1).SetAddressSpace(as1)
	core3.Context(0).SetProgram(divLoop(100), 0)
	core3.Context(1).SetProgram(mulLoop(100), 0)
	start = core3.Cycle()
	core3.RunUntil(func() bool { return core3.Context(0).Halted() }, 2_000_000)
	withMul := core3.Cycle() - start

	if contended < alone+alone/2 {
		t.Errorf("div vs div: %d cycles, alone %d; no port contention visible", contended, alone)
	}
	if withMul > alone+alone/4 {
		t.Errorf("div vs mul: %d cycles, alone %d; mul thread should not contend on divider", withMul, alone)
	}
}

func TestTxAbortRollsBackRegisters(t *testing.T) {
	r := newRig(t, DefaultConfig())
	prog := isa.NewBuilder().
		MovImm(isa.R1, 1).
		TxBegin("abort").
		MovImm(isa.R1, 2).
		TxAbort().
		MovImm(isa.R1, 3). // skipped: abort redirects
		Halt().
		Label("abort").
		MovImm(isa.R2, 99).
		Halt().MustBuild()
	ctx := r.run(t, prog, 100_000)
	if got := ctx.Reg(isa.R1); got != 1 {
		t.Errorf("r1 = %d, want 1 (rolled back)", got)
	}
	if got := ctx.Reg(isa.R2); got != 99 {
		t.Errorf("r2 = %d, abort handler did not run", got)
	}
	if got := ctx.Reg(isa.AbortReg); got != 1 {
		t.Errorf("abort reg = %d, want 1", got)
	}
	if ctx.InTx() {
		t.Error("still in transaction after abort")
	}
}

func TestTxCommitKeepsResults(t *testing.T) {
	r := newRig(t, DefaultConfig())
	prog := isa.NewBuilder().
		TxBegin("abort").
		MovImm(isa.R1, 42).
		TxEnd().
		Halt().
		Label("abort").
		MovImm(isa.R1, 7).
		Halt().MustBuild()
	ctx := r.run(t, prog, 100_000)
	if got := ctx.Reg(isa.R1); got != 42 {
		t.Errorf("r1 = %d, want 42", got)
	}
	if ctx.Stats().TxAborts != 0 {
		t.Errorf("TxAborts = %d", ctx.Stats().TxAborts)
	}
}

// TestFaultInTxAborts: a page fault inside a transaction aborts to the
// handler instead of trapping to the OS — the TSX property T-SGX uses to
// hide page faults from the malicious OS (§8).
func TestFaultInTxAborts(t *testing.T) {
	r := newRig(t, DefaultConfig())
	va := mem.Addr(0x70_0000)
	r.mapPage(t, va)
	if _, err := r.as.SetPresent(va, false); err != nil {
		t.Fatal(err)
	}
	osSawFault := false
	r.core.SetFaultHandler(FaultHandlerFunc(func(f PageFault) FaultOutcome {
		osSawFault = true
		return FaultOutcome{Terminate: true}
	}))
	prog := isa.NewBuilder().
		MovImm(isa.R1, int64(va)).
		TxBegin("abort").
		Load(isa.R2, isa.R1, 0). // faults inside tx
		TxEnd().
		Halt().
		Label("abort").
		MovImm(isa.R3, 1).
		Halt().MustBuild()
	ctx := r.run(t, prog, 1_000_000)
	if osSawFault {
		t.Error("OS saw the fault despite the transaction")
	}
	if ctx.Reg(isa.R3) != 1 {
		t.Error("abort handler did not run")
	}
	if ctx.Stats().TxAborts != 1 {
		t.Errorf("TxAborts = %d, want 1", ctx.Stats().TxAborts)
	}
}

func TestExternalTxAbort(t *testing.T) {
	r := newRig(t, DefaultConfig())
	prog := isa.NewBuilder().
		TxBegin("abort").
		Label("spin").
		AddImm(isa.R1, isa.R1, 1).
		Jmp("spin").
		Label("abort").
		MovImm(isa.R2, 5).
		Halt().MustBuild()
	ctx := r.core.Context(0)
	ctx.SetProgram(prog, 0)
	r.core.RunUntil(func() bool { return ctx.InTx() }, 100_000)
	if !ctx.InTx() {
		t.Fatal("transaction never started")
	}
	if !r.core.AbortTx(0, "test-induced") {
		t.Fatal("AbortTx reported no transaction")
	}
	r.core.Run(100_000)
	if !ctx.Halted() {
		t.Fatal("did not reach abort handler")
	}
	if ctx.Reg(isa.R2) != 5 {
		t.Error("abort handler did not run after external abort")
	}
	if r.core.AbortTx(0, "again") {
		t.Error("AbortTx succeeded with no active transaction")
	}
}

func TestRdrandDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) uint64 {
		cfg := DefaultConfig()
		cfg.RandSeed = seed
		r := newRig(t, cfg)
		prog := isa.NewBuilder().Rdrand(isa.R1).Halt().MustBuild()
		ctx := r.run(t, prog, 10_000)
		return ctx.Reg(isa.R1)
	}
	if run(1) != run(1) {
		t.Error("same seed produced different rdrand values")
	}
	if run(1) == run(2) {
		t.Error("different seeds produced identical rdrand values")
	}
}

// TestFencedRdrandBlocksTransmit: with the Intel fence (§7.2), the
// transmitter after RDRAND never executes while an older replay handle is
// outstanding — the replay-bias attack is defeated.
func TestFencedRdrandBlocksTransmit(t *testing.T) {
	for _, fenced := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.FencedRdrand = fenced
		r := newRig(t, cfg)
		handleVA := mem.Addr(0x40_0000)
		arrayVA := mem.Addr(0x50_0000)
		r.mapPage(t, handleVA)
		r.mapPage(t, arrayVA)
		if _, err := r.as.SetPresent(handleVA, false); err != nil {
			t.Fatal(err)
		}
		arrayPA, err := r.as.Translate(arrayVA)
		if err != nil {
			t.Fatal(err)
		}
		released := false
		r.core.SetFaultHandler(FaultHandlerFunc(func(f PageFault) FaultOutcome {
			released = true
			return FaultOutcome{Terminate: true}
		}))
		prog := isa.NewBuilder().
			MovImm(isa.R1, int64(handleVA)).
			MovImm(isa.R2, int64(arrayVA)).
			Load(isa.R3, isa.R1, 0). // replay handle
			Rdrand(isa.R4).
			AndImm(isa.R5, isa.R4, 0). // mask to 0 so the address is deterministic
			Add(isa.R6, isa.R2, isa.R5).
			Load(isa.R7, isa.R6, 0). // transmitter
			Halt().MustBuild()
		ctx := r.core.Context(0)
		ctx.SetProgram(prog, 0)
		r.core.RunUntil(func() bool { return released }, 1_000_000)
		leaked := r.core.Hierarchy().LevelOf(arrayPA) != cache.LevelMem
		if fenced && leaked {
			t.Error("fenced RDRAND: transmitter still leaked")
		}
		if !fenced && !leaked {
			t.Error("unfenced RDRAND: transmitter did not leak")
		}
	}
}

func TestContextIsolationAcrossSMT(t *testing.T) {
	cfg := DefaultConfig()
	phys := mem.NewPhysMem(16 << 20)
	core := NewCore(cfg, phys)
	as0, _ := mem.NewAddressSpace(phys, 1)
	as1, _ := mem.NewAddressSpace(phys, 2)
	core.Context(0).SetAddressSpace(as0)
	core.Context(1).SetAddressSpace(as1)
	p0 := isa.NewBuilder().MovImm(isa.R1, 10).Halt().MustBuild()
	p1 := isa.NewBuilder().MovImm(isa.R1, 20).Halt().MustBuild()
	core.Context(0).SetProgram(p0, 0)
	core.Context(1).SetProgram(p1, 0)
	core.Run(10_000)
	if core.Context(0).Reg(isa.R1) != 10 || core.Context(1).Reg(isa.R1) != 20 {
		t.Error("SMT contexts interfered with each other's registers")
	}
}

func TestTracerSeesLifecycle(t *testing.T) {
	r := newRig(t, DefaultConfig())
	var kinds = map[EventKind]int{}
	r.core.SetTracer(TracerFunc(func(ev Event) { kinds[ev.Kind]++ }))
	prog := isa.NewBuilder().MovImm(isa.R1, 1).Halt().MustBuild()
	r.run(t, prog, 10_000)
	for _, k := range []EventKind{EvFetch, EvIssue, EvComplete, EvRetire} {
		if kinds[k] == 0 {
			t.Errorf("no %s events traced", k)
		}
	}
}

// A traced core records why each fault flushed the pipeline. The texts
// are formatted only while a tracer is attached: a delivered fault's
// EvFault carries its mem.Fault text, and a fault inside a transaction
// records its pc in the EvTxAbort.
func TestTracedFaultDetails(t *testing.T) {
	r := newRig(t, DefaultConfig())
	demandVA := mem.Addr(0x30_0000) // never mapped: the handler maps it
	txVA := mem.Addr(0x70_0000)
	r.mapPage(t, txVA)
	if _, err := r.as.SetPresent(txVA, false); err != nil {
		t.Fatal(err)
	}
	var delivered []PageFault
	r.core.SetFaultHandler(FaultHandlerFunc(func(f PageFault) FaultOutcome {
		delivered = append(delivered, f)
		if _, err := r.as.MapNew(mem.PageBase(f.VA), mem.FlagUser|mem.FlagWritable); err != nil {
			return FaultOutcome{Terminate: true}
		}
		return FaultOutcome{HandlerLatency: 100}
	}))
	var faults, aborts []Event
	r.core.SetTracer(TracerFunc(func(ev Event) {
		switch ev.Kind {
		case EvFault:
			faults = append(faults, ev)
		case EvTxAbort:
			aborts = append(aborts, ev)
		}
	}))
	const txLoadPC = 4
	prog := isa.NewBuilder().
		MovImm(isa.R1, int64(demandVA)).
		Load(isa.R2, isa.R1, 0). // delivered to the handler
		MovImm(isa.R3, int64(txVA)).
		TxBegin("abort").
		Load(isa.R4, isa.R3, 0). // pc 4: aborts the transaction
		TxEnd().
		Halt().
		Label("abort").
		Halt().MustBuild()
	if op := prog.At(txLoadPC).Op; op != isa.OpLoad {
		t.Fatalf("pc %d is %v, want the in-transaction load", txLoadPC, op)
	}
	r.run(t, prog, 1_000_000)

	if len(delivered) != 1 || len(faults) != 1 {
		t.Fatalf("%d faults delivered, %d traced; want 1 each", len(delivered), len(faults))
	}
	f := delivered[0]
	want := (&mem.Fault{VA: f.VA, Level: f.Level, Write: f.Write}).Error()
	if ev := faults[0]; ev.Detail != want || ev.PC != f.PC || ev.Addr != demandVA {
		t.Errorf("EvFault pc=%d addr=%#x Detail %q; want pc=%d addr=%#x %q",
			ev.PC, ev.Addr, ev.Detail, f.PC, demandVA, want)
	}
	if len(aborts) != 1 || aborts[0].Detail != "page fault in tx at pc=4" {
		t.Errorf("EvTxAbort events %+v, want one with Detail %q", aborts, "page fault in tx at pc=4")
	}
}

func TestHandlerLatencyStallsOnlyFaultingContext(t *testing.T) {
	cfg := DefaultConfig()
	phys := mem.NewPhysMem(16 << 20)
	core := NewCore(cfg, phys)
	as0, _ := mem.NewAddressSpace(phys, 1)
	as1, _ := mem.NewAddressSpace(phys, 2)
	core.Context(0).SetAddressSpace(as0)
	core.Context(1).SetAddressSpace(as1)

	va := mem.Addr(0x40_0000)
	if _, err := as0.MapNew(va, mem.FlagUser); err != nil {
		t.Fatal(err)
	}
	if _, err := as0.SetPresent(va, false); err != nil {
		t.Fatal(err)
	}
	core.SetFaultHandler(FaultHandlerFunc(func(f PageFault) FaultOutcome {
		if _, err := as0.SetPresent(va, true); err != nil {
			panic(err)
		}
		return FaultOutcome{HandlerLatency: 10_000}
	}))

	faulter := isa.NewBuilder().
		MovImm(isa.R1, int64(va)).
		Load(isa.R2, isa.R1, 0).
		Halt().MustBuild()
	spinner := isa.NewBuilder().
		MovImm(isa.R1, 2000).
		Label("loop").
		AddImm(isa.R1, isa.R1, -1).
		Bne(isa.R1, isa.R0, "loop").
		Halt().MustBuild()
	core.Context(0).SetProgram(faulter, 0)
	core.Context(1).SetProgram(spinner, 0)
	core.Run(1_000_000)
	if !core.Context(0).Halted() || !core.Context(1).Halted() {
		t.Fatal("contexts did not halt")
	}
	// The spinner retires ~3 instructions per iteration; with the faulter
	// stalled 10k cycles the spinner must have finished long before.
	if core.Context(0).Stats().StallCycles < 10_000 {
		t.Errorf("faulter stall cycles = %d", core.Context(0).Stats().StallCycles)
	}
	if core.Context(1).Stats().StallCycles != 0 {
		t.Errorf("spinner stalled %d cycles", core.Context(1).Stats().StallCycles)
	}
}

func TestWriteProtectionFaults(t *testing.T) {
	r := newRig(t, DefaultConfig())
	va := mem.Addr(0x80_0000)
	if _, err := r.as.MapNew(va, mem.FlagUser); err != nil { // read-only
		t.Fatal(err)
	}
	sawWriteFault := false
	r.core.SetFaultHandler(FaultHandlerFunc(func(f PageFault) FaultOutcome {
		sawWriteFault = f.Write
		return FaultOutcome{Terminate: true}
	}))
	prog := isa.NewBuilder().
		MovImm(isa.R1, int64(va)).
		MovImm(isa.R2, 1).
		Store(isa.R2, isa.R1, 0).
		Halt().MustBuild()
	ctx := r.core.Context(0)
	ctx.SetProgram(prog, 0)
	r.core.Run(1_000_000)
	if !sawWriteFault {
		t.Error("write to read-only page did not fault with Write=true")
	}
}
