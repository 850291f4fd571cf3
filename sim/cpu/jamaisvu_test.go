package cpu

import (
	"testing"

	"microscope/sim/cache"
	"microscope/sim/isa"
	"microscope/sim/mem"
)

// Tests for the PR 9 defense hooks: the Jamais Vu squash-counter
// detector, the Sakalis-style selective speculative delay, and the SIMF
// multi-flush primitive. Each hook is config-gated; DefaultConfig keeps
// all of them off, so these tests opt in explicitly.

// jvRig builds a rig whose handler refuses to fix the handle page for
// the first refuse faults (the MicroScope replay loop), then restores
// the present bit so the victim completes.
func jvRig(t *testing.T, cfg Config, refuse int) (*testRig, mem.Addr, *int) {
	t.Helper()
	r := newRig(t, cfg)
	handleVA := mem.Addr(0x40_0000)
	r.mapPage(t, handleVA)
	if _, err := r.as.SetPresent(handleVA, false); err != nil {
		t.Fatal(err)
	}
	faults := 0
	r.core.SetFaultHandler(FaultHandlerFunc(func(f PageFault) FaultOutcome {
		faults++
		if faults <= refuse {
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
	return r, handleVA, &faults
}

func replayVictim(handleVA mem.Addr) *isa.Program {
	return isa.NewBuilder().
		MovImm(isa.R1, int64(handleVA)).
		Load(isa.R2, isa.R1, 0). // replay handle
		AddImm(isa.R3, isa.R2, 1).
		Halt().MustBuild()
}

// TestJamaisVuAlarmOnReplayLoop: the same PC squashing past the
// threshold without retiring is the replay signature — exactly one
// alarm fires, when the counter crosses the line.
func TestJamaisVuAlarmOnReplayLoop(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SquashThreshold = 3
	r, handleVA, _ := jvRig(t, cfg, 6)
	ctx := r.run(t, replayVictim(handleVA), 2_000_000)

	if got := ctx.Stats().PageFaults; got != 7 {
		t.Fatalf("PageFaults = %d, want 7", got)
	}
	if got := ctx.Stats().ReplayAlarms; got != 1 {
		t.Errorf("ReplayAlarms = %d, want 1 (alarm exactly at threshold crossing)", got)
	}
}

// TestJamaisVuBelowThresholdSilent: fewer squashes than the threshold
// never alarm.
func TestJamaisVuBelowThresholdSilent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SquashThreshold = 6
	r, handleVA, _ := jvRig(t, cfg, 4)
	ctx := r.run(t, replayVictim(handleVA), 2_000_000)
	if got := ctx.Stats().ReplayAlarms; got != 0 {
		t.Errorf("ReplayAlarms = %d, want 0 (only 5 faults, threshold 6)", got)
	}
}

// TestJamaisVuRetireClearsCounter: benign demand paging faults many
// times from the SAME load PC (a loop touching fresh pages), but the
// load retires after every fixed fault, clearing its counter — no
// false alarm, no matter how many pages it touches.
func TestJamaisVuRetireClearsCounter(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SquashThreshold = 3
	r := newRig(t, cfg) // default handler maps on demand

	const pages = 8
	base := mem.Addr(0x30_0000)
	// for i := 0..pages: load [base + i*PageSize]  (same load PC each time)
	prog := isa.NewBuilder().
		MovImm(isa.R1, int64(base)).
		MovImm(isa.R2, pages).
		Label("loop").
		Load(isa.R3, isa.R1, 0).
		AddImm(isa.R1, isa.R1, int64(mem.PageSize)).
		AddImm(isa.R2, isa.R2, -1).
		Blt(isa.R0, isa.R2, "loop").
		Halt().MustBuild()

	ctx := r.run(t, prog, 2_000_000)
	if got := ctx.Stats().PageFaults; got < pages {
		t.Fatalf("PageFaults = %d, want >= %d (one per fresh page)", got, pages)
	}
	if got := ctx.Stats().ReplayAlarms; got != 0 {
		t.Errorf("ReplayAlarms = %d, want 0 (retire must clear the counter)", got)
	}
}

// TestJamaisVuEpochClearsCounters: with an epoch shorter than the
// handler latency, every fault lands in a fresh epoch and the counter
// restarts — the detector stays silent even against a real replay
// loop. (Thresholds and epochs trade off: this is the Jamais Vu
// paper's epoch-boundary evasion window.)
func TestJamaisVuEpochClearsCounters(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SquashThreshold = 3
	cfg.SquashEpoch = 200 // handler latency is 500: every fault a new epoch
	r, handleVA, _ := jvRig(t, cfg, 8)
	ctx := r.run(t, replayVictim(handleVA), 2_000_000)
	if got := ctx.Stats().PageFaults; got != 9 {
		t.Fatalf("PageFaults = %d, want 9", got)
	}
	if got := ctx.Stats().ReplayAlarms; got != 0 {
		t.Errorf("ReplayAlarms = %d, want 0 (epoch clears between faults)", got)
	}
}

// TestJamaisVuDisabledCountsNothing: threshold 0 keeps the detector
// off — no alarms and no counter state on default configs.
func TestJamaisVuDisabledCountsNothing(t *testing.T) {
	r, handleVA, _ := jvRig(t, DefaultConfig(), 10)
	ctx := r.run(t, replayVictim(handleVA), 2_000_000)
	if got := ctx.Stats().ReplayAlarms; got != 0 {
		t.Errorf("ReplayAlarms = %d, want 0 with detector off", got)
	}
	if ctx.jvCounts != nil {
		t.Error("jvCounts allocated with detector off")
	}
}

// TestDelaySpeculativeBlocksTransmitter reruns the speculative
// cache-footprint experiment under the selective-delay gate: the
// younger secret load must NOT fill the cache while the replay handle
// is in flight — the transmit channel the paper's monitor reads is
// closed — yet the program still completes with the right value.
func TestDelaySpeculativeBlocksTransmitter(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DelaySpeculative = true
	r := newRig(t, cfg)
	handleVA := mem.Addr(0x40_0000)
	secretVA := mem.Addr(0x50_0000)
	r.mapPage(t, handleVA)
	r.mapPage(t, secretVA)
	if _, err := r.as.SetPresent(handleVA, false); err != nil {
		t.Fatal(err)
	}
	if err := r.as.WriteVirt(secretVA, []byte{42}); err != nil {
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
	r.core.RunUntil(func() bool { return released }, 1_000_000)
	if !released {
		t.Fatal("fault never delivered")
	}
	if lvl := r.core.Hierarchy().LevelOf(secretPA); lvl != cache.LevelMem {
		t.Errorf("transmitter filled %v during the squash window despite the delay gate", lvl)
	}

	// The gate must not deadlock: once the handle is non-speculative
	// the program drains normally.
	r.core.Run(2_000_000)
	if !ctx.Halted() {
		t.Fatal("victim deadlocked under DelaySpeculative")
	}
	if got := ctx.Reg(isa.R4); got != 42 {
		t.Errorf("secret load = %d, want 42", got)
	}
}

// TestDelaySpeculativeOffLeaksFootprint is the control for the test
// above: same program, gate off, footprint present — proving the gate
// (not some unrelated change) closes the channel.
func TestDelaySpeculativeOffLeaksFootprint(t *testing.T) {
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
		Load(isa.R3, isa.R1, 0).
		Load(isa.R4, isa.R2, 0).
		Halt().MustBuild()
	r.core.Context(0).SetProgram(prog, 0)
	r.core.RunUntil(func() bool { return released }, 1_000_000)
	if !released {
		t.Fatal("fault never delivered")
	}
	if lvl := r.core.Hierarchy().LevelOf(secretPA); lvl == cache.LevelMem {
		t.Error("control: no speculative footprint even without the gate")
	}
}

// TestFlushMicroarchScrubsStructures: the SIMF primitive leaves cache,
// TLB and page-walk cache cold in one call.
func TestFlushMicroarchScrubsStructures(t *testing.T) {
	r := newRig(t, DefaultConfig())
	dataVA := mem.Addr(0x60_0000)
	r.mapPage(t, dataVA)
	dataPA, err := r.as.Translate(dataVA)
	if err != nil {
		t.Fatal(err)
	}
	prog := isa.NewBuilder().
		MovImm(isa.R1, int64(dataVA)).
		Load(isa.R2, isa.R1, 0).
		Halt().MustBuild()
	r.run(t, prog, 1_000_000)

	if lvl := r.core.Hierarchy().LevelOf(dataPA); lvl == cache.LevelMem {
		t.Fatal("warmup left the line uncached")
	}
	if r.core.TLBs().L1D.Len() == 0 {
		t.Fatal("warmup left no TLB entries")
	}

	r.core.FlushMicroarch(0)

	if lvl := r.core.Hierarchy().LevelOf(dataPA); lvl != cache.LevelMem {
		t.Errorf("cache line survived the multi-flush at %v", lvl)
	}
	if n := r.core.TLBs().L1D.Len(); n != 0 {
		t.Errorf("%d dTLB entries survived the multi-flush", n)
	}
	if n := r.core.TLBs().L2.Len(); n != 0 {
		t.Errorf("%d sTLB entries survived the multi-flush", n)
	}
}

// TestJamaisVuSnapshotRoundTrip: mid-replay counter state survives
// snapshot/restore, and the restored machine raises the same alarm at
// the same point.
func TestJamaisVuSnapshotRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SquashThreshold = 6
	r, handleVA, faults := jvRig(t, cfg, 8)
	ctx := r.core.Context(0)
	ctx.SetProgram(replayVictim(handleVA), 0)

	// Run to mid-replay: counters hot, below threshold.
	r.core.RunUntil(func() bool { return *faults >= 3 }, 2_000_000)
	if *faults < 3 || ctx.Stats().ReplayAlarms != 0 {
		t.Fatalf("bad checkpoint point: faults=%d alarms=%d", *faults, ctx.Stats().ReplayAlarms)
	}
	if len(ctx.jvCounts) == 0 {
		t.Fatal("no live counter state to snapshot")
	}

	coreSnap, err := r.core.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	physSnap := r.core.Phys().Snapshot()
	faultsAtSnap := *faults

	r.core.Run(2_000_000)
	if !ctx.Halted() {
		t.Fatal("first pass did not halt")
	}
	wantAlarms := ctx.Stats().ReplayAlarms
	if wantAlarms != 1 {
		t.Fatalf("first pass ReplayAlarms = %d, want 1", wantAlarms)
	}
	wantCycle := r.core.Cycle()

	if err := r.core.Phys().Restore(physSnap); err != nil {
		t.Fatal(err)
	}
	if err := r.core.Restore(coreSnap); err != nil {
		t.Fatal(err)
	}
	if len(ctx.jvCounts) == 0 {
		t.Fatal("restore dropped the squash counters")
	}
	*faults = faultsAtSnap
	r.core.Run(2_000_000)
	if !ctx.Halted() {
		t.Fatal("restored pass did not halt")
	}
	if got := ctx.Stats().ReplayAlarms; got != wantAlarms {
		t.Errorf("restored ReplayAlarms = %d, want %d", got, wantAlarms)
	}
	if got := r.core.Cycle(); got != wantCycle {
		t.Errorf("restored final cycle = %d, want %d (bit-identical resume)", got, wantCycle)
	}
}
