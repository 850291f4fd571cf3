package cpu

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"microscope/sim/isa"
	"microscope/sim/mem"
)

// Edge-case tests for the event-driven fast-forward engine: each scenario
// is run with Config.FastForward on and off and the two runs must produce
// identical cycle-stamped event streams and final cycle counts. The
// scenarios target the boundaries of the next-event computation: a skip
// landing exactly on a handler-stall expiry, wakeups keyed to the
// non-pipelined divider's busy-until cycle, two SMT contexts waking
// simultaneously, and RunUntil's condition-evaluation schedule.

type ffTrace struct {
	hash    uint64
	events  int
	cycles  uint64
	skipped uint64
}

// ffCompare builds two identical rigs differing only in FastForward, lets
// setup load programs/handlers, runs both, and requires identical traces.
// It returns the number of cycles the skip-on run jumped over, which the
// caller asserts is nonzero when the scenario is meant to exercise a skip.
func ffCompare(t *testing.T, setup func(t *testing.T, r *testRig), maxCycles uint64) uint64 {
	t.Helper()
	var runs [2]ffTrace
	for i, ff := range []bool{true, false} {
		cfg := DefaultConfig()
		cfg.FastForward = ff
		r := newRig(t, cfg)
		h := fnv.New64a()
		n := 0
		r.core.SetTracer(TracerFunc(func(ev Event) {
			n++
			fmt.Fprintf(h, "%d|%d|%d|%d|%v|%s\n",
				ev.Cycle, ev.Context, ev.Kind, ev.PC, ev.Instr, ev.Detail)
		}))
		setup(t, r)
		r.core.Run(maxCycles)
		runs[i] = ffTrace{
			hash:    h.Sum64(),
			events:  n,
			cycles:  r.core.Cycle(),
			skipped: r.core.SkippedCycles(),
		}
	}
	on, off := runs[0], runs[1]
	if off.skipped != 0 {
		t.Errorf("skip-off run skipped %d cycles", off.skipped)
	}
	if on.hash != off.hash || on.events != off.events {
		t.Errorf("trace diverges: %d events %#x (on) vs %d events %#x (off)",
			on.events, on.hash, off.events, off.hash)
	}
	if on.cycles != off.cycles {
		t.Errorf("final cycle diverges: %d (on) vs %d (off)", on.cycles, off.cycles)
	}
	return on.skipped
}

// TestFastForwardLandsOnStallExpiry: a faulting load puts the only
// context into a long handler stall with an otherwise empty pipeline, so
// the next-event computation must aim the skip exactly at stallUntil —
// one cycle early or late shifts every subsequent retirement.
func TestFastForwardLandsOnStallExpiry(t *testing.T) {
	const handlerLat = 12_345
	setup := func(t *testing.T, r *testRig) {
		r.core.SetFaultHandler(FaultHandlerFunc(func(f PageFault) FaultOutcome {
			if _, err := r.as.MapNew(mem.PageBase(f.VA), mem.FlagUser|mem.FlagWritable); err != nil {
				return FaultOutcome{Terminate: true}
			}
			return FaultOutcome{HandlerLatency: handlerLat}
		}))
		p := isa.NewBuilder().
			MovImm(isa.R1, 0x0040_0000). // unmapped page: faults once
			Load(isa.R2, isa.R1, 0).
			AddImm(isa.R3, isa.R2, 1).
			Halt().MustBuild()
		r.core.Context(0).SetProgram(p, 0)
	}
	skipped := ffCompare(t, setup, 200_000)
	if skipped < handlerLat/2 {
		t.Errorf("skipped only %d cycles through a %d-cycle handler stall", skipped, handlerLat)
	}
}

// TestFastForwardDividerBusyWakeup: one context stalls in a fault handler
// while the other grinds through dependent divides on the non-pipelined
// divider. The skip targets interleave completion events, divider-free
// cycles (issue-quiesce wakeups) and the stall expiry.
func TestFastForwardDividerBusyWakeup(t *testing.T) {
	setup := func(t *testing.T, r *testRig) {
		r.core.SetFaultHandler(FaultHandlerFunc(func(f PageFault) FaultOutcome {
			if _, err := r.as.MapNew(mem.PageBase(f.VA), mem.FlagUser|mem.FlagWritable); err != nil {
				return FaultOutcome{Terminate: true}
			}
			return FaultOutcome{HandlerLatency: 3_000}
		}))
		victim := isa.NewBuilder().
			MovImm(isa.R1, 0x0041_0000).
			Load(isa.R2, isa.R1, 0). // fault -> 3000-cycle stall
			Halt().MustBuild()
		b := isa.NewBuilder().
			MovImm(isa.R1, 1<<30).
			MovImm(isa.R2, 3)
		for i := 0; i < 20; i++ {
			b.Div(isa.R1, isa.R1, isa.R2). // dependent chain: one div in
							AddImm(isa.R1, isa.R1, 1<<20) // flight, successor quiesced
		}
		b.Rdtsc(isa.R4).Halt()
		r.core.Context(0).SetProgram(victim, 0)
		r.core.Context(1).SetProgram(b.MustBuild(), 0)
	}
	if skipped := ffCompare(t, setup, 200_000); skipped == 0 {
		t.Error("scenario skipped nothing")
	}
}

// TestFastForwardDividerRetryAfterIssue: two independent divides become
// ready in the same cycle, so one issue pass issues the first and finds
// the divider busy for the second. Jitter holds the first divide's
// completion, the next event that wakes the issue scan, far past the
// cycle the divider frees. The second divide must still issue exactly
// FDivLat cycles after the first: the pass that issued the first has to
// fold the divider's free cycle into the context's retry cycle.
func TestFastForwardDividerRetryAfterIssue(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JitterPeriod, cfg.JitterExtra = 1, 50
	r := newRig(t, cfg)
	var issued []uint64
	r.core.SetTracer(TracerFunc(func(ev Event) {
		if ev.Kind == EvIssue && ev.Instr.Op == isa.OpFDiv {
			issued = append(issued, ev.Cycle)
		}
	}))
	p := isa.NewBuilder().
		FLoadImm(isa.F0, int64(math.Float64bits(3.0))).
		FLoadImm(isa.F1, int64(math.Float64bits(1.5))).
		FAdd(isa.F4, isa.F0, isa.F1).
		FDiv(isa.F2, isa.F4, isa.F1).
		FDiv(isa.F3, isa.F4, isa.F1).
		Halt().MustBuild()
	r.core.Context(0).SetProgram(p, 0)
	r.core.Run(10_000)
	if !r.core.Halted() {
		t.Fatal("program did not halt")
	}
	if len(issued) != 2 {
		t.Fatalf("saw %d divide issues, want 2", len(issued))
	}
	if gap := issued[1] - issued[0]; gap != uint64(cfg.FDivLat) {
		t.Errorf("divides issued at cycles %d and %d, %d apart; want FDivLat = %d",
			issued[0], issued[1], gap, cfg.FDivLat)
	}
}

// TestFastForwardSimultaneousSMTWakeup: both contexts fault into stalls
// that expire on overlapping schedules; the skip must take the minimum
// across contexts so neither wakeup is jumped over.
func TestFastForwardSimultaneousSMTWakeup(t *testing.T) {
	setup := func(t *testing.T, r *testRig) {
		as1, err := mem.NewAddressSpace(r.core.Phys(), 2)
		if err != nil {
			t.Fatal(err)
		}
		r.core.Context(1).SetAddressSpace(as1)
		spaces := []*mem.AddressSpace{r.as, as1}
		r.core.SetFaultHandler(FaultHandlerFunc(func(f PageFault) FaultOutcome {
			as := spaces[f.Context]
			if _, err := as.MapNew(mem.PageBase(f.VA), mem.FlagUser|mem.FlagWritable); err != nil {
				return FaultOutcome{Terminate: true}
			}
			// Equal latencies: with near-simultaneous faults the two
			// stalls expire on the same or adjacent cycles.
			return FaultOutcome{HandlerLatency: 5_000}
		}))
		prog := func(page int64) *isa.Program {
			return isa.NewBuilder().
				MovImm(isa.R1, page).
				Load(isa.R2, isa.R1, 0).
				Rdtsc(isa.R3).
				Halt().MustBuild()
		}
		r.core.Context(0).SetProgram(prog(0x0042_0000), 0)
		r.core.Context(1).SetProgram(prog(0x0043_0000), 0)
	}
	if skipped := ffCompare(t, setup, 200_000); skipped == 0 {
		t.Error("scenario skipped nothing")
	}
}

// TestRunUntilCondSchedule: with fast-forward on, RunUntil evaluates its
// condition only at active cycles — but the cycles it does evaluate at
// must be a subset of the skip-off schedule (skipped cycles are no-ops,
// so the condition could not have changed there), and both runs must
// stop at the same cycle with the same verdict.
func TestRunUntilCondSchedule(t *testing.T) {
	const handlerLat = 8_000
	type result struct {
		met    bool
		stopAt uint64
		seen   map[uint64]bool
	}
	var runs [2]result
	for i, ff := range []bool{true, false} {
		cfg := DefaultConfig()
		cfg.FastForward = ff
		r := newRig(t, cfg)
		r.core.SetFaultHandler(FaultHandlerFunc(func(f PageFault) FaultOutcome {
			if _, err := r.as.MapNew(mem.PageBase(f.VA), mem.FlagUser|mem.FlagWritable); err != nil {
				return FaultOutcome{Terminate: true}
			}
			return FaultOutcome{HandlerLatency: handlerLat}
		}))
		p := isa.NewBuilder().
			MovImm(isa.R1, 0x0044_0000).
			Load(isa.R2, isa.R1, 0). // fault + long stall mid-run
			AddImm(isa.R3, isa.R2, 5).
			Halt().MustBuild()
		ctx := r.core.Context(0)
		ctx.SetProgram(p, 0)
		seen := map[uint64]bool{}
		met := r.core.RunUntil(func() bool {
			seen[r.core.Cycle()] = true
			return ctx.Stats().Retired >= 3
		}, 100_000)
		runs[i] = result{met: met, stopAt: r.core.Cycle(), seen: seen}
	}
	on, off := runs[0], runs[1]
	if on.met != off.met || on.stopAt != off.stopAt {
		t.Fatalf("RunUntil diverges: met=%v stop=%d (on) vs met=%v stop=%d (off)",
			on.met, on.stopAt, off.met, off.stopAt)
	}
	if !on.met {
		t.Fatal("condition never met")
	}
	for c := range on.seen {
		if !off.seen[c] {
			t.Errorf("skip-on evaluated cond at cycle %d, which skip-off never visited", c)
		}
	}
	if len(on.seen) >= len(off.seen) {
		t.Errorf("skip-on evaluated cond %d times, skip-off %d: nothing was skipped",
			len(on.seen), len(off.seen))
	}
}

// TestHaltedCounterConsistency: Core.Halted is maintained incrementally
// (halt events and program loads) rather than scanned; it must agree with
// a direct per-context scan through load/run/reload transitions.
func TestHaltedCounterConsistency(t *testing.T) {
	check := func(r *testRig, want bool, when string) {
		t.Helper()
		scan := true
		for i := 0; i < r.core.Contexts(); i++ {
			ctx := r.core.Context(i)
			if ctx.Program() != nil && !ctx.Halted() {
				scan = false
			}
		}
		if got := r.core.Halted(); got != scan || got != want {
			t.Fatalf("%s: Halted()=%v, scan=%v, want %v", when, got, scan, want)
		}
	}
	r := newRig(t, DefaultConfig())
	check(r, true, "no programs loaded")

	p := isa.NewBuilder().MovImm(isa.R1, 1).Halt().MustBuild()
	r.core.Context(0).SetProgram(p, 0)
	check(r, false, "ctx0 loaded")

	r.core.Run(10_000)
	check(r, true, "ctx0 halted")

	// Reloading a halted context revives it.
	r.core.Context(0).SetProgram(p, 0)
	check(r, false, "ctx0 reloaded")
	r.core.Run(10_000)
	check(r, true, "ctx0 halted again")

	// Second context: Halted must require both.
	r.core.Context(1).SetProgram(p, 0)
	check(r, false, "ctx1 loaded, ctx0 halted")
	r.core.Run(10_000)
	check(r, true, "both halted")

	// A context that never retires a halt keeps the core un-halted.
	b := isa.NewBuilder()
	b.Label("spin").Jmp("spin").Halt()
	r.core.Context(0).SetProgram(b.MustBuild(), 0)
	check(r, false, "ctx0 spinning")
	r.core.Run(10_000)
	if r.core.Halted() {
		t.Error("spinning context reported halted")
	}
}
