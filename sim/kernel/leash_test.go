package kernel

import (
	"bytes"
	"encoding/gob"
	"testing"

	"microscope/sim/cache"
	"microscope/sim/cpu"
	"microscope/sim/isa"
	"microscope/sim/mem"
)

// replayRig builds a process with one eager-mapped page whose present
// bit is cleared, plus a hook that refuses to fix it for the first
// refuse faults — the canonical MicroScope replay loop at kernel level.
func replayRig(t *testing.T, refuse int) (*rig, *Process, mem.Addr) {
	t.Helper()
	r := newRig(t)
	p := r.spawn(t, "victim")
	base := mem.Addr(0x40_0000)
	v := r.k.AddVMA(p, base, base+mem.PageSize, mem.FlagUser, "handle")
	if err := r.k.MapEager(p, v); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddressSpace().SetPresent(base, false); err != nil {
		t.Fatal(err)
	}
	r.k.Schedule(0, p)

	calls := 0
	r.k.RegisterHook(hookFunc(func(hp *Process, f cpu.PageFault) (cpu.FaultOutcome, bool) {
		calls++
		if calls <= refuse {
			return cpu.FaultOutcome{HandlerLatency: 1_000}, true
		}
		if _, err := p.AddressSpace().SetPresent(base, true); err != nil {
			t.Error(err)
		}
		return cpu.FaultOutcome{HandlerLatency: 1_000}, true
	}))
	return r, p, base
}

func runReplayVictim(t *testing.T, r *rig, base mem.Addr) *cpu.Context {
	t.Helper()
	prog := isa.NewBuilder().
		MovImm(isa.R1, int64(base)).
		Load(isa.R2, isa.R1, 0).
		Halt().MustBuild()
	ctx := r.core.Context(0)
	ctx.SetProgram(prog, 0)
	r.core.Run(5_000_000)
	if !ctx.Halted() {
		t.Fatal("victim did not halt")
	}
	return ctx
}

// TestLeashTripsOnReplayBurst: a same-page fault burst trips the
// detector, and every fault past the trip pays the deschedule penalty —
// the attacker's replay rate drops measurably.
func TestLeashTripsOnReplayBurst(t *testing.T) {
	const refuse = 9 // 10 faults total on one page

	r, p, base := replayRig(t, refuse)
	r.k.EnableLeash(LeashConfig{Window: 100_000, Faults: 4, Penalty: 20_000})
	runReplayVictim(t, r, base)
	throttledCycles := r.core.Cycle()

	tripped, throttled := r.k.LeashStatus(p.PID)
	if !tripped {
		t.Fatal("LEASH did not trip on a 10-fault same-page burst")
	}
	// Faults 1-4 arm and trip; faults 4-10 are throttled (the tripping
	// fault itself pays).
	if throttled != 7 {
		t.Errorf("throttled = %d, want 7", throttled)
	}

	// Control: same attack, no LEASH — must finish much earlier.
	rc, _, basec := replayRig(t, refuse)
	runReplayVictim(t, rc, basec)
	freeCycles := rc.core.Cycle()
	if minSlowdown := freeCycles + 7*20_000; throttledCycles < minSlowdown {
		t.Errorf("throttled run took %d cycles, want >= %d (penalties must bite)",
			throttledCycles, minSlowdown)
	}
}

// TestLeashSilentOnDemandPaging: benign first-touch faults land on
// DISTINCT pages — the per-page burst counter never accumulates and
// the process is never throttled.
func TestLeashSilentOnDemandPaging(t *testing.T) {
	r := newRig(t)
	p := r.spawn(t, "benign")
	base := mem.Addr(0x30_0000)
	const pages = 8
	r.k.AddVMA(p, base, base+pages*mem.PageSize, mem.FlagUser|mem.FlagWritable, "heap")
	r.k.Schedule(0, p)
	r.k.EnableLeash(LeashConfig{Window: 1_000_000, Faults: 4, Penalty: 20_000})

	prog := isa.NewBuilder().
		MovImm(isa.R1, int64(base)).
		MovImm(isa.R2, pages).
		Label("loop").
		Load(isa.R3, isa.R1, 0).
		AddImm(isa.R1, isa.R1, int64(mem.PageSize)).
		AddImm(isa.R2, isa.R2, -1).
		Blt(isa.R0, isa.R2, "loop").
		Halt().MustBuild()
	ctx := r.core.Context(0)
	ctx.SetProgram(prog, 0)
	r.core.Run(5_000_000)
	if !ctx.Halted() {
		t.Fatal("benign victim did not halt")
	}
	if len(r.k.FaultLog()) < pages {
		t.Fatalf("only %d faults, want >= %d", len(r.k.FaultLog()), pages)
	}
	if tripped, throttled := r.k.LeashStatus(p.PID); tripped || throttled != 0 {
		t.Errorf("LEASH tripped on benign demand paging (throttled=%d)", throttled)
	}
}

// TestLeashWindowExpires: same-page faults spaced wider than the burst
// window never accumulate — a slow replay cadence evades LEASH, the
// window/threshold trade-off the tournament's selective-rdrand handle
// exploits.
func TestLeashWindowExpires(t *testing.T) {
	r, p, base := replayRig(t, 7)
	// Handler latency is 1_000 cycles per replay; a 900-cycle window
	// forgets each fault before the next arrives.
	r.k.EnableLeash(LeashConfig{Window: 900, Faults: 3, Penalty: 20_000})
	runReplayVictim(t, r, base)
	if tripped, _ := r.k.LeashStatus(p.PID); tripped {
		t.Error("LEASH tripped despite faults spaced beyond the window")
	}
}

// TestCountermeasureStateRidesSnapshots: a checkpoint of a defended
// run must carry the LEASH throttle counters and SIMF flush counts — a
// restored process that tripped the detector stays tripped, instead of
// silently replaying at full rate (the bug the snapcover analyzer
// flagged on Kernel.leash/Kernel.simf).
func TestCountermeasureStateRidesSnapshots(t *testing.T) {
	r, p, base := replayRig(t, 9)
	r.k.EnableLeash(LeashConfig{Window: 100_000, Faults: 4, Penalty: 20_000})
	r.k.EnableSIMF(p)
	runReplayVictim(t, r, base)

	tripped, throttled := r.k.LeashStatus(p.PID)
	if !tripped || throttled == 0 {
		t.Fatalf("precondition: tripped=%v throttled=%d", tripped, throttled)
	}
	flushes := r.k.SIMFFlushes(p.PID)
	if flushes == 0 {
		t.Fatal("precondition: no SIMF flushes recorded")
	}

	snap := r.k.Snapshot()
	if !snap.LeashOn || !snap.SIMFOn {
		t.Fatalf("snapshot dropped defense enablement: %+v", snap)
	}

	// Wipe the live countermeasure state, then restore: every counter
	// must come back exactly.
	r.k.ResetCountermeasures()
	if tr, _ := r.k.LeashStatus(p.PID); tr {
		t.Fatal("ResetCountermeasures left the trip flag set")
	}
	if err := r.k.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if tr, th := r.k.LeashStatus(p.PID); !tr || th != throttled {
		t.Errorf("restored LEASH state = (%v, %d), want (true, %d)", tr, th, throttled)
	}
	if got := r.k.SIMFFlushes(p.PID); got != flushes {
		t.Errorf("restored SIMFFlushes = %d, want %d", got, flushes)
	}

	// Determinism: two snapshots of identical state must gob-encode
	// byte-identically (maps are flattened sorted), the property the
	// golden tests and `microscope snapdiff` rely on.
	enc := func(s *KernelSnap) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(s); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(enc(r.k.Snapshot()), enc(r.k.Snapshot())) {
		t.Error("countermeasure snapshot encoding is not deterministic")
	}
}

// TestRestoreDisablesAbsentCountermeasures: restoring an undefended
// checkpoint over a defended kernel turns the defenses off — restore
// means "become the checkpointed machine", not a merge.
func TestRestoreDisablesAbsentCountermeasures(t *testing.T) {
	r, p, base := replayRig(t, 2)
	runReplayVictim(t, r, base)
	snap := r.k.Snapshot()
	if snap.LeashOn || snap.SIMFOn || snap.Leash != nil || snap.SIMF != nil {
		t.Fatalf("undefended snapshot carries defense state: %+v", snap)
	}

	r.k.EnableLeash(LeashConfig{})
	r.k.EnableSIMF(p)
	if err := r.k.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if r.k.leash != nil || r.k.simf != nil {
		t.Error("restore kept defenses the checkpoint did not carry")
	}
}

// TestSIMFFlushesOnFault: a SIMF-protected process's faults scrub the
// microarchitectural state the attacker's handler would probe; an
// unprotected process leaves it warm.
func TestSIMFFlushesOnFault(t *testing.T) {
	for _, protected := range []bool{true, false} {
		r, p, base := replayRig(t, 2)
		// A second, eagerly mapped page is the "footprint" the
		// attacker would probe: warmed before the fault, never
		// touched again.
		warmVA := mem.Addr(0x50_0000)
		wv := r.k.AddVMA(p, warmVA, warmVA+mem.PageSize, mem.FlagUser, "warm")
		if err := r.k.MapEager(p, wv); err != nil {
			t.Fatal(err)
		}
		warmPA, err := p.AddressSpace().Translate(warmVA)
		if err != nil {
			t.Fatal(err)
		}
		if protected {
			r.k.EnableSIMF(p)
		}

		prog := isa.NewBuilder().
			MovImm(isa.R1, int64(warmVA)).
			Load(isa.R2, isa.R1, 0). // warm the probe line
			MovImm(isa.R3, int64(base)).
			Load(isa.R4, isa.R3, 0). // replay handle: faults 3x
			Halt().MustBuild()
		ctx := r.core.Context(0)
		ctx.SetProgram(prog, 0)
		r.core.Run(5_000_000)
		if !ctx.Halted() {
			t.Fatal("victim did not halt")
		}

		faults := uint64(len(r.k.FaultLog()))
		if faults != 3 {
			t.Fatalf("faults = %d, want 3", faults)
		}
		cold := r.core.Hierarchy().LevelOf(warmPA) == cache.LevelMem
		if protected {
			if got := r.k.SIMFFlushes(p.PID); got != faults {
				t.Errorf("SIMFFlushes = %d, want %d (one per fault)", got, faults)
			}
			if !cold {
				t.Error("probe line survived the multi-flush")
			}
		} else {
			if got := r.k.SIMFFlushes(p.PID); got != 0 {
				t.Errorf("SIMFFlushes = %d for unprotected process", got)
			}
			if cold {
				t.Error("control: probe line cold without SIMF")
			}
		}
	}
}
