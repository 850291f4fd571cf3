package trace

import (
	"testing"

	"microscope/sim/cpu"
	"microscope/sim/isa"
)

func load(addr uint64) isa.Instr  { return isa.Instr{Op: isa.OpLoad, Rd: isa.R1, Rs1: isa.R2} }
func store(addr uint64) isa.Instr { return isa.Instr{Op: isa.OpStore, Rs1: isa.R2, Rs2: isa.R1} }

// project traces events through a fresh Projector.
func project(events []cpu.Event) Projections {
	var p Projector
	for _, ev := range events {
		p.Trace(ev)
	}
	return p.Projections()
}

// A retired load contributes nothing; the same load left unretired is
// part of the transient cache footprint.
func TestProjectTransientRetirementSplit(t *testing.T) {
	events := []cpu.Event{
		{Kind: cpu.EvIssue, Seq: 1, Addr: 0x1000, Instr: load(0x1000)},
		{Kind: cpu.EvRetire, Seq: 1, Instr: load(0x1000)},
		{Kind: cpu.EvIssue, Seq: 2, Addr: 0x2000, Instr: load(0x2000)},
		// seq 2 never retires: squashed.
		{Kind: cpu.EvSquash, Seq: 2, Instr: load(0x2000)},
	}
	p := project(events)
	if p.Transient != 1 {
		t.Fatalf("Transient = %d, want 1", p.Transient)
	}
	if p.CacheN != 1 {
		t.Fatalf("CacheN = %d, want 1 (only the squashed load)", p.CacheN)
	}

	// Retiring seq 2 as well must empty the projection.
	events = append(events, cpu.Event{Kind: cpu.EvRetire, Seq: 2, Instr: load(0x2000)})
	q := project(events)
	if q.Transient != 0 || q.CacheN != 0 {
		t.Fatalf("fully retired stream projects %+v, want empty", q)
	}
}

// Cache projection distinguishes lines and load/store, but not cycles:
// the monitor senses which sets were touched, not when.
func TestProjectTransientCacheSemantics(t *testing.T) {
	at := func(cycle, addr uint64, in isa.Instr) cpu.Event {
		return cpu.Event{Kind: cpu.EvIssue, Cycle: cycle, Seq: 1, Addr: addr, Instr: in}
	}
	base := project([]cpu.Event{at(10, 0x1000, load(0x1000))})
	shifted := project([]cpu.Event{at(999, 0x1000, load(0x1000))})
	if !base.Equal(shifted) {
		t.Error("cache projection must ignore cycle timestamps")
	}
	sameLine := project([]cpu.Event{at(10, 0x1004, load(0x1004))})
	if base.Cache != sameLine.Cache {
		t.Error("addresses on the same 64-byte line must project equally")
	}
	otherLine := project([]cpu.Event{at(10, 0x1040, load(0x1040))})
	if base.Cache == otherLine.Cache {
		t.Error("addresses on different lines must project differently")
	}
	asStore := project([]cpu.Event{at(10, 0x1000, store(0x1000))})
	if base.Cache == asStore.Cache {
		t.Error("load and store to the same line must project differently")
	}
	// A faulting access still primed the walk: EvFault counts.
	faulted := project([]cpu.Event{
		{Kind: cpu.EvFault, Cycle: 10, Seq: 1, Addr: 0x1000, Instr: load(0x1000)},
	})
	if faulted.CacheN != 1 {
		t.Errorf("EvFault CacheN = %d, want 1", faulted.CacheN)
	}
}

// Port projection keys on divider occupancy (kind, cycle, port); the
// latency projection on issue→complete deltas.
func TestProjectTransientDivChannels(t *testing.T) {
	div := isa.Instr{Op: isa.OpFDiv, Rd: isa.F2, Rs1: isa.F0, Rs2: isa.F1}
	run := func(issue, complete uint64) Projections {
		return project([]cpu.Event{
			{Kind: cpu.EvIssue, Cycle: issue, Seq: 1, Port: 2, Instr: div},
			{Kind: cpu.EvComplete, Cycle: complete, Seq: 1, Port: 2, Instr: div},
		})
	}
	fast := run(10, 34)
	slow := run(10, 154) // subnormal microcode assist
	if fast.Latency == slow.Latency {
		t.Error("different divide latencies must project differently")
	}
	if fast.Port == slow.Port {
		t.Error("different divider occupancy intervals must project differently")
	}
	if fast.LatencyN != 1 || fast.PortN != 2 {
		t.Errorf("counts = latency %d port %d, want 1 and 2", fast.LatencyN, fast.PortN)
	}
	sameShape := run(10, 34)
	if !fast.Equal(sameShape) {
		t.Error("identical divide shapes must project equally")
	}
}

// Seq-0 events (preempts, tx aborts) belong to no instruction.
func TestProjectTransientIgnoresSeqZero(t *testing.T) {
	p := project([]cpu.Event{
		{Kind: cpu.EvSquash, Seq: 0, Detail: "preempt"},
		{Kind: cpu.EvIssue, Seq: 0, Addr: 0x1000, Instr: load(0x1000)},
	})
	if p.Transient != 0 || p.CacheN != 0 {
		t.Fatalf("seq-0 events projected: %+v", p)
	}
}
