// Package tracetest holds the reference model trace.Projector is tested
// against, for the differential suites in sim/trace and analysis/verify.
// Only tests import it.
package tracetest

import (
	"microscope/sim/cpu"
	"microscope/sim/isa"
	"microscope/sim/trace"
)

// Project is the reference transient projection: it takes a run's whole
// recorded event stream and folds it the simplest way, with a map per
// question (which instructions retired, which were seen, when each
// divide issued). A dynamic instruction is transient iff no EvRetire
// event carries its (context, seq) pair; events with Seq 0 and no ROB
// entry (EvTxAbort, preempt squashes) belong to no instruction and are
// ignored. The digests fold events in stream order.
func Project(events []cpu.Event) trace.Projections {
	type instrKey struct {
		ctx int
		seq uint64
	}
	retired := make(map[instrKey]bool)
	for _, ev := range events {
		if ev.Kind == cpu.EvRetire {
			retired[instrKey{ev.Context, ev.Seq}] = true
		}
	}
	var p trace.Projections
	p.Cache = fnvOffset
	p.Port = fnvOffset
	p.Latency = fnvOffset

	issueCycle := make(map[instrKey]uint64)
	seen := make(map[instrKey]bool)
	for _, ev := range events {
		if ev.Seq == 0 || retired[instrKey{ev.Context, ev.Seq}] {
			continue
		}
		k := instrKey{ev.Context, ev.Seq}
		if !seen[k] {
			seen[k] = true
			p.Transient++
		}
		op := ev.Instr.Op
		switch {
		case op.IsMem() && (ev.Kind == cpu.EvIssue || ev.Kind == cpu.EvFault):
			x := p.Cache
			x = fnvWord(x, uint64(int64(ev.Context)))
			x = fnvWord(x, ev.Addr>>trace.CacheLineShift)
			store := uint64(0)
			if op.IsStore() {
				store = 1
			}
			p.Cache = fnvWord(x, store)
			p.CacheN++
		}
		if op == isa.OpDiv || op == isa.OpFDiv {
			//simlint:enumexempt port-digest projection deliberately samples only the issue/complete edges of divides; other event kinds carry no port contention signal
			switch ev.Kind {
			case cpu.EvIssue:
				issueCycle[k] = ev.Cycle
				fallthrough
			case cpu.EvComplete:
				x := p.Port
				x = fnvWord(x, uint64(int64(ev.Context)))
				x = fnvWord(x, uint64(int64(ev.Kind)))
				x = fnvWord(x, ev.Cycle)
				x = fnvWord(x, uint64(int64(ev.Port)))
				p.Port = fnvWord(x, uint64(int64(op)))
				p.PortN++
			}
			if ev.Kind == cpu.EvComplete {
				if ic, ok := issueCycle[k]; ok {
					x := p.Latency
					x = fnvWord(x, uint64(int64(ev.Context)))
					x = fnvWord(x, uint64(int64(op)))
					p.Latency = fnvWord(x, ev.Cycle-ic)
					p.LatencyN++
				}
			}
		}
	}
	return p
}

// Record returns a tracer that appends every event to *events.
func Record(events *[]cpu.Event) cpu.Tracer {
	return cpu.TracerFunc(func(ev cpu.Event) { *events = append(*events, ev) })
}

// FNV-1a 64-bit, as sim/trace folds its digests.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvWord folds the 8 little-endian bytes of v into x.
func fnvWord(x, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		x ^= v & 0xff
		x *= fnvPrime
		v >>= 8
	}
	return x
}
