package trace

import (
	"microscope/sim/cpu"
	"microscope/sim/isa"
	"microscope/sim/pipeline"
)

// Channel projections over the transient event stream.
//
// MicroScope's observable is the microarchitectural footprint of
// *transient* instructions: everything a squash shadow re-executes on
// each replay but never retires (paper §4). A constant-time verdict
// therefore cares about a restriction of the full event stream, along
// two axes:
//
//   - only events of dynamic instructions that never retire (squashed
//     work — the replay-amplifiable part), and
//   - only the fields of those events an attacker can sense over one
//     leak channel: which cache sets were touched, when the non-pipelined
//     divider was occupied, or how long a divide took.
//
// Projections replaces the all-fields Hasher equality used by the
// golden-trace and fast-forward suites with three per-channel digests.
// Two runs with equal Cache/Port/Latency digests are indistinguishable
// to a MicroScope attacker on the corresponding channel even if their
// retired executions differ (a fenced, repaired victim still computes a
// secret-dependent result — architecturally, at retirement — without
// ever exposing it transiently).

// Projections is the per-channel digest of one run's transient events.
type Projections struct {
	// Cache digests the ordered (context, cache line, is-store) sequence
	// of transiently issued memory accesses: the footprint a prime+probe
	// or flush+reload monitor reconstructs. Cycle timestamps are
	// deliberately excluded — a cache monitor senses which sets were
	// touched, not when.
	Cache uint64 `json:"cache"`
	// Port digests the (context, kind, cycle, port) sequence of transient
	// divide issues and completions: the divider-occupancy intervals an
	// SMT port-contention monitor senses (Fig. 6).
	Port uint64 `json:"port"`
	// Latency digests the (context, op, issue→complete latency) of each
	// transient divide: the subnormal microcode-assist channel (Fig. 5).
	Latency uint64 `json:"latency"`

	// CacheN/PortN/LatencyN count the elements folded into each digest,
	// and Transient the distinct transient dynamic instructions seen.
	CacheN    int `json:"cacheN"`
	PortN     int `json:"portN"`
	LatencyN  int `json:"latencyN"`
	Transient int `json:"transient"`
}

// Equal reports whether two runs are indistinguishable on all three
// channels.
func (p Projections) Equal(q Projections) bool {
	return p.Cache == q.Cache && p.Port == q.Port && p.Latency == q.Latency
}

// CacheLineShift converts an address to its cache-line number in the
// projection (64-byte lines, matching sim/cache).
const CacheLineShift = 6

// memAccess is a memory issue or fault: the cache-digest element.
type memAccess struct {
	instrKey
	line  uint64
	store bool
}

// divEdge is the issue or complete edge of a divide: the port-digest
// element, and on a complete edge the latency-digest element.
type divEdge struct {
	instrKey
	kind  cpu.EventKind
	op    isa.Op
	port  pipeline.Port
	cycle uint64
	// issue is, on a complete edge, the cycle of the instruction's last
	// divide issue before it; hasIssue is false when there was none.
	issue    uint64
	hasIssue bool
}

// Projector is a cpu.Tracer that computes the Projections of the run it
// observes. A dynamic instruction is transient iff no EvRetire event
// carries its (context, seq) pair, so no event can be classified before
// the run ends; the Projector therefore buffers, but only what the three
// digests read: the cache line and store bit of memory issues and
// faults, the issue and complete edges of divides, and which
// instructions appeared and which retired. Events with Seq 0 (EvTxAbort,
// preempt squashes) belong to no instruction and are ignored. Reset
// keeps the buffers, so once they have grown to a run's size, tracing
// allocates nothing.
type Projector struct {
	instrs instrSet
	mem    []memAccess
	div    []divEdge
}

// Trace implements cpu.Tracer.
func (p *Projector) Trace(ev cpu.Event) {
	if ev.Seq == 0 {
		return
	}
	k := instrKey{ev.Context, ev.Seq}
	op := ev.Instr.Op
	p.instrs.add(k, ev.Kind == cpu.EvRetire)
	if op.IsMem() && (ev.Kind == cpu.EvIssue || ev.Kind == cpu.EvFault) {
		// A faulting access still performed its translation walk and
		// primed the walker caches; its target line is part of the
		// footprint the attacker models.
		p.mem = append(p.mem, memAccess{k, ev.Addr >> CacheLineShift, op.IsStore()})
	}
	if (op == isa.OpDiv || op == isa.OpFDiv) && (ev.Kind == cpu.EvIssue || ev.Kind == cpu.EvComplete) {
		e := divEdge{instrKey: k, kind: ev.Kind, op: op, port: ev.Port, cycle: ev.Cycle}
		if ev.Kind == cpu.EvComplete {
			// The divider is not pipelined, so the issue edge is among
			// the last few.
			for i := len(p.div) - 1; i >= 0; i-- {
				if d := p.div[i]; d.kind == cpu.EvIssue && d.instrKey == k {
					e.issue, e.hasIssue = d.cycle, true
					break
				}
			}
		}
		p.div = append(p.div, e)
	}
}

// Reset empties the Projector for the next run, keeping its buffers.
func (p *Projector) Reset() {
	p.instrs.reset()
	p.mem, p.div = p.mem[:0], p.div[:0]
}

// Projections returns the per-channel digests of the transient
// instructions observed since the last Reset. The digests fold their
// elements in stream order, so two runs agree iff their transient
// footprints agree element by element.
func (p *Projector) Projections() Projections {
	q := Projections{Cache: fnvOffset, Port: fnvOffset, Latency: fnvOffset}
	q.Transient = p.instrs.transient
	for _, m := range p.mem {
		if p.instrs.retired(m.instrKey) {
			continue
		}
		x := fnvWord(q.Cache, uint64(int64(m.ctx)))
		x = fnvWord(x, m.line)
		store := uint64(0)
		if m.store {
			store = 1
		}
		q.Cache = fnvWord(x, store)
		q.CacheN++
	}
	for _, d := range p.div {
		if p.instrs.retired(d.instrKey) {
			continue
		}
		x := fnvWord(q.Port, uint64(int64(d.ctx)))
		x = fnvWord(x, uint64(int64(d.kind)))
		x = fnvWord(x, d.cycle)
		x = fnvWord(x, uint64(int64(d.port)))
		q.Port = fnvWord(x, uint64(int64(d.op)))
		q.PortN++
		if d.hasIssue {
			x := fnvWord(q.Latency, uint64(int64(d.ctx)))
			x = fnvWord(x, uint64(int64(d.op)))
			q.Latency = fnvWord(x, d.cycle-d.issue)
			q.LatencyN++
		}
	}
	return q
}
