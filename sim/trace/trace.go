// Package trace is the simulator's observability layer. It turns the raw
// cpu.Tracer event stream into three consumable forms:
//
//   - Collector: per-instruction lifecycles (fetch→issue→execute→
//     retire/squash/fault) in a bounded ring buffer, matched exactly by
//     dispatch sequence number rather than by PC heuristics, and the
//     Metrics it counts on the way — per-stage occupancy, ROB
//     utilization, squash breakdowns, per-port issue histograms and the
//     page-walk latency distribution;
//   - Hasher: a stable FNV-1a digest over the canonical event stream, so
//     a test can assert bit-identical pipeline behaviour in one line;
//   - Projector: the transient-channel digests the verifier compares.
//
// Collected lifecycles export to Chrome Trace Event JSON (see chrome.go),
// loadable in Perfetto or chrome://tracing. Everything here hangs off
// Core.SetTracer; with no tracer attached the core pays nothing (event
// construction is gated on the nil check inside the core).
package trace

import (
	"microscope/sim/cpu"
	"microscope/sim/isa"
	"microscope/sim/pipeline"
)

// NoCycle marks a lifecycle stage that never happened (e.g. Issue on an
// instruction squashed straight out of the frontend).
const NoCycle = ^uint64(0)

// Fate is the terminal state of an instruction lifecycle.
type Fate uint8

// Lifecycle fates.
const (
	FateOpen     Fate = iota // still in flight
	FateRetired              // committed architecturally
	FateSquashed             // discarded by a flush (mispredict, ordering, preempt, tx)
	FateFaulted              // raised a precise page fault
)

// String returns the fate name.
func (f Fate) String() string {
	switch f {
	case FateOpen:
		return "open"
	case FateRetired:
		return "retired"
	case FateSquashed:
		return "squashed"
	case FateFaulted:
		return "faulted"
	}
	return "fate?"
}

// Span is one dynamic instruction's lifecycle. Cycle fields that never
// happened hold NoCycle.
type Span struct {
	Context  int
	Seq      uint64
	PC       int
	Instr    isa.Instr
	Fetch    uint64
	Issue    uint64
	Complete uint64
	End      uint64 // retire, squash or fault cycle (NoCycle while open)
	Walk     int    // page-walk cycles observed at issue (0 = TLB hit)
	Port     pipeline.Port
	Fate     Fate
	Detail   string // squash reason / fault text
}

// Mark is a point event worth flagging on a timeline: a squash, a fault
// delivery or a transaction abort.
type Mark struct {
	Cycle   uint64
	Context int
	Kind    cpu.EventKind
	PC      int
	Seq     uint64
	Detail  string
}

// DefaultCapacity bounds the Collector's span and mark rings when the
// caller passes a non-positive capacity.
const DefaultCapacity = 1 << 16

// Collector assembles raw pipeline events into Spans and counts them
// into its Metrics. Closed spans land in a ring buffer of fixed capacity
// (oldest dropped first), so a collector can stay attached across a
// multi-million-cycle run without unbounded growth. All matching is by
// (context, seq): exact, no PC guessing, robust to replayed
// instructions revisiting the same PC.
type Collector struct {
	spans ring[Span]
	marks ring[Mark]
	open  [][]Span // per context, ascending Seq (dispatch order)
	m     Metrics
}

// NewCollector builds a collector whose closed-span and mark rings each
// hold up to capacity entries (DefaultCapacity if capacity <= 0).
func NewCollector(capacity int) *Collector {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Collector{
		spans: ring[Span]{cap: capacity},
		marks: ring[Mark]{cap: capacity},
	}
}

// Trace implements cpu.Tracer.
func (c *Collector) Trace(ev cpu.Event) {
	c.m.count(ev)
	for len(c.open) <= ev.Context {
		c.open = append(c.open, nil)
	}
	switch ev.Kind {
	case cpu.EvFetch:
		c.open[ev.Context] = append(c.open[ev.Context], Span{
			Context:  ev.Context,
			Seq:      ev.Seq,
			PC:       ev.PC,
			Instr:    ev.Instr,
			Fetch:    ev.Cycle,
			Issue:    NoCycle,
			Complete: NoCycle,
			End:      NoCycle,
		})
		c.m.inflight[stageFrontend]++
	case cpu.EvIssue:
		c.m.issue(ev)
		if s := c.find(ev.Context, ev.Seq); s != nil {
			c.m.inflight[s.stage()]--
			s.Issue = ev.Cycle
			s.Walk = ev.Walk
			s.Port = ev.Port
			c.m.inflight[s.stage()]++
		}
	case cpu.EvComplete:
		if s := c.find(ev.Context, ev.Seq); s != nil {
			c.m.inflight[s.stage()]--
			s.Complete = ev.Cycle
			c.m.inflight[s.stage()]++
		}
	case cpu.EvRetire:
		c.closeMatching(ev.Context, ev.Cycle, FateRetired, "",
			func(s *Span) bool { return s.Seq == ev.Seq })
	case cpu.EvSquash:
		// Seq 0 is a whole-pipeline flush (preempt); otherwise everything
		// strictly younger than the squashing instruction dies — the
		// mispredicted branch and the violated store themselves survive.
		c.mark(ev)
		c.m.squash(ev.Detail)
		if ev.Seq == 0 {
			c.closeMatching(ev.Context, ev.Cycle, FateSquashed, ev.Detail,
				func(*Span) bool { return true })
		} else {
			c.closeMatching(ev.Context, ev.Cycle, FateSquashed, ev.Detail,
				func(s *Span) bool { return s.Seq > ev.Seq })
		}
	case cpu.EvFault:
		// The core flushes the whole context before delivering the fault:
		// the faulting instruction closes as Faulted, everything else in
		// flight as Squashed.
		c.mark(ev)
		if ev.Walk > 0 {
			c.m.recordWalk(ev.Walk)
		}
		c.closeMatching(ev.Context, ev.Cycle, FateFaulted, ev.Detail,
			func(s *Span) bool { return s.Seq == ev.Seq })
		c.closeMatching(ev.Context, ev.Cycle, FateSquashed, "pipeline flush",
			func(*Span) bool { return true })
	case cpu.EvTxAbort:
		c.mark(ev)
		c.closeMatching(ev.Context, ev.Cycle, FateSquashed, "tx abort: "+ev.Detail,
			func(*Span) bool { return true })
	}
}

func (c *Collector) mark(ev cpu.Event) {
	c.marks.push(Mark{
		Cycle:   ev.Cycle,
		Context: ev.Context,
		Kind:    ev.Kind,
		PC:      ev.PC,
		Seq:     ev.Seq,
		Detail:  ev.Detail,
	})
}

// find returns the open span with the given seq, or nil. Open lists are
// short (bounded by the ROB) and retire-ordered, so a linear scan is
// cheap and deterministic.
func (c *Collector) find(ctx int, seq uint64) *Span {
	open := c.open[ctx]
	for i := range open {
		if open[i].Seq == seq {
			return &open[i]
		}
	}
	return nil
}

// stage is the pipeline stage of an open span: the last of issue and
// complete it has reached.
func (s *Span) stage() int {
	switch {
	case s.Complete != NoCycle:
		return stageWait
	case s.Issue != NoCycle:
		return stageExec
	}
	return stageFrontend
}

// closeMatching closes every open span of the context that keep() selects
// (in ascending Seq order), pushing them into the span ring, and compacts
// the open list in place.
func (c *Collector) closeMatching(ctx int, cycle uint64, fate Fate, detail string, keep func(*Span) bool) {
	open := c.open[ctx]
	out := open[:0]
	for i := range open {
		if keep(&open[i]) {
			c.m.inflight[open[i].stage()]--
			s := open[i]
			s.End = cycle
			s.Fate = fate
			if s.Detail == "" {
				s.Detail = detail
			}
			c.spans.push(s)
		} else {
			out = append(out, open[i])
		}
	}
	c.open[ctx] = out
}

// Spans returns the closed lifecycles still in the ring, oldest first.
func (c *Collector) Spans() []Span { return c.spans.slice() }

// Marks returns the recorded point events still in the ring, oldest first.
func (c *Collector) Marks() []Mark { return c.marks.slice() }

// OpenSpans returns snapshots of the lifecycles still in flight, by
// context then dispatch order.
func (c *Collector) OpenSpans() []Span {
	var out []Span
	for _, open := range c.open {
		out = append(out, open...)
	}
	return out
}

// TotalSpans counts every lifecycle ever closed, including those the
// ring has since dropped.
func (c *Collector) TotalSpans() uint64 { return c.spans.total }

// DroppedSpans counts closed lifecycles evicted from the ring.
func (c *Collector) DroppedSpans() uint64 {
	return c.spans.total - uint64(len(c.spans.buf))
}

// Events counts raw pipeline events observed.
func (c *Collector) Events() uint64 { return c.m.events }

// LastCycle is the cycle stamp of the most recent event.
func (c *Collector) LastCycle() uint64 { return c.m.lastCycle }

// Metrics returns the aggregate counters of every event observed since
// the last Reset. They stay live: the collector keeps counting into them.
func (c *Collector) Metrics() *Metrics { return &c.m }

// Reset drops all collected state, keeping the configured capacity and
// every backing arena (the span/mark rings and the per-context open
// lists), so a pooled collector re-attaches without reallocating.
func (c *Collector) Reset() {
	c.spans.reset()
	c.marks.reset()
	for i := range c.open {
		c.open[i] = c.open[i][:0]
	}
	c.m = Metrics{}
}

// ring is a fixed-capacity FIFO that drops its oldest entry on overflow.
// Its backing array is an arena that grows as entries arrive, doubling
// up to the capacity and never past it, so a short run holds only what
// it recorded rather than a whole 64K-entry ring. The doubling's copies
// total fewer than the entries pushed, and once the arena has grown —
// full, or kept across Reset — a push allocates nothing.
type ring[T any] struct {
	cap   int
	buf   []T
	head  int // index of the oldest entry once the buffer is full
	total uint64
}

func (r *ring[T]) push(v T) {
	r.total++
	if len(r.buf) < r.cap {
		if len(r.buf) == cap(r.buf) {
			buf := make([]T, len(r.buf), min(max(2*len(r.buf), 64), r.cap))
			copy(buf, r.buf)
			r.buf = buf
		}
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.head] = v
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
}

func (r *ring[T]) slice() []T {
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.head:]...)
	out = append(out, r.buf[:r.head]...)
	return out
}

func (r *ring[T]) reset() {
	r.buf = r.buf[:0]
	r.head = 0
	r.total = 0
}
