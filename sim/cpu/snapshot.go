package cpu

import (
	"fmt"
	"sort"

	"microscope/sim/cache"
	"microscope/sim/isa"
	"microscope/sim/mem"
	"microscope/sim/pipeline"
	"microscope/sim/tlb"
)

// Snapshot support: CoreSnap is a plain-data, gob-serializable image of
// the full microarchitectural state of a core — per-context architectural
// registers, rename/ROB state, branch predictors, the shared port set,
// cache hierarchy, PWC and TLBs, plus the deterministic-RNG state and the
// nondeterministic-input record log. Restore() overwrites a core built
// from the same structural configuration so that Restore(snap); Run(n) is
// bit-identical (same trace events, same cycles, same final state) to the
// original execution continuing past the snapshot point.
//
// Producer pointers inside ROB entries are encoded as indices into the
// owning context's entry list. Captured (ready) operands drop their
// provenance link — by capture time the sanitizer's dispatch hook has
// already consumed it, so the restored machine is semantically identical
// even though the pointer graph is not reproduced bit-for-bit. The
// scheduler's derived wakeup state (ready lists, completion heap, waiter
// links) is not encoded at all: recount rebuilds it exactly from the
// restored ROB.
//
// The snapshot does NOT include: the fault handler, the tracer, or the
// contexts' address-space bindings. Those are host-side wiring (closures
// and interfaces cannot be serialized); the kernel layer re-establishes
// address spaces from its own snapshot and callers re-attach tracers.

// ProgramSnap is a serializable isa.Program (labels as a sorted slice so
// the encoding is deterministic).
type ProgramSnap struct {
	Instrs []isa.Instr
	Labels []LabelSnap
}

// LabelSnap is one program label.
type LabelSnap struct {
	Name  string
	Index int
}

func snapProgram(p *isa.Program) ProgramSnap {
	s := ProgramSnap{Instrs: append([]isa.Instr(nil), p.Instrs...)}
	for name, idx := range p.Labels {
		s.Labels = append(s.Labels, LabelSnap{Name: name, Index: idx})
	}
	sort.Slice(s.Labels, func(i, j int) bool { return s.Labels[i].Name < s.Labels[j].Name })
	return s
}

func (s ProgramSnap) restore() *isa.Program {
	p := &isa.Program{Instrs: append([]isa.Instr(nil), s.Instrs...)}
	if len(s.Labels) > 0 {
		p.Labels = make(map[string]int, len(s.Labels))
		for _, l := range s.Labels {
			p.Labels[l.Name] = l.Index
		}
	}
	return p
}

// OperandSnap is one serializable ROB-entry operand. Producer is the
// index of the producing entry in the owning context's ROB (oldest
// first), or -1 when the operand is ready.
type OperandSnap struct {
	Ready    bool
	Value    uint64
	Producer int
}

// EntrySnap is one serializable in-flight instruction.
type EntrySnap struct {
	Seq     uint64
	PC      int
	Instr   isa.Instr
	State   pipeline.EntryState
	Context int

	Src        [2]OperandSnap
	Result     uint64
	CompleteAt uint64

	PredictedTaken bool
	PredictedPC    int
	ActualPC       int
	Mispredicted   bool

	EffAddr    uint64
	PhysAddr   uint64
	HasFault   bool
	Fault      mem.Fault
	WalkCycles int

	// Shadow-taint fields (all zero unless a ShadowTracker was attached).
	// PendShadow carries captured-but-not-yet-folded producer taint, the
	// engine-side handoff the sanitizer folds into SrcShadow at issue;
	// taint of producers still in flight needs no encoding, because the
	// restored completion broadcast captures it again.
	SrcShadow  [2]uint64
	PendShadow [2]uint64
	Shadow     uint64
	CtrlShadow uint64
}

// ContextSnap is the serializable state of one SMT context.
type ContextSnap struct {
	Regs [isa.NumRegs]uint64

	HasProg bool
	Prog    ProgramSnap

	FetchPC     int
	FetchHalted bool
	Halted      bool
	StallUntil  uint64
	Serialize   bool

	InTx          bool
	TxCheckpoint  [isa.NumRegs]uint64
	TxAbortPC     int
	HasTxWriteSet bool
	TxWriteSet    []uint64 // sorted physical line addresses

	NDispatched     int
	NIssued         int
	NFences         int
	NextCompleteAt  uint64
	IssueSleepUntil uint64

	ROB []EntrySnap
	RAT [isa.NumRegs]int // ROB index of the renaming entry, or -1

	BP pipeline.PredictorSnap

	// Jamais Vu detector state (Config.SquashThreshold); counts sorted
	// by PC so the encoding is deterministic.
	JVEpoch  uint64
	JVCounts []JVCountSnap

	Stats ContextStats
}

// JVCountSnap is one PC's fault-squash count in the Jamais Vu detector.
type JVCountSnap struct {
	PC    int
	Count uint32
}

// CoreSnap is the serializable state of the whole core.
type CoreSnap struct {
	Cycle   uint64
	Seq     uint64
	NLoaded int
	NHalted int
	Skipped uint64

	RngState    uint64
	JitterCount uint64
	RdrandDraws uint64
	RdrandLog   []uint64

	Ports pipeline.PortSetSnap
	Hier  cache.HierarchySnap
	PWC   cache.PWCSnap
	TLBs  tlb.UnitSnap

	Contexts []ContextSnap
}

// Snapshot captures the core's full state.
func (c *Core) Snapshot() (*CoreSnap, error) {
	s := &CoreSnap{
		Cycle:       c.cycle,
		Seq:         c.seq,
		NLoaded:     c.nLoaded,
		NHalted:     c.nHalted,
		Skipped:     c.skipped,
		RngState:    c.rngState,
		JitterCount: c.jitterCount,
		RdrandDraws: c.rdrandDraws,
		RdrandLog:   append([]uint64(nil), c.rdrandLog...),
		Ports:       c.ports.Snapshot(),
		Hier:        c.hier.Snapshot(),
		PWC:         c.pwc.Snapshot(),
		TLBs:        c.tlbs.Snapshot(),
	}
	for _, ctx := range c.contexts {
		cs, err := snapContext(ctx)
		if err != nil {
			return nil, fmt.Errorf("cpu: snapshot context %d: %w", ctx.id, err)
		}
		s.Contexts = append(s.Contexts, cs)
	}
	return s, nil
}

func snapContext(ctx *Context) (ContextSnap, error) {
	s := ContextSnap{
		Regs:            ctx.regs,
		FetchPC:         ctx.fetchPC,
		FetchHalted:     ctx.fetchHalted,
		Halted:          ctx.halted,
		StallUntil:      ctx.stallUntil,
		Serialize:       ctx.serialize,
		InTx:            ctx.inTx,
		TxCheckpoint:    ctx.txCheckpoint,
		TxAbortPC:       ctx.txAbortPC,
		NDispatched:     ctx.nDispatched,
		NIssued:         ctx.nIssued,
		NFences:         ctx.nFences,
		NextCompleteAt:  ctx.nextCompleteAt,
		IssueSleepUntil: ctx.issueSleepUntil,
		BP:              ctx.bp.Snapshot(),
		JVEpoch:         ctx.jvEpoch,
		Stats:           ctx.stats,
	}
	if len(ctx.jvCounts) > 0 {
		s.JVCounts = make([]JVCountSnap, 0, len(ctx.jvCounts))
		for pc, n := range ctx.jvCounts {
			s.JVCounts = append(s.JVCounts, JVCountSnap{PC: pc, Count: n})
		}
		sort.Slice(s.JVCounts, func(i, j int) bool { return s.JVCounts[i].PC < s.JVCounts[j].PC })
	}
	if ctx.prog != nil {
		s.HasProg = true
		s.Prog = snapProgram(ctx.prog)
	}
	if ctx.txWriteSet != nil {
		s.HasTxWriteSet = true
		s.TxWriteSet = make([]uint64, 0, len(ctx.txWriteSet))
		for a := range ctx.txWriteSet {
			s.TxWriteSet = append(s.TxWriteSet, uint64(a))
		}
		sort.Slice(s.TxWriteSet, func(i, j int) bool { return s.TxWriteSet[i] < s.TxWriteSet[j] })
	}

	entries := ctx.rob.Entries()
	index := make(map[*pipeline.Entry]int, len(entries))
	for i, e := range entries {
		index[e] = i
	}
	for _, e := range entries {
		es := EntrySnap{
			Seq:            e.Seq,
			PC:             e.PC,
			Instr:          e.Instr,
			State:          e.State,
			Context:        e.Context,
			Result:         e.Result,
			CompleteAt:     e.CompleteAt,
			PredictedTaken: e.PredictedTaken,
			PredictedPC:    e.PredictedPC,
			ActualPC:       e.ActualPC,
			Mispredicted:   e.Mispredicted,
			EffAddr:        e.EffAddr,
			PhysAddr:       e.PhysAddr,
			WalkCycles:     e.WalkCycles,
			SrcShadow:      e.SrcShadow,
			PendShadow:     e.PendShadow,
			Shadow:         e.Shadow,
			CtrlShadow:     e.CtrlShadow,
		}
		if e.Fault != nil {
			f, ok := e.Fault.(*mem.Fault)
			if !ok {
				return ContextSnap{}, fmt.Errorf("entry seq %d: unsupported fault type %T", e.Seq, e.Fault)
			}
			es.HasFault = true
			es.Fault = *f
		}
		for i, op := range e.Src {
			os, err := snapOperand(op, index)
			if err != nil {
				return ContextSnap{}, fmt.Errorf("entry seq %d src %d: %w", e.Seq, i, err)
			}
			es.Src[i] = os
		}
		s.ROB = append(s.ROB, es)
	}
	for r, e := range ctx.rat {
		if e == nil {
			s.RAT[r] = -1
			continue
		}
		i, ok := index[e]
		if !ok {
			return ContextSnap{}, fmt.Errorf("RAT[%d] names an entry outside the ROB", r)
		}
		s.RAT[r] = i
	}
	return s, nil
}

// snapOperand encodes one operand. Captured operands drop their
// provenance link (it must not be dereferenced anyway — the producer's
// slot may have been recycled); pending operands encode the producer's
// ROB index, which the engine's eager capture guarantees is in flight.
func snapOperand(op pipeline.Operand, index map[*pipeline.Entry]int) (OperandSnap, error) {
	if op.Ready {
		return OperandSnap{Ready: true, Value: op.Value, Producer: -1}, nil
	}
	p := op.Producer
	if p == nil {
		return OperandSnap{}, fmt.Errorf("pending operand with no producer")
	}
	if i, ok := index[p]; ok {
		return OperandSnap{Producer: i}, nil
	}
	return OperandSnap{}, fmt.Errorf("pending producer seq %d in state %s is outside the ROB", p.Seq, p.State)
}

// Restore overwrites the core's state with a snapshot. The core must have
// been built from the same structural configuration (context count, ROB
// size, predictor size, cache geometry, PWC size); mismatches are
// reported as errors. The fault handler, tracer, and per-context address
// spaces are left untouched — the caller re-establishes them.
func (c *Core) Restore(s *CoreSnap) error {
	if len(s.Contexts) != len(c.contexts) {
		return fmt.Errorf("cpu: snapshot has %d contexts, core has %d", len(s.Contexts), len(c.contexts))
	}
	if err := c.hier.Restore(s.Hier); err != nil {
		return fmt.Errorf("cpu: restore: %w", err)
	}
	if err := c.pwc.Restore(s.PWC); err != nil {
		return fmt.Errorf("cpu: restore: %w", err)
	}
	if err := c.tlbs.Restore(s.TLBs); err != nil {
		return fmt.Errorf("cpu: restore: %w", err)
	}
	c.ports.Restore(s.Ports)
	c.cycle = s.Cycle
	c.seq = s.Seq
	c.nLoaded = s.NLoaded
	c.nHalted = s.NHalted
	c.skipped = s.Skipped
	c.rngState = s.RngState
	c.jitterCount = s.JitterCount
	c.rdrandDraws = s.RdrandDraws
	c.rdrandLog = append(c.rdrandLog[:0], s.RdrandLog...)
	for i, cs := range s.Contexts {
		if err := restoreContext(c.contexts[i], cs); err != nil {
			return fmt.Errorf("cpu: restore context %d: %w", i, err)
		}
	}
	return nil
}

func restoreContext(ctx *Context, s ContextSnap) error {
	ctx.regs = s.Regs
	if s.HasProg {
		ctx.prog = s.Prog.restore()
	} else {
		ctx.prog = nil
	}
	ctx.fetchPC = s.FetchPC
	ctx.fetchHalted = s.FetchHalted
	ctx.halted = s.Halted
	ctx.stallUntil = s.StallUntil
	ctx.serialize = s.Serialize
	ctx.inTx = s.InTx
	ctx.txCheckpoint = s.TxCheckpoint
	ctx.txAbortPC = s.TxAbortPC
	if s.HasTxWriteSet {
		ctx.txWriteSet = make(map[mem.Addr]struct{}, len(s.TxWriteSet))
		for _, a := range s.TxWriteSet {
			ctx.txWriteSet[mem.Addr(a)] = struct{}{}
		}
	} else {
		ctx.txWriteSet = nil
	}
	ctx.jvEpoch = s.JVEpoch
	if len(s.JVCounts) > 0 {
		ctx.jvCounts = make(map[int]uint32, len(s.JVCounts))
		for _, jc := range s.JVCounts {
			ctx.jvCounts[jc.PC] = jc.Count
		}
	} else {
		ctx.jvCounts = nil
	}
	ctx.stats = s.Stats

	if err := ctx.rob.BeginReplace(len(s.ROB)); err != nil {
		return err
	}
	entries := make([]*pipeline.Entry, len(s.ROB))
	for i, es := range s.ROB {
		e := ctx.rob.Alloc()
		slot := e.Slot
		*e = pipeline.Entry{
			Seq:            es.Seq,
			PC:             es.PC,
			Instr:          es.Instr,
			State:          es.State,
			Context:        es.Context,
			Slot:           slot,
			Result:         es.Result,
			CompleteAt:     es.CompleteAt,
			PredictedTaken: es.PredictedTaken,
			PredictedPC:    es.PredictedPC,
			ActualPC:       es.ActualPC,
			Mispredicted:   es.Mispredicted,
			EffAddr:        es.EffAddr,
			PhysAddr:       es.PhysAddr,
			WalkCycles:     es.WalkCycles,
			SrcShadow:      es.SrcShadow,
			PendShadow:     es.PendShadow,
			Shadow:         es.Shadow,
			CtrlShadow:     es.CtrlShadow,
		}
		if es.HasFault {
			f := es.Fault
			e.Fault = &f
		}
		ctx.rob.Push(e)
		entries[i] = e
	}
	// Second pass: link producer pointers now that every entry exists.
	for i, es := range s.ROB {
		for j, os := range es.Src {
			switch {
			case os.Ready:
				entries[i].Src[j] = pipeline.Operand{Ready: true, Value: os.Value}
			case os.Producer < 0 || os.Producer >= len(entries):
				return fmt.Errorf("entry %d src %d: producer index %d out of range", i, j, os.Producer)
			default:
				entries[i].Src[j] = pipeline.Operand{Producer: entries[os.Producer]}
			}
		}
	}
	for r, idx := range s.RAT {
		switch {
		case idx < 0:
			ctx.rat[r] = nil
		case idx >= len(entries):
			return fmt.Errorf("RAT[%d]: entry index %d out of range", r, idx)
		default:
			ctx.rat[r] = entries[idx]
		}
	}
	if err := ctx.bp.Restore(s.BP); err != nil {
		return err
	}
	// Rebuild the scheduler's derived state from the restored ROB, then
	// overwrite the counters and wake points with the snapshotted values:
	// recount's recomputation must agree on the counters, but it resets
	// issueSleepUntil (and a restored quiesce/skip point must be
	// bit-identical for the fast-forward skip accounting to reproduce).
	ctx.recount()
	ctx.nDispatched = s.NDispatched
	ctx.nIssued = s.NIssued
	ctx.nFences = s.NFences
	ctx.nextCompleteAt = s.NextCompleteAt
	ctx.issueSleepUntil = s.IssueSleepUntil
	return nil
}

// UpdateTiming replaces the core's configuration with cfg, which must
// agree with the current configuration on every structural field — the
// fields that size hardware structures a snapshot encodes (context count,
// ROB size, branch-predictor size, PWC size, cache hierarchy). Timing and
// behavioral fields (latencies, jitter, fencing, fast-forward) may
// differ: sweep forks use this to vary per-trial jitter after restoring a
// shared checkpoint.
func (c *Core) UpdateTiming(cfg Config) error {
	cfg.validate()
	switch {
	case cfg.Contexts != c.cfg.Contexts:
		return fmt.Errorf("cpu: UpdateTiming cannot change Contexts (%d -> %d)", c.cfg.Contexts, cfg.Contexts)
	case cfg.ROBSize != c.cfg.ROBSize:
		return fmt.Errorf("cpu: UpdateTiming cannot change ROBSize (%d -> %d)", c.cfg.ROBSize, cfg.ROBSize)
	case cfg.BranchPredictorBits != c.cfg.BranchPredictorBits:
		return fmt.Errorf("cpu: UpdateTiming cannot change BranchPredictorBits (%d -> %d)",
			c.cfg.BranchPredictorBits, cfg.BranchPredictorBits)
	case cfg.PWCSize != c.cfg.PWCSize:
		return fmt.Errorf("cpu: UpdateTiming cannot change PWCSize (%d -> %d)", c.cfg.PWCSize, cfg.PWCSize)
	case cfg.Hierarchy != c.cfg.Hierarchy:
		return fmt.Errorf("cpu: UpdateTiming cannot change the cache hierarchy")
	}
	c.cfg = cfg
	return nil
}
