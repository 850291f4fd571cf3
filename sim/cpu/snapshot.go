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
// The producer slots inside ROB entries and the rename table are encoded
// as indices into the owning context's entry list (oldest first); a
// restore puts entry i in slab slot i, so the index is the restored slot.
// Captured (ready) operands drop their provenance link — by capture time
// the sanitizer's dispatch hook has already consumed it, so the restored
// machine is semantically identical even though the links are not
// reproduced bit-for-bit. An entry's instruction is encoded as the
// program's isa.Instr at its PC, and a restore decodes it again from the
// restored program. The scheduler's derived wakeup state (ready lists,
// completion heap, waiter links) is not encoded at all: recount rebuilds
// it exactly from the restored ROB.
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
	for _, e := range entries {
		es := EntrySnap{
			Seq:            e.Seq,
			PC:             e.PC,
			Instr:          ctx.prog.At(e.PC),
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
			HasFault:       e.HasFault,
			Fault:          e.Fault,
			WalkCycles:     e.WalkCycles,
			SrcShadow:      e.SrcShadow,
			PendShadow:     e.PendShadow,
			Shadow:         e.Shadow,
			CtrlShadow:     e.CtrlShadow,
		}
		for i, op := range e.Src {
			if op.Ready {
				// Captured: the provenance link is dropped (the producer's
				// slot may have been recycled since).
				es.Src[i] = OperandSnap{Ready: true, Value: op.Value, Producer: -1}
				continue
			}
			// Pending: the engine's eager capture guarantees the producer
			// is in flight.
			j := robIndex(ctx.rob, entries, op.Producer)
			if j < 0 {
				p := ctx.rob.BySlot(op.Producer)
				return ContextSnap{}, fmt.Errorf("entry seq %d src %d: pending producer seq %d in state %s is outside the ROB",
					e.Seq, i, p.Seq, p.State)
			}
			es.Src[i] = OperandSnap{Producer: j}
		}
		s.ROB = append(s.ROB, es)
	}
	for r, slot := range ctx.rat {
		if slot == pipeline.NoProducer {
			s.RAT[r] = -1
			continue
		}
		j := robIndex(ctx.rob, entries, slot)
		if j < 0 {
			return ContextSnap{}, fmt.Errorf("RAT[%d] names an entry outside the ROB", r)
		}
		s.RAT[r] = j
	}
	return s, nil
}

// robIndex returns the index in entries (the ROB, oldest first) of the
// in-flight entry in slab slot, or -1 when the slot holds none. Entries
// are in seq order, so the slot's seq finds it by binary search.
func robIndex(rob *pipeline.ROB, entries []*pipeline.Entry, slot int32) int {
	p := rob.BySlot(slot)
	i := sort.Search(len(entries), func(i int) bool { return entries[i].Seq >= p.Seq })
	if i < len(entries) && entries[i] == p {
		return i
	}
	return -1
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
	for _, t := range []tlb.TLBSnap{s.TLBs.L1D, s.TLBs.L1I, s.TLBs.L2} {
		for _, w := range t.Ways {
			if w.Tr.PPN >= c.phys.Frames() {
				return fmt.Errorf("cpu: restore: tlb entry %d maps frame %#x beyond physical memory", w.Index, w.Tr.PPN)
			}
		}
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
		if err := restoreContext(c.contexts[i], cs, c.phys.Size()); err != nil {
			return fmt.Errorf("cpu: restore context %d: %w", i, err)
		}
	}
	return nil
}

// restoreContext restores one context. The program must be well formed
// (isa.Program.Validate), and every in-flight entry must be an
// instruction of it with a physical address inside memory (physBytes),
// so that a damaged image is an error here rather than a panic mid-run.
// The restored program is decoded, and each entry takes its decoded
// instruction from there.
func restoreContext(ctx *Context, s ContextSnap, physBytes uint64) error {
	ctx.regs = s.Regs
	ctx.prog = nil
	ctx.dec = ctx.dec[:0]
	if s.HasProg {
		p := s.Prog.restore()
		if err := p.Validate(); err != nil {
			return err
		}
		ctx.prog = p
		ctx.dec = pipeline.AppendDecoded(ctx.dec, p)
		ctx.rob.Reserve()
	}
	for i, es := range s.ROB {
		if ctx.prog == nil || es.PC < 0 || es.PC >= ctx.prog.Len() || es.Instr != ctx.prog.Instrs[es.PC] {
			return fmt.Errorf("rob entry %d: %s at pc %d is not in the program", i, es.Instr, es.PC)
		}
		if es.PhysAddr > physBytes-8 {
			return fmt.Errorf("rob entry %d: physical address %#x beyond memory", i, es.PhysAddr)
		}
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
	// Entry i takes slot i (BeginReplace), so a producer's ROB index is
	// its slot.
	for i, es := range s.ROB {
		e := ctx.rob.Alloc()
		*e = pipeline.Entry{
			Seq:            es.Seq,
			PC:             es.PC,
			Instr:          ctx.dec[es.PC],
			State:          es.State,
			Context:        es.Context,
			Slot:           e.Slot,
			Result:         es.Result,
			CompleteAt:     es.CompleteAt,
			PredictedTaken: es.PredictedTaken,
			PredictedPC:    es.PredictedPC,
			ActualPC:       es.ActualPC,
			Mispredicted:   es.Mispredicted,
			EffAddr:        es.EffAddr,
			PhysAddr:       es.PhysAddr,
			HasFault:       es.HasFault,
			WalkCycles:     es.WalkCycles,
			SrcShadow:      es.SrcShadow,
			PendShadow:     es.PendShadow,
			Shadow:         es.Shadow,
			CtrlShadow:     es.CtrlShadow,
		}
		if es.HasFault {
			e.Fault = es.Fault
		}
		for j, os := range es.Src {
			switch {
			case os.Ready:
				e.Src[j] = pipeline.Operand{Ready: true, Value: os.Value, Producer: pipeline.NoProducer}
			case os.Producer < 0 || os.Producer >= len(s.ROB):
				return fmt.Errorf("entry %d src %d: producer index %d out of range", i, j, os.Producer)
			default:
				e.Src[j] = pipeline.Operand{Producer: int32(os.Producer)}
			}
		}
		ctx.rob.Push(e)
	}
	for r, idx := range s.RAT {
		switch {
		case idx < 0:
			ctx.rat[r] = pipeline.NoProducer
		case idx >= len(s.ROB):
			return fmt.Errorf("RAT[%d]: entry index %d out of range", r, idx)
		default:
			ctx.rat[r] = int32(idx)
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
// shared checkpoint. An invalid cfg (Config.Validate) is an error.
func (c *Core) UpdateTiming(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
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
