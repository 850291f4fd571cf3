package sanitizer

import (
	"fmt"
	"sort"

	"microscope/sim/isa"
	"microscope/sim/mem"
)

// Snapshot is the complete serializable shadow state of a Sanitizer.
// All map-backed state is flattened into sorted slices so the encoding
// is byte-deterministic (the same discipline as cpu.Snapshot), and a
// Snap/Restore round-trip is bit-identical.
//
// In-flight per-entry shadow state (SrcShadow, Shadow, CtrlShadow and
// the producer links) lives in the ROB entries and is captured by
// cpu.Snapshot itself; this snapshot carries the sanitizer-resident
// state: architectural shadow registers, shadow memory, region taint,
// pending dispositions and the event log.
type Snapshot struct {
	TaintRdrand bool
	Labels      []string
	RandMask    uint64

	RegAtom   [][isa.NumRegs]uint64
	RegShadow [][isa.NumRegs]uint64
	TxCkpt    [][isa.NumRegs]uint64

	MemShadow   []MemShadowEntry
	RegionTaint []RegionTaintEntry
	Pending     []PendingEntry
	Stats       []StatEntry
	Events      []TransmitEvent
}

// MemShadowEntry is one tainted physical byte.
type MemShadowEntry struct {
	PA   uint64
	Mask uint64
}

// RegionTaintEntry is one control-dependent PC's persistent taint.
type RegionTaintEntry struct {
	Ctx  int
	PC   int
	Mask uint64
}

// PendingEntry is one in-flight instruction's undetermined transmit
// events (indices into Events).
type PendingEntry struct {
	Ctx    int
	Seq    uint64
	Events []int
}

// StatEntry is one program point's execution counters.
type StatEntry struct {
	Ctx  int
	PC   int
	Stat pcStat
}

// Snap captures the sanitizer's complete state.
func (s *Sanitizer) Snap() *Snapshot {
	snap := &Snapshot{
		TaintRdrand: s.cfg.TaintRdrand,
		Labels:      append([]string(nil), s.labels...),
		RandMask:    s.randMask,
		RegAtom:     append([][isa.NumRegs]uint64(nil), s.regAtom...),
		RegShadow:   append([][isa.NumRegs]uint64(nil), s.regShadow...),
		TxCkpt:      append([][isa.NumRegs]uint64(nil), s.txCkpt...),
		Events:      append([]TransmitEvent(nil), s.events...),
	}
	ppns := make([]uint64, 0, len(s.shadowMem))
	for ppn := range s.shadowMem {
		ppns = append(ppns, ppn)
	}
	sort.Slice(ppns, func(i, j int) bool { return ppns[i] < ppns[j] })
	for _, ppn := range ppns {
		for off, m := range s.shadowMem[ppn] {
			if m != 0 {
				snap.MemShadow = append(snap.MemShadow, MemShadowEntry{PA: ppn<<mem.PageShift | uint64(off), Mask: m})
			}
		}
	}
	for ctx, rt := range s.regionTaint {
		for pc, m := range rt {
			snap.RegionTaint = append(snap.RegionTaint, RegionTaintEntry{Ctx: ctx, PC: pc, Mask: m})
		}
	}
	sort.Slice(snap.RegionTaint, func(i, j int) bool {
		a, b := snap.RegionTaint[i], snap.RegionTaint[j]
		if a.Ctx != b.Ctx {
			return a.Ctx < b.Ctx
		}
		return a.PC < b.PC
	})
	for k, idxs := range s.pending {
		snap.Pending = append(snap.Pending, PendingEntry{
			Ctx: k.Ctx, Seq: k.Seq, Events: append([]int(nil), idxs...),
		})
	}
	sort.Slice(snap.Pending, func(i, j int) bool {
		a, b := snap.Pending[i], snap.Pending[j]
		if a.Ctx != b.Ctx {
			return a.Ctx < b.Ctx
		}
		return a.Seq < b.Seq
	})
	for k, st := range s.stats {
		snap.Stats = append(snap.Stats, StatEntry{Ctx: k.Ctx, PC: k.PC, Stat: *st})
	}
	sort.Slice(snap.Stats, func(i, j int) bool {
		a, b := snap.Stats[i], snap.Stats[j]
		if a.Ctx != b.Ctx {
			return a.Ctx < b.Ctx
		}
		return a.PC < b.PC
	})
	return snap
}

// Restore replaces the sanitizer's state with the snapshot's. The
// branch-region caches are dropped and lazily recomputed on the next
// dispatch (they are pure functions of the loaded program); the
// restored region taint survives that recomputation.
func (s *Sanitizer) Restore(snap *Snapshot) error {
	n := s.core.Contexts()
	if len(snap.RegShadow) != n || len(snap.RegAtom) != n || len(snap.TxCkpt) != n {
		return fmt.Errorf("sanitizer: snapshot has %d contexts, core has %d", len(snap.RegShadow), n)
	}
	s.cfg.TaintRdrand = snap.TaintRdrand
	s.labels = append([]string(nil), snap.Labels...)
	s.bits = make(map[string]int, len(s.labels))
	for i, l := range s.labels {
		s.bits[l] = i
	}
	s.randMask = snap.RandMask
	s.regAtom = append([][isa.NumRegs]uint64(nil), snap.RegAtom...)
	s.regShadow = append([][isa.NumRegs]uint64(nil), snap.RegShadow...)
	s.txCkpt = append([][isa.NumRegs]uint64(nil), snap.TxCkpt...)

	s.shadowMem = make(map[uint64]*shadowPage)
	for _, e := range snap.MemShadow {
		s.storeShadow(e.PA, 1, e.Mask)
	}
	s.regionTaint = makeRegionTaint(n)
	for _, e := range snap.RegionTaint {
		if e.Ctx < 0 || e.Ctx >= n {
			return fmt.Errorf("sanitizer: region-taint entry for context %d out of range", e.Ctx)
		}
		s.regionTaint[e.Ctx][e.PC] = e.Mask
	}
	s.regionProg = make([]*isa.Program, n)
	s.regions = make([]map[int][]bool, n)

	s.events = append([]TransmitEvent(nil), snap.Events...)
	s.pending = make(map[pendKey][]int, len(snap.Pending))
	for _, e := range snap.Pending {
		s.pending[pendKey{Ctx: e.Ctx, Seq: e.Seq}] = append([]int(nil), e.Events...)
	}
	s.stats = make(map[pcKey]*pcStat, len(snap.Stats))
	for _, e := range snap.Stats {
		st := e.Stat
		s.stats[pcKey{Ctx: e.Ctx, PC: e.PC}] = &st
	}
	return nil
}
