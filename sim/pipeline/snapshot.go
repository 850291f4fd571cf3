package pipeline

import "fmt"

// Snapshot types for the checkpoint/restore subsystem (sim/snapshot).
// Each passive pipeline structure exposes a plain-data Snap struct plus
// Snapshot/Restore methods; the composition into a whole-machine image
// lives in sim/snapshot. ROB entries are snapshotted by sim/cpu (their
// operands and the context's rename table name producers by slab slot,
// which the image encodes as ROB indices), so the ROB itself only
// provides BeginReplace.

// PortSetSnap is the serializable state of a PortSet.
type PortSetSnap struct {
	Cycle         uint64
	IssuedThis    [NumPorts]bool
	DivBusyUntil  uint64
	DivBusyCycles uint64
}

// Snapshot captures the port set's state.
func (ps *PortSet) Snapshot() PortSetSnap {
	return PortSetSnap{
		Cycle:         ps.cycle,
		IssuedThis:    ps.issuedThis,
		DivBusyUntil:  ps.divBusyUntil,
		DivBusyCycles: ps.DivBusyCycles,
	}
}

// Restore overwrites the port set's state with a snapshot.
func (ps *PortSet) Restore(s PortSetSnap) {
	ps.cycle = s.Cycle
	ps.issuedThis = s.IssuedThis
	ps.divBusyUntil = s.DivBusyUntil
	ps.DivBusyCycles = s.DivBusyCycles
}

// BTBSnap is one serializable branch-target-buffer entry.
type BTBSnap struct {
	Valid  bool
	PC     int
	Target int
}

// PredictorSnap is the serializable state of a Predictor.
type PredictorSnap struct {
	Counters    []uint8
	BTB         []BTBSnap
	Lookups     uint64
	Mispredicts uint64
}

// Snapshot captures the predictor's full table and statistics. A
// predictor whose tables were never allocated captures full-size zero
// tables, the image zeroed tables give.
func (bp *Predictor) Snapshot() PredictorSnap {
	n := bp.mask + 1
	s := PredictorSnap{
		Counters:    make([]uint8, n),
		BTB:         make([]BTBSnap, n),
		Lookups:     bp.Lookups,
		Mispredicts: bp.Mispredicts,
	}
	copy(s.Counters, bp.counters)
	for i, e := range bp.btb {
		s.BTB[i] = BTBSnap{Valid: e.valid, PC: e.pc, Target: e.target}
	}
	return s
}

// Restore overwrites the predictor's state with a snapshot. The snapshot
// must have been taken from a predictor of the same geometry. An image
// whose tables are all zero leaves unallocated tables unallocated.
func (bp *Predictor) Restore(s PredictorSnap) error {
	if n := bp.mask + 1; len(s.Counters) != n || len(s.BTB) != n {
		return fmt.Errorf("pipeline: predictor snapshot geometry %d/%d, have %d/%d",
			len(s.Counters), len(s.BTB), n, n)
	}
	if bp.counters == nil && !zeroTables(s) {
		bp.allocate()
	}
	copy(bp.counters, s.Counters)
	for i := range bp.btb {
		e := s.BTB[i]
		bp.btb[i] = btbEntry{valid: e.Valid, pc: e.PC, target: e.Target}
	}
	bp.Lookups = s.Lookups
	bp.Mispredicts = s.Mispredicts
	return nil
}

// zeroTables reports whether every counter and BTB record of s is zero.
func zeroTables(s PredictorSnap) bool {
	for _, c := range s.Counters {
		if c != 0 {
			return false
		}
	}
	for _, e := range s.BTB {
		if e != (BTBSnap{}) {
			return false
		}
	}
	return true
}

// BeginReplace empties the ROB for a snapshot restore, after checking
// the incoming entry count fits. The caller then Alloc+Pushes each
// restored entry in program order into the reserved ROB, and the i-th
// Alloc returns slot i, so a restored operand or rename link names its
// producer's slot by the producer's ROB index. It returns an error
// instead of panicking when the count exceeds capacity: a corrupt or
// mismatched snapshot must surface as a decode error, not a crash.
func (r *ROB) BeginReplace(n int) error {
	if n > r.cap {
		return fmt.Errorf("pipeline: %d snapshot entries exceed ROB capacity %d", n, r.cap)
	}
	r.Reset()
	return nil
}
