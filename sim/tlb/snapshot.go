package tlb

import "fmt"

// Snapshot types for the checkpoint/restore subsystem (sim/snapshot).

// WaySnap is one valid TLB entry. Index is set*WaysPerSet+way: the way
// is kept so that Restore puts every entry back where it was, and a
// following Snapshot reproduces the image exactly. snapshot.Diff pairs
// entries by Index.
type WaySnap struct {
	Index int `snapdiff:"key"`
	Tr    Translation
	LRU   uint64
}

// TLBSnap is the serializable state of one TLB. Ways holds the valid
// entries only, in ascending Index order.
type TLBSnap struct {
	Sets, WaysPerSet int
	Ways             []WaySnap
	Clock            uint64
	Hits             uint64
	Misses           uint64
}

// Snapshot captures the TLB's valid entries and statistics.
func (t *TLB) Snapshot() TLBSnap {
	s := TLBSnap{
		Sets:       t.nsets,
		WaysPerSet: t.ways,
		Clock:      t.clock,
		Hits:       t.hits,
		Misses:     t.misses,
	}
	for _, set := range t.sets.Ascending() {
		for wi, w := range t.sets.Ways(uint64(set)) {
			if w.valid {
				s.Ways = append(s.Ways, WaySnap{Index: int(set)*t.ways + wi, Tr: w.tr, LRU: w.lru})
			}
		}
	}
	return s
}

// Restore overwrites the TLB's state with a snapshot taken from a TLB of
// the same geometry. It checks the whole image before changing anything,
// so a malformed one leaves the TLB as it was.
func (t *TLB) Restore(s TLBSnap) error {
	if s.Sets != t.nsets || s.WaysPerSet != t.ways {
		return fmt.Errorf("tlb %s: snapshot geometry %dx%d, have %dx%d",
			t.name, s.Sets, s.WaysPerSet, t.nsets, t.ways)
	}
	if err := t.sets.CheckIndices(len(s.Ways), func(i int) int { return s.Ways[i].Index }); err != nil {
		return fmt.Errorf("tlb %s: snapshot way %w", t.name, err)
	}
	t.sets.Reset()
	for _, w := range s.Ways {
		t.sets.Place(w.Index, way{valid: true, tr: w.Tr, lru: w.LRU})
	}
	t.clock = s.Clock
	t.hits = s.Hits
	t.misses = s.Misses
	return nil
}

// UnitSnap is the serializable state of the full TLB complex.
type UnitSnap struct {
	L1D, L1I, L2 TLBSnap
}

// Snapshot captures all three TLBs.
func (u *Unit) Snapshot() UnitSnap {
	return UnitSnap{L1D: u.L1D.Snapshot(), L1I: u.L1I.Snapshot(), L2: u.L2.Snapshot()}
}

// Restore overwrites all three TLBs from a snapshot.
func (u *Unit) Restore(s UnitSnap) error {
	if err := u.L1D.Restore(s.L1D); err != nil {
		return err
	}
	if err := u.L1I.Restore(s.L1I); err != nil {
		return err
	}
	return u.L2.Restore(s.L2)
}
