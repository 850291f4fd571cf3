package trace

import "slices"

// instrKey identifies one dynamic instruction across its events.
type instrKey struct {
	ctx int
	seq uint64
}

// maxWindow bounds instrSet's window, in seqs.
const maxWindow = 1 << 20

// instrSet records which instructions a run's events named and which of
// them retired, and counts those that never retired. A core numbers its
// dynamic instructions from one counter, so a run's seqs fill a dense
// window from the first seq it traced; each slot of the window holds one
// bit per context, and adding or testing a key costs O(1). Keys outside
// the window (an older seq, a context outside [0, 64), a window of more
// than maxWindow seqs) go to a map, so the set stays exact on any
// stream.
type instrSet struct {
	base  uint64
	slots []instrSlot       // slots[i] holds seq base+i
	over  map[instrKey]bool // keys outside the window: retired or not
	// transient counts the keys added and never added as retired.
	transient int
}

// instrSlot holds the context bits of one seq.
type instrSlot struct{ seen, retired uint64 }

func (s *instrSet) reset() {
	s.slots = s.slots[:0]
	clear(s.over)
	s.transient = 0
}

// slot returns the window index of k, or false when k belongs to the
// overflow map.
func (s *instrSet) slot(k instrKey) (int, bool) {
	if k.ctx < 0 || k.ctx >= 64 || k.seq < s.base || k.seq-s.base >= maxWindow {
		return 0, false
	}
	return int(k.seq - s.base), true
}

// add records an event of k, an EvRetire when retire is set. The first
// key that can open the window fixes its base.
func (s *instrSet) add(k instrKey, retire bool) {
	if len(s.slots) == 0 && k.ctx >= 0 && k.ctx < 64 {
		s.base = k.seq
	}
	i, ok := s.slot(k)
	if !ok {
		if s.over == nil {
			s.over = make(map[instrKey]bool)
		}
		wasRetired, seen := s.over[k]
		if !seen {
			s.transient++
		}
		if retire && !wasRetired {
			s.transient--
		}
		s.over[k] = wasRetired || retire
		return
	}
	if n := len(s.slots); i >= n {
		s.slots = slices.Grow(s.slots, i+1-n)[:i+1]
		clear(s.slots[n:])
	}
	bit, sl := uint64(1)<<k.ctx, &s.slots[i]
	if sl.seen&bit == 0 {
		sl.seen |= bit
		s.transient++
	}
	if retire && sl.retired&bit == 0 {
		sl.retired |= bit
		s.transient--
	}
}

// retired reports whether an EvRetire named k.
func (s *instrSet) retired(k instrKey) bool {
	if i, ok := s.slot(k); ok {
		return i < len(s.slots) && s.slots[i].retired&(1<<k.ctx) != 0
	}
	return s.over[k]
}
