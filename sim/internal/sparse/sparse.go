// Package sparse stores the ways of the simulator's set-associative
// structures (sim/cache, sim/tlb) sparsely. A set gets its ways on its
// first fill, so resetting a structure, or listing what it holds, costs
// the sets a run touched rather than the structure's capacity: the
// default L3 has 8,192 sets of 16 ways, of which a victim's run fills a
// few dozen.
package sparse

import (
	"fmt"
	"slices"
)

// chunkSets is how many sets' ways one storage chunk holds. A set takes
// the next free ways on its first fill, so a fill never re-copies the
// sets filled before it.
const chunkSets = 16

// Sets holds the ways of a structure of fixed geometry. Build one with
// New.
type Sets[T any] struct {
	ways   int
	slot   []int32 // per set: 1 + its position in live, or 0 while it has no ways
	live   []int32 // the sets that have ways, in fill order
	chunks [][]T   // way storage: position k is chunks[k/chunkSets]; kept across resets
}

// New returns storage for sets sets of ways ways each, none allocated.
func New[T any](sets, ways int) Sets[T] {
	return Sets[T]{ways: ways, slot: make([]int32, sets)}
}

// Ways returns set's ways, or nil while it has none.
func (s *Sets[T]) Ways(set uint64) []T {
	k := uint(s.slot[set])
	if k == 0 {
		return nil
	}
	k--
	off := k % chunkSets * uint(s.ways)
	return s.chunks[k/chunkSets][off : off+uint(s.ways)]
}

// Alloc gives set, which must have no ways, its ways, all zero.
func (s *Sets[T]) Alloc(set uint64) []T {
	k := len(s.live)
	if k/chunkSets == len(s.chunks) {
		s.chunks = append(s.chunks, make([]T, min(chunkSets, len(s.slot))*s.ways))
	}
	s.live = append(s.live, int32(set))
	s.slot[set] = int32(k + 1)
	ws := s.Ways(set)
	clear(ws) // chunks are reused after a Reset
	return ws
}

// Place stores v at index set*ways+way, giving the set its ways first if
// it has none.
func (s *Sets[T]) Place(index int, v T) {
	set := uint64(index / s.ways)
	ws := s.Ways(set)
	if ws == nil {
		ws = s.Alloc(set)
	}
	ws[index%s.ways] = v
}

// CheckIndices checks n entry indices, index(0) to index(n-1), before a
// caller Places them: each must lie below sets*ways, and they must
// strictly ascend, so that no two name one way.
func (s *Sets[T]) CheckIndices(n int, index func(i int) int) error {
	prev := -1
	for i := 0; i < n; i++ {
		k := index(i)
		if k < 0 || k >= len(s.slot)*s.ways {
			return fmt.Errorf("index %d outside %d entries", k, len(s.slot)*s.ways)
		}
		if k <= prev {
			return fmt.Errorf("index %d does not ascend after %d", k, prev)
		}
		prev = k
	}
	return nil
}

// Reset takes every set's ways away.
func (s *Sets[T]) Reset() {
	for _, set := range s.live {
		s.slot[set] = 0
	}
	s.live = s.live[:0]
}

// Live returns the sets that have ways, in fill order. It is valid until
// the next Alloc or Reset.
func (s *Sets[T]) Live() []int32 { return s.live }

// Ascending returns the sets that have ways in ascending order, in a
// slice of its own.
func (s *Sets[T]) Ascending() []int32 {
	sets := slices.Clone(s.live)
	slices.Sort(sets)
	return sets
}
