package cache

import "testing"

// lineStream returns n distinct line addresses spread over sets and tags
// the way a victim's data and page-table footprint is: consecutive lines
// from a few pages far apart.
func lineStream(n int, base uint64) []uint64 {
	pas := make([]uint64, n)
	for i := range pas {
		pas[i] = base + uint64(i/16)<<20 + uint64(i%16)*64
	}
	return pas
}

func BenchmarkHierarchyAccess(b *testing.B) {
	b.Run("hit", func(b *testing.B) {
		h := NewDefaultHierarchy()
		pas := lineStream(64, 0x40_0000)
		for _, pa := range pas {
			h.Access(pa)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Access(pas[i&63])
		}
	})
	b.Run("miss", func(b *testing.B) {
		// A cyclic sweep over 64 MB of lines, eight times the L3, misses
		// at every level once the first lap has filled the sets.
		h := NewDefaultHierarchy()
		const lines = 64 << 20 >> 6
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Access(uint64(i%lines) << 6)
		}
	})
}

// BenchmarkCacheRestore rewinds a hierarchy between a warm checkpoint
// image (a victim's footprint after a few thousand cycles) and the
// dirtied image a trial leaves behind, as the tournament does between
// cells. One op is both restores.
func BenchmarkCacheRestore(b *testing.B) {
	h := NewDefaultHierarchy()
	for _, pa := range lineStream(96, 0x40_0000) {
		h.Access(pa)
	}
	warm := h.Snapshot()
	for _, pa := range lineStream(256, 0x800_0000) {
		h.Access(pa)
	}
	dirty := h.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.Restore(dirty); err != nil {
			b.Fatal(err)
		}
		if err := h.Restore(warm); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHierarchyFlushAll is SIMF's flush-on-fault after a window
// that touched 96 lines: one op refills them and flushes every level.
func BenchmarkHierarchyFlushAll(b *testing.B) {
	h := NewDefaultHierarchy()
	pas := lineStream(96, 0x40_0000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pa := range pas {
			h.Access(pa)
		}
		h.FlushAll()
	}
}
