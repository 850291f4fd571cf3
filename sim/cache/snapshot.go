package cache

import (
	"fmt"

	"microscope/sim/mem"
)

// Snapshot types for the checkpoint/restore subsystem (sim/snapshot).
// Geometry (set/way counts, capacities) is carried in every Snap and
// validated on Restore: a snapshot can only be restored into structures
// built from the same configuration, so a config drift surfaces as a
// descriptive error rather than silent state corruption.

// LineSnap is one valid cache line. Index is set*Ways+way: the way is
// kept so that Restore puts every line back where it was, and a
// following Snapshot reproduces the image exactly. snapshot.Diff pairs
// lines by Index.
type LineSnap struct {
	Index int `snapdiff:"key"`
	Tag   uint64
	LRU   uint64
}

// CacheSnap is the serializable state of one cache level. Lines holds the
// valid lines only, in ascending Index order; invalid lines carry no
// state a run can observe.
type CacheSnap struct {
	Sets, Ways int
	Lines      []LineSnap
	LRUClock   uint64
	Hits       uint64
	Misses     uint64
}

// Snapshot captures the cache's valid lines and statistics.
func (c *Cache) Snapshot() CacheSnap {
	s := CacheSnap{
		Sets:     c.cfg.Sets,
		Ways:     c.cfg.Ways,
		LRUClock: c.lruClock,
		Hits:     c.hits,
		Misses:   c.misses,
	}
	for _, set := range c.sets.Ascending() {
		for w, l := range c.sets.Ways(uint64(set)) {
			if l.valid {
				s.Lines = append(s.Lines, LineSnap{Index: int(set)*c.cfg.Ways + w, Tag: l.tag, LRU: l.lru})
			}
		}
	}
	return s
}

// Restore overwrites the cache's state with a snapshot taken from a cache
// of the same geometry. It checks the whole image before changing
// anything, so a malformed one leaves the cache as it was.
func (c *Cache) Restore(s CacheSnap) error {
	if s.Sets != c.cfg.Sets || s.Ways != c.cfg.Ways {
		return fmt.Errorf("cache %s: snapshot geometry %dx%d, have %dx%d",
			c.cfg.Name, s.Sets, s.Ways, c.cfg.Sets, c.cfg.Ways)
	}
	if err := c.sets.CheckIndices(len(s.Lines), func(i int) int { return s.Lines[i].Index }); err != nil {
		return fmt.Errorf("cache %s: snapshot line %w", c.cfg.Name, err)
	}
	c.sets.Reset()
	for _, l := range s.Lines {
		c.sets.Place(l.Index, line{valid: true, tag: l.Tag, lru: l.LRU})
	}
	c.lruClock = s.LRUClock
	c.hits = s.Hits
	c.misses = s.Misses
	return nil
}

// HierarchySnap is the serializable state of the full cache hierarchy.
type HierarchySnap struct {
	L1D, L1I, L2, L3 CacheSnap
}

// Snapshot captures all four levels.
func (h *Hierarchy) Snapshot() HierarchySnap {
	return HierarchySnap{
		L1D: h.l1d.Snapshot(),
		L1I: h.l1i.Snapshot(),
		L2:  h.l2.Snapshot(),
		L3:  h.l3.Snapshot(),
	}
}

// Restore overwrites all four levels from a snapshot.
func (h *Hierarchy) Restore(s HierarchySnap) error {
	if err := h.l1d.Restore(s.L1D); err != nil {
		return err
	}
	if err := h.l1i.Restore(s.L1I); err != nil {
		return err
	}
	if err := h.l2.Restore(s.L2); err != nil {
		return err
	}
	return h.l3.Restore(s.L3)
}

// PWCEntrySnap is one serializable page-walk-cache entry.
type PWCEntrySnap struct {
	EA    uint64
	Level mem.Level
	LRU   uint64
}

// PWCSnap is the serializable state of the page-walk cache.
type PWCSnap struct {
	Capacity int
	Entries  []PWCEntrySnap // the valid entries, in slot order
	Clock    uint64
	Hits     uint64
	Misses   uint64
}

// Snapshot captures the PWC's valid entries and statistics.
func (p *PWC) Snapshot() PWCSnap {
	s := PWCSnap{
		Capacity: p.capacity,
		Entries:  make([]PWCEntrySnap, p.n),
		Clock:    p.clock,
		Hits:     p.hits,
		Misses:   p.misses,
	}
	for i := 0; i < p.n; i++ {
		e := p.entries[i]
		s.Entries[i] = PWCEntrySnap{EA: e.ea, Level: e.level, LRU: e.lru}
	}
	return s
}

// Restore overwrites the PWC's state with a snapshot taken from a PWC of
// the same capacity.
func (p *PWC) Restore(s PWCSnap) error {
	if s.Capacity != p.capacity || len(s.Entries) > p.capacity {
		return fmt.Errorf("pwc: snapshot capacity %d (%d entries), have capacity %d",
			s.Capacity, len(s.Entries), p.capacity)
	}
	p.n = len(s.Entries)
	for i, e := range s.Entries {
		p.entries[i] = pwcEntry{ea: e.EA, level: e.Level, lru: e.LRU}
	}
	for i := p.n; i < p.capacity; i++ {
		p.entries[i] = pwcEntry{}
	}
	p.clock = s.Clock
	p.hits = s.Hits
	p.misses = s.Misses
	return nil
}
