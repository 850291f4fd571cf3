// Package tlb implements the translation lookaside buffers of the
// simulated core: per-context L1 instruction/data TLBs and a unified L2
// TLB, organised as in the paper's Figure 1 (VPN, PPN, flags, PCID,
// set-associative with LRU).
//
// MicroScope's attack setup invalidates the replay handle's {VPN, PPN}
// entry (paper §4.1.1 step 4) so the handle's next execution misses in
// both TLB levels and triggers a hardware page walk.
package tlb

import (
	"fmt"

	"microscope/sim/internal/sparse"
	"microscope/sim/mem"
)

// EntryFlags carries the permission bits cached with a translation.
type EntryFlags struct {
	Writable bool
	User     bool
	Enclave  bool
}

// FlagsFromEntry extracts TLB flags from a leaf page-table entry.
func FlagsFromEntry(e mem.Entry) EntryFlags {
	return EntryFlags{Writable: e.Writable(), User: e.User(), Enclave: e.Enclave()}
}

// Translation is a cached VPN→PPN mapping.
type Translation struct {
	VPN   uint64
	PPN   uint64
	PCID  uint16
	Flags EntryFlags
}

type way struct {
	valid bool
	tr    Translation
	lru   uint64
}

// TLB is one set-associative translation buffer. Like cache.Cache it
// stores its ways sparsely (sim/internal/sparse), so FlushPCID, FlushAll,
// Len, Snapshot and Restore visit only the sets a run touched.
type TLB struct {
	name   string
	nsets  int
	ways   int
	sets   sparse.Sets[way]
	clock  uint64
	hits   uint64
	misses uint64
}

// New returns a TLB with the given geometry; sets must be a power of two.
func New(name string, sets, ways int) *TLB {
	if sets <= 0 || sets&(sets-1) != 0 || ways <= 0 {
		panic(fmt.Sprintf("tlb %s: bad geometry %dx%d", name, sets, ways))
	}
	return &TLB{name: name, nsets: sets, ways: ways, sets: sparse.New[way](sets, ways)}
}

// setOf returns the set vpn maps to.
func (t *TLB) setOf(vpn uint64) uint64 { return vpn % uint64(t.nsets) }

// Lookup returns the cached translation for (vpn, pcid), if present.
func (t *TLB) Lookup(vpn uint64, pcid uint16) (Translation, bool) {
	t.clock++
	set := t.sets.Ways(t.setOf(vpn))
	for i := range set {
		w := &set[i]
		if w.valid && w.tr.VPN == vpn && w.tr.PCID == pcid {
			w.lru = t.clock
			t.hits++
			return w.tr, true
		}
	}
	t.misses++
	return Translation{}, false
}

// Insert caches tr, evicting the LRU way of its set if needed.
func (t *TLB) Insert(tr Translation) {
	t.clock++
	set := t.sets.Ways(t.setOf(tr.VPN))
	if set == nil {
		set = t.sets.Alloc(t.setOf(tr.VPN))
	}
	victim := 0
	for i := range set {
		if set[i].valid && set[i].tr.VPN == tr.VPN && set[i].tr.PCID == tr.PCID {
			set[i].tr = tr
			set[i].lru = t.clock
			return
		}
		if !set[i].valid {
			victim = i
		} else if set[victim].valid && set[i].lru < set[victim].lru {
			victim = i
		}
	}
	set[victim] = way{valid: true, tr: tr, lru: t.clock}
}

// Invalidate drops the entry for (vpn, pcid), reporting whether one
// existed (INVLPG).
func (t *TLB) Invalidate(vpn uint64, pcid uint16) bool {
	set := t.sets.Ways(t.setOf(vpn))
	for i := range set {
		w := &set[i]
		if w.valid && w.tr.VPN == vpn && w.tr.PCID == pcid {
			w.valid = false
			return true
		}
	}
	return false
}

// FlushPCID drops all entries of one context (MOV-to-CR3 without
// PCID-preserving semantics, or enclave-boundary scrubbing).
func (t *TLB) FlushPCID(pcid uint16) {
	for _, s := range t.sets.Live() {
		set := t.sets.Ways(uint64(s))
		for i := range set {
			if set[i].valid && set[i].tr.PCID == pcid {
				set[i].valid = false
			}
		}
	}
}

// FlushAll drops every entry.
func (t *TLB) FlushAll() { t.sets.Reset() }

// Len returns the number of valid entries.
func (t *TLB) Len() int {
	n := 0
	for _, s := range t.sets.Live() {
		for _, w := range t.sets.Ways(uint64(s)) {
			if w.valid {
				n++
			}
		}
	}
	return n
}

// Stats returns cumulative hit/miss counts.
func (t *TLB) Stats() (hits, misses uint64) { return t.hits, t.misses }

// Unit is the full TLB complex of one core: L1D + L1I + unified L2,
// mirroring the Intel organisation described in §2.1.
type Unit struct {
	L1D *TLB
	L1I *TLB
	L2  *TLB
}

// NewUnit builds the default TLB complex (64-entry 4-way L1s, 1536-entry
// 12-way L2).
func NewUnit() *Unit {
	return &Unit{
		L1D: New("dTLB", 16, 4),
		L1I: New("iTLB", 16, 4),
		L2:  New("sTLB", 128, 12),
	}
}

// LookupData translates a data access: L1D first, then L2 (promoting an L2
// hit into L1D). The second result reports the level that hit (1, 2) or 0
// on miss.
func (u *Unit) LookupData(vpn uint64, pcid uint16) (Translation, int) {
	if tr, ok := u.L1D.Lookup(vpn, pcid); ok {
		return tr, 1
	}
	if tr, ok := u.L2.Lookup(vpn, pcid); ok {
		u.L1D.Insert(tr)
		return tr, 2
	}
	return Translation{}, 0
}

// LookupInstr translates an instruction fetch: L1I, then L2.
func (u *Unit) LookupInstr(vpn uint64, pcid uint16) (Translation, int) {
	if tr, ok := u.L1I.Lookup(vpn, pcid); ok {
		return tr, 1
	}
	if tr, ok := u.L2.Lookup(vpn, pcid); ok {
		u.L1I.Insert(tr)
		return tr, 2
	}
	return Translation{}, 0
}

// InsertData installs a translation produced by a data-side page walk into
// L1D and L2.
func (u *Unit) InsertData(tr Translation) {
	u.L1D.Insert(tr)
	u.L2.Insert(tr)
}

// InsertInstr installs a translation produced by an instruction-side walk.
func (u *Unit) InsertInstr(tr Translation) {
	u.L1I.Insert(tr)
	u.L2.Insert(tr)
}

// Invalidate performs INVLPG across all three structures.
func (u *Unit) Invalidate(vpn uint64, pcid uint16) {
	u.L1D.Invalidate(vpn, pcid)
	u.L1I.Invalidate(vpn, pcid)
	u.L2.Invalidate(vpn, pcid)
}

// FlushPCID scrubs one context from all three structures.
func (u *Unit) FlushPCID(pcid uint16) {
	u.L1D.FlushPCID(pcid)
	u.L1I.FlushPCID(pcid)
	u.L2.FlushPCID(pcid)
}

// FlushAll scrubs everything.
func (u *Unit) FlushAll() {
	u.L1D.FlushAll()
	u.L1I.FlushAll()
	u.L2.FlushAll()
}
