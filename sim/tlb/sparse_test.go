package tlb

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// denseTLB is the reference model for the sparse storage: a full
// sets×ways array, as every TLB held before sets got their ways on first
// insert. Its logic is the pre-sparse TLB's, line for line.
type denseTLB struct {
	sets  [][]way
	nsets uint64
	clock uint64
}

func newDenseTLB(sets, ways int) *denseTLB {
	d := &denseTLB{sets: make([][]way, sets), nsets: uint64(sets)}
	for i := range d.sets {
		d.sets[i] = make([]way, ways)
	}
	return d
}

func (t *denseTLB) set(vpn uint64) []way { return t.sets[vpn%t.nsets] }

func (t *denseTLB) Lookup(vpn uint64, pcid uint16) (Translation, bool) {
	t.clock++
	for i := range t.set(vpn) {
		w := &t.set(vpn)[i]
		if w.valid && w.tr.VPN == vpn && w.tr.PCID == pcid {
			w.lru = t.clock
			return w.tr, true
		}
	}
	return Translation{}, false
}

func (t *denseTLB) Insert(tr Translation) {
	t.clock++
	set := t.set(tr.VPN)
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

func (t *denseTLB) Invalidate(vpn uint64, pcid uint16) bool {
	for i := range t.set(vpn) {
		w := &t.set(vpn)[i]
		if w.valid && w.tr.VPN == vpn && w.tr.PCID == pcid {
			w.valid = false
			return true
		}
	}
	return false
}

func (t *denseTLB) FlushPCID(pcid uint16) {
	for s := range t.sets {
		for i := range t.sets[s] {
			if t.sets[s][i].valid && t.sets[s][i].tr.PCID == pcid {
				t.sets[s][i].valid = false
			}
		}
	}
}

func (t *denseTLB) FlushAll() {
	for s := range t.sets {
		for i := range t.sets[s] {
			t.sets[s][i].valid = false
		}
	}
}

// validWays lists the model's valid entries in the sparse image's order.
func (t *denseTLB) validWays() []WaySnap {
	var out []WaySnap
	for s, set := range t.sets {
		for i, w := range set {
			if w.valid {
				out = append(out, WaySnap{Index: s*len(set) + i, Tr: w.tr, LRU: w.lru})
			}
		}
	}
	return out
}

// TestSparseMatchesDense drives the sparse TLB and the dense model with
// the same seeded streams of Insert, Lookup, Invalidate, FlushPCID and
// FlushAll, and swaps the sparse TLB for a restored copy of itself along the way,
// both into a fresh TLB and into one dirtied by an unrelated stream.
// Every translation, hit flag, entry count and valid entry must agree.
func TestSparseMatchesDense(t *testing.T) {
	geoms := []struct{ sets, ways int }{{1, 2}, {4, 3}, {64, 2}}
	for _, g := range geoms {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			vpns := uint64(3 * g.sets * g.ways)
			pick := func() (uint64, uint16) { return rng.Uint64() % vpns, uint16(1 + rng.Intn(3)) }
			tb, ref := New("t", g.sets, g.ways), newDenseTLB(g.sets, g.ways)
			where := fmt.Sprintf("%dx%d seed %d", g.sets, g.ways, seed)
			for step := 0; step < 20_000; step++ {
				switch op := rng.Intn(100); {
				case op < 40:
					vpn, pcid := pick()
					x := Translation{VPN: vpn, PPN: rng.Uint64(), PCID: pcid, Flags: EntryFlags{Writable: rng.Intn(2) == 0}}
					tb.Insert(x)
					ref.Insert(x)
				case op < 75:
					vpn, pcid := pick()
					got, ok := tb.Lookup(vpn, pcid)
					want, wok := ref.Lookup(vpn, pcid)
					if got != want || ok != wok {
						t.Fatalf("%s step %d: Lookup(%d, %d) = %+v %t, dense %+v %t", where, step, vpn, pcid, got, ok, want, wok)
					}
				case op < 92:
					vpn, pcid := pick()
					if got, want := tb.Invalidate(vpn, pcid), ref.Invalidate(vpn, pcid); got != want {
						t.Fatalf("%s step %d: Invalidate(%d, %d) = %t, dense %t", where, step, vpn, pcid, got, want)
					}
				case op < 96:
					_, pcid := pick()
					tb.FlushPCID(pcid)
					ref.FlushPCID(pcid)
				case op < 97:
					tb.FlushAll()
					ref.FlushAll()
				default:
					snap := tb.Snapshot()
					want := ref.validWays()
					if !reflect.DeepEqual(snap.Ways, want) || tb.Len() != len(want) {
						t.Fatalf("%s step %d: snapshot (%d entries, Len %d) differs from the dense model's %d valid entries",
							where, step, len(snap.Ways), tb.Len(), len(want))
					}
					into := New("t", g.sets, g.ways)
					if op == 99 {
						for i := 0; i < 50; i++ {
							into.Insert(tr(rng.Uint64(), 1, 7))
						}
					}
					if err := into.Restore(snap); err != nil {
						t.Fatal(err)
					}
					if again := into.Snapshot(); !reflect.DeepEqual(again, snap) {
						t.Fatalf("%s step %d: Restore then Snapshot changed the image", where, step)
					}
					tb = into
				}
			}
		}
	}
}

func TestRestoreRejectsMalformedImages(t *testing.T) {
	src := New("t", 4, 2) // indices 0..7
	src.Insert(tr(1, 1, 1))
	src.Insert(tr(6, 6, 1))
	good := src.Snapshot()
	cases := []struct {
		name string
		ways []WaySnap
		sets int
		want string
	}{
		{"index past capacity", []WaySnap{{Index: 8}}, 4, "outside 8 entries"},
		{"negative index", []WaySnap{{Index: -3}}, 4, "outside 8 entries"},
		{"duplicate index", []WaySnap{{Index: 3}, {Index: 3}}, 4, "does not ascend"},
		{"descending index", []WaySnap{{Index: 5}, {Index: 2}}, 4, "does not ascend"},
		{"geometry mismatch", nil, 8, "geometry 8x2"},
	}
	for _, tc := range cases {
		dirty := New("t", 4, 2)
		dirty.Insert(tr(2, 2, 1))
		dirty.Insert(tr(11, 11, 2))
		before := dirty.Snapshot()
		bad := good
		bad.Sets = tc.sets
		bad.Ways = tc.ways
		err := dirty.Restore(bad)
		if err == nil || !strings.Contains(err.Error(), "tlb t:") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming tlb t and %q", tc.name, err, tc.want)
		}
		if after := dirty.Snapshot(); !reflect.DeepEqual(after, before) {
			t.Errorf("%s: failed Restore changed the TLB", tc.name)
		}
	}
}
