package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// denseCache is the reference model for the sparse storage: a full
// sets×ways line array, as every cache held before sets got their ways
// on first fill. Its replacement logic is the pre-sparse Cache's, line
// for line.
type denseCache struct {
	ways                int
	lineShift, setShift uint
	setMask             uint64
	sets                [][]line
	lruClock            uint64
}

func newDense(cfg Config) *denseCache {
	d := &denseCache{ways: cfg.Ways, setMask: uint64(cfg.Sets - 1)}
	for 1<<d.lineShift != cfg.LineSize {
		d.lineShift++
	}
	for 1<<d.setShift != cfg.Sets {
		d.setShift++
	}
	d.sets = make([][]line, cfg.Sets)
	for i := range d.sets {
		d.sets[i] = make([]line, cfg.Ways)
	}
	return d
}

func (d *denseCache) index(pa uint64) (set, tag uint64) {
	la := pa >> d.lineShift
	return la & d.setMask, la >> d.setShift
}

func (d *denseCache) Lookup(pa uint64) bool {
	set, tag := d.index(pa)
	for _, l := range d.sets[set] {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

func (d *denseCache) Access(pa uint64) (hit bool, evicted uint64, evictedOK bool) {
	set, tag := d.index(pa)
	d.lruClock++
	lines := d.sets[set]
	for i := range lines {
		if lines[i].valid && lines[i].tag == tag {
			lines[i].lru = d.lruClock
			return true, 0, false
		}
	}
	victim := 0
	for i := range lines {
		if !lines[i].valid {
			victim = i
			evictedOK = false
			goto fill
		}
		if lines[i].lru < lines[victim].lru {
			victim = i
		}
	}
	evicted = (lines[victim].tag<<d.setShift | set) << d.lineShift
	evictedOK = true
fill:
	lines[victim] = line{valid: true, tag: tag, lru: d.lruClock}
	return false, evicted, evictedOK
}

func (d *denseCache) Flush(pa uint64) bool {
	set, tag := d.index(pa)
	for i := range d.sets[set] {
		if d.sets[set][i].valid && d.sets[set][i].tag == tag {
			d.sets[set][i].valid = false
			return true
		}
	}
	return false
}

func (d *denseCache) FlushAll() {
	for _, set := range d.sets {
		for i := range set {
			set[i].valid = false
		}
	}
}

// validLines lists the model's valid lines in the sparse image's order.
func (d *denseCache) validLines() []LineSnap {
	var out []LineSnap
	for s, set := range d.sets {
		for w, l := range set {
			if l.valid {
				out = append(out, LineSnap{Index: s*d.ways + w, Tag: l.tag, LRU: l.lru})
			}
		}
	}
	return out
}

// TestSparseMatchesDense drives the sparse cache and the dense model with
// the same seeded streams of Access, Lookup, Flush and FlushAll, and
// swaps the sparse cache for a restored copy of itself along the way,
// both into a fresh cache and into one dirtied by an unrelated stream.
// Every return value, the statistics and the valid lines must agree.
func TestSparseMatchesDense(t *testing.T) {
	geoms := []Config{
		{Name: "tiny", Sets: 4, Ways: 2, LineSize: 64, Latency: 1},
		{Name: "chunked", Sets: 64, Ways: 3, LineSize: 64, Latency: 1},
		{Name: "wide", Sets: 32, Ways: 8, LineSize: 32, Latency: 1},
	}
	for _, cfg := range geoms {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			// Enough distinct lines to overflow every set several times.
			pool := make([]uint64, 3*cfg.Sets*cfg.Ways)
			for i := range pool {
				pool[i] = rng.Uint64()%(1<<24) | uint64(rng.Intn(cfg.LineSize))
			}
			pick := func() uint64 { return pool[rng.Intn(len(pool))] }
			c, ref := New(cfg), newDense(cfg)
			where := fmt.Sprintf("%s seed %d", cfg.Name, seed)
			for step := 0; step < 20_000; step++ {
				switch op := rng.Intn(100); {
				case op < 60:
					pa := pick()
					h, e, ok := c.Access(pa)
					rh, re, rok := ref.Access(pa)
					if h != rh || e != re || ok != rok {
						t.Fatalf("%s step %d: Access(%#x) = %t %#x %t, dense %t %#x %t", where, step, pa, h, e, ok, rh, re, rok)
					}
				case op < 80:
					pa := pick()
					if got, want := c.Lookup(pa), ref.Lookup(pa); got != want {
						t.Fatalf("%s step %d: Lookup(%#x) = %t, dense %t", where, step, pa, got, want)
					}
				case op < 95:
					pa := pick()
					if got, want := c.Flush(pa), ref.Flush(pa); got != want {
						t.Fatalf("%s step %d: Flush(%#x) = %t, dense %t", where, step, pa, got, want)
					}
				case op < 97:
					c.FlushAll()
					ref.FlushAll()
				default:
					snap := c.Snapshot()
					if !reflect.DeepEqual(snap.Lines, ref.validLines()) {
						t.Fatalf("%s step %d: snapshot lines differ from the dense model's valid lines", where, step)
					}
					into := New(cfg)
					if op == 99 {
						for i := 0; i < 50; i++ {
							into.Access(rng.Uint64())
						}
					}
					if err := into.Restore(snap); err != nil {
						t.Fatal(err)
					}
					if again := into.Snapshot(); !reflect.DeepEqual(again, snap) {
						t.Fatalf("%s step %d: Restore then Snapshot changed the image", where, step)
					}
					c = into
				}
			}
			if _, misses := c.Stats(); misses == 0 {
				t.Fatalf("%s: stream never missed", cfg.Name)
			}
		}
	}
}

// An allocated set whose lines are all invalid leaves no trace in the
// image: a flushed cache snapshots like a fresh one.
func TestFlushedSetsLeaveNoTrace(t *testing.T) {
	c := smallCache()
	c.Access(0x1000)
	c.Access(0x2040)
	c.Flush(0x1000)
	c.Flush(0x2040)
	if s := c.Snapshot(); len(s.Lines) != 0 {
		t.Fatalf("flushed cache snapshots %d lines", len(s.Lines))
	}
}

func TestRestoreRejectsMalformedImages(t *testing.T) {
	c := smallCache() // 4 sets x 2 ways: indices 0..7
	c.Access(0x0000)
	c.Access(0x0140)
	good := c.Snapshot()
	cases := []struct {
		name  string
		lines []LineSnap
		sets  int
		want  string
	}{
		{"index past capacity", []LineSnap{{Index: 8}}, 4, "outside 8 entries"},
		{"negative index", []LineSnap{{Index: -1}}, 4, "outside 8 entries"},
		{"duplicate index", []LineSnap{{Index: 3}, {Index: 3}}, 4, "does not ascend"},
		{"descending index", []LineSnap{{Index: 5}, {Index: 2}}, 4, "does not ascend"},
		{"geometry mismatch", nil, 8, "geometry 8x2"},
	}
	for _, tc := range cases {
		dirty := New(c.Config())
		dirty.Access(0x0040)
		dirty.Access(0x7000)
		before := dirty.Snapshot()
		bad := good
		bad.Sets = tc.sets
		bad.Lines = tc.lines
		err := dirty.Restore(bad)
		if err == nil || !strings.Contains(err.Error(), "cache t:") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming cache t and %q", tc.name, err, tc.want)
		}
		if after := dirty.Snapshot(); !reflect.DeepEqual(after, before) {
			t.Errorf("%s: failed Restore changed the cache", tc.name)
		}
	}
}
