package sanitizer

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"microscope/sim/cpu"
	"microscope/sim/cpu/cputest"
	"microscope/sim/mem"
)

// byteModel is the reference shadow memory: one mask per physical byte,
// zero masks absent.
type byteModel map[uint64]uint64

func (m byteModel) store(pa uint64, n int, mask uint64) {
	for i := uint64(0); i < uint64(n); i++ {
		if mask == 0 {
			delete(m, pa+i)
		} else {
			m[pa+i] = mask
		}
	}
}

func (m byteModel) load(pa uint64, n int) uint64 {
	var mask uint64
	for i := uint64(0); i < uint64(n); i++ {
		mask |= m[pa+i]
	}
	return mask
}

// entries renders the model as a snapshot's sorted MemShadow list.
func (m byteModel) entries() []MemShadowEntry {
	out := make([]MemShadowEntry, 0, len(m))
	for pa, mask := range m {
		out = append(out, MemShadowEntry{PA: pa, Mask: mask})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PA < out[j].PA })
	return out
}

// checkShadow compares s against the model over every touched byte and
// entry for entry in the snapshot.
func checkShadow(t *testing.T, what string, s *Sanitizer, ref byteModel, touched map[uint64]bool) {
	t.Helper()
	for pa := range touched {
		if got, want := s.MemShadow(pa), ref[pa]; got != want {
			t.Fatalf("%s: MemShadow(%#x) = %#x, model %#x", what, pa, got, want)
		}
	}
	if got, want := s.Snap().MemShadow, ref.entries(); !slices.Equal(got, want) {
		t.Fatalf("%s: snapshot has %d shadow entries, model %d (or they differ)", what, len(got), len(want))
	}
}

// The page-granular shadow memory must behave exactly like one mask per
// physical byte: under random seeds, 4- and 8-byte stores (public and
// tainted, many straddling a page boundary) and loads, every touched
// byte, the snapshot and a restored copy agree with the per-byte model.
func TestShadowMemoryMatchesByteModel(t *testing.T) {
	as, err := cputest.NewDataSpace(5)
	if err != nil {
		t.Fatal(err)
	}
	core := cpu.NewCore(cpu.DefaultConfig(), as.Phys())
	core.Context(0).SetAddressSpace(as)
	s := New(core, DefaultConfig())

	pa := func(va mem.Addr) uint64 {
		leaf, _, err := as.LeafEntry(va)
		if err != nil {
			t.Fatal(err)
		}
		return leaf.PPN()<<mem.PageShift | mem.PageOffset(va)
	}
	// Stores land on the data pages' frames and on the frame after
	// each, so a straddling store can cross into a page never seeded,
	// and on the last page of the address space, whose straddling
	// stores wrap around to page 0.
	frames := []uint64{mem.PageNum(^uint64(0))}
	for p := 0; p < cputest.DataPages; p++ {
		ppn := mem.PageNum(pa(cputest.DataVA + mem.Addr(p)*mem.PageSize))
		frames = append(frames, ppn, ppn+1)
	}

	ref := byteModel{}
	touched := make(map[uint64]bool)
	rng := rand.New(rand.NewSource(1))
	end := cputest.DataVA + cputest.DataPages*mem.PageSize
	for step := 0; step < 400; step++ {
		var what string
		switch k := rng.Intn(8); {
		case k == 0:
			lo := cputest.DataVA + mem.Addr(rng.Intn(cputest.DataPages))*mem.PageSize + mem.Addr(4000+rng.Intn(96))
			hi := min(end, lo+1+mem.Addr(rng.Intn(128)))
			label := fmt.Sprintf("secret%d", rng.Intn(4))
			what = fmt.Sprintf("step %d: SeedMemory [%#x,%#x) %s", step, lo, hi, label)
			if err := s.SeedMemory(as, lo, hi, label); err != nil {
				t.Fatal(err)
			}
			bit := s.atomBit(label)
			for va := lo; va < hi; va++ {
				ref[pa(va)] |= bit
				touched[pa(va)] = true
			}
		case k <= 5:
			n := 4 << rng.Intn(2)
			addr := frames[rng.Intn(len(frames))]<<mem.PageShift | uint64(4088+rng.Intn(8))
			if rng.Intn(4) == 0 {
				addr = frames[rng.Intn(len(frames))]<<mem.PageShift | uint64(rng.Intn(mem.PageSize-8))
			}
			var mask uint64
			if rng.Intn(2) == 0 {
				mask = 1 << rng.Intn(64)
			}
			what = fmt.Sprintf("step %d: storeShadow(%#x, %d, %#x)", step, addr, n, mask)
			s.storeShadow(addr, n, mask)
			ref.store(addr, n, mask)
			for i := uint64(0); i < uint64(n); i++ {
				touched[addr+i] = true
			}
		default:
			n := 4 << rng.Intn(2)
			addr := frames[rng.Intn(len(frames))]<<mem.PageShift | uint64(4088+rng.Intn(8))
			what = fmt.Sprintf("step %d: loadShadow(%#x, %d)", step, addr, n)
			if got, want := s.loadShadow(addr, n), ref.load(addr, n); got != want {
				t.Fatalf("%s = %#x, model %#x", what, got, want)
			}
		}
		checkShadow(t, what, s, ref, touched)
		restored := New(core, DefaultConfig())
		if err := restored.Restore(s.Snap()); err != nil {
			t.Fatal(err)
		}
		checkShadow(t, what+" (restored)", restored, ref, touched)
	}
}

// A public store to a page that never held taint must not allocate a
// shadow page.
func TestPublicStoreToUntaintedPageAllocatesNothing(t *testing.T) {
	as, err := cputest.NewDataSpace(5)
	if err != nil {
		t.Fatal(err)
	}
	s := New(cpu.NewCore(cpu.DefaultConfig(), as.Phys()), DefaultConfig())
	pa := uint64(0x40)<<mem.PageShift | 4092 // straddles into the next page
	if allocs := testing.AllocsPerRun(100, func() { s.storeShadow(pa, 8, 0) }); allocs != 0 {
		t.Errorf("public store to an untainted page allocates %.1f times", allocs)
	}
	if len(s.shadowMem) != 0 {
		t.Errorf("public stores allocated %d shadow pages", len(s.shadowMem))
	}
}
