package mem

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestPhysMemReadWrite(t *testing.T) {
	m := NewPhysMem(16 * PageSize)
	m.Write64(0x100, 0xdeadbeefcafebabe)
	if got := m.Read64(0x100); got != 0xdeadbeefcafebabe {
		t.Errorf("Read64 = %#x", got)
	}
	m.Write32(0x200, 0x12345678)
	if got := m.Read32(0x200); got != 0x12345678 {
		t.Errorf("Read32 = %#x", got)
	}
	m.SetByte(0x300, 0xab)
	if got := m.ByteAt(0x300); got != 0xab {
		t.Errorf("ReadByte = %#x", got)
	}
	m.WriteBytes(0x400, []byte{1, 2, 3, 4})
	if got := m.ReadBytes(0x400, 4); got[0] != 1 || got[3] != 4 {
		t.Errorf("ReadBytes = %v", got)
	}
}

func TestPhysMemLittleEndian(t *testing.T) {
	m := NewPhysMem(PageSize)
	m.Write64(0, 0x0102030405060708)
	if m.ByteAt(0) != 0x08 || m.ByteAt(7) != 0x01 {
		t.Error("Write64 is not little-endian")
	}
}

func TestPhysMemBoundsPanic(t *testing.T) {
	m := NewPhysMem(PageSize)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range access did not panic")
		}
	}()
	m.Read64(PageSize - 4)
}

func TestNewPhysMemRejectsBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-page-multiple size did not panic")
		}
	}()
	NewPhysMem(PageSize + 1)
}

func TestFrameAllocator(t *testing.T) {
	m := NewPhysMem(4 * PageSize)
	seen := map[uint64]bool{}
	for i := 0; i < 4; i++ {
		ppn, err := m.AllocFrame()
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		if seen[ppn] {
			t.Fatalf("frame %d allocated twice", ppn)
		}
		seen[ppn] = true
	}
	if _, err := m.AllocFrame(); err == nil {
		t.Error("allocation beyond capacity succeeded")
	}
	m.FreeFrame(2)
	ppn, err := m.AllocFrame()
	if err != nil || ppn != 2 {
		t.Errorf("realloc after free = %d, %v; want 2, nil", ppn, err)
	}
	if m.AllocatedFrames() != 4 {
		t.Errorf("AllocatedFrames = %d, want 4", m.AllocatedFrames())
	}
}

func TestFreedFrameIsZeroed(t *testing.T) {
	m := NewPhysMem(2 * PageSize)
	ppn, _ := m.AllocFrame()
	m.Write64(ppn<<PageShift, 0xffff)
	m.FreeFrame(ppn)
	ppn2, _ := m.AllocFrame()
	if ppn2 != ppn {
		t.Fatalf("free list not reused: got %d", ppn2)
	}
	if m.Read64(ppn<<PageShift) != 0 {
		t.Error("reallocated frame not zeroed")
	}
}

func TestEntryBits(t *testing.T) {
	e := Entry(0).WithPPN(0x1234).WithFlags(FlagPresent | FlagWritable | FlagEnclave)
	if !e.Present() || !e.Writable() || e.User() || !e.Enclave() {
		t.Errorf("flag decode wrong: %s", e)
	}
	if e.PPN() != 0x1234 {
		t.Errorf("PPN = %#x, want 0x1234", e.PPN())
	}
	e = e.ClearFlags(FlagPresent)
	if e.Present() {
		t.Error("ClearFlags did not clear present")
	}
	if e.PPN() != 0x1234 {
		t.Error("ClearFlags corrupted PPN")
	}
}

func TestEntryPPNRoundTrip(t *testing.T) {
	f := func(ppn uint64, flags uint8) bool {
		ppn &= 1<<40 - 1
		e := Entry(uint64(flags)).WithPPN(ppn)
		return e.PPN() == ppn
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIndexFor(t *testing.T) {
	// va with distinct indices at each level.
	va := Addr(0)
	va |= 5 << 39  // PGD index 5
	va |= 17 << 30 // PUD index 17
	va |= 33 << 21 // PMD index 33
	va |= 77 << 12 // PTE index 77
	va |= 123      // offset

	if got := IndexFor(PGD, va); got != 5 {
		t.Errorf("PGD index = %d", got)
	}
	if got := IndexFor(PUD, va); got != 17 {
		t.Errorf("PUD index = %d", got)
	}
	if got := IndexFor(PMD, va); got != 33 {
		t.Errorf("PMD index = %d", got)
	}
	if got := IndexFor(PTE, va); got != 77 {
		t.Errorf("PTE index = %d", got)
	}
}

func newSpace(t *testing.T, frames uint64) *AddressSpace {
	t.Helper()
	m := NewPhysMem(frames * PageSize)
	as, err := NewAddressSpace(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	return as
}

func TestMapTranslate(t *testing.T) {
	as := newSpace(t, 64)
	va := Addr(0x4000_1000)
	ppn, err := as.MapNew(va, FlagWritable|FlagUser)
	if err != nil {
		t.Fatal(err)
	}
	pa, err := as.Translate(va + 0x123)
	if err != nil {
		t.Fatal(err)
	}
	want := ppn<<PageShift | 0x123
	if pa != want {
		t.Errorf("Translate = %#x, want %#x", pa, want)
	}
}

func TestTranslateUnmappedFaults(t *testing.T) {
	as := newSpace(t, 64)
	_, err := as.Translate(0x9999_0000)
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("want *Fault, got %v", err)
	}
	if f.Level != PGD {
		t.Errorf("fault level = %s, want PGD (nothing mapped)", f.Level)
	}
}

func TestWalkReturnsFourLevels(t *testing.T) {
	as := newSpace(t, 64)
	va := Addr(0x7f00_2000)
	if _, err := as.MapNew(va, FlagUser); err != nil {
		t.Fatal(err)
	}
	steps, err := as.Walk(va)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != Levels {
		t.Fatalf("walk returned %d steps, want %d", len(steps), Levels)
	}
	for i, s := range steps {
		if s.Level != Level(i) {
			t.Errorf("step %d level = %s", i, s.Level)
		}
		if !s.Entry.Present() {
			t.Errorf("step %d entry not present", i)
		}
	}
	// Entry addresses must be distinct (different tables) — the Replayer
	// flushes each of the four cache lines separately.
	addrs := map[Addr]bool{}
	for _, s := range steps {
		if addrs[s.EntryAddr] {
			t.Errorf("duplicate entry address %#x", s.EntryAddr)
		}
		addrs[s.EntryAddr] = true
	}
}

func TestSetPresentRoundTrip(t *testing.T) {
	as := newSpace(t, 64)
	va := Addr(0x1000_0000)
	if _, err := as.MapNew(va, FlagUser|FlagWritable); err != nil {
		t.Fatal(err)
	}
	ea, err := as.SetPresent(va, false)
	if err != nil {
		t.Fatal(err)
	}
	if ea == 0 {
		t.Fatal("SetPresent returned zero entry address")
	}

	// Translation must now fault at the PTE level, as in the paper.
	_, err = as.Translate(va)
	var f *Fault
	if !errors.As(err, &f) || f.Level != PTE {
		t.Fatalf("after clearing present: err = %v, want PTE fault", err)
	}

	// The mapping (PPN) must be intact: restore and translate again.
	if _, err := as.SetPresent(va, true); err != nil {
		t.Fatal(err)
	}
	if _, err := as.Translate(va); err != nil {
		t.Errorf("translate after restore: %v", err)
	}
}

func TestSetPresentOnUnmappedFails(t *testing.T) {
	as := newSpace(t, 64)
	if _, err := as.SetPresent(0x5000_0000, false); err == nil {
		t.Error("SetPresent on unmapped va succeeded")
	}
}

func TestLeafEntryToleratesNonPresentLeaf(t *testing.T) {
	as := newSpace(t, 64)
	va := Addr(0x2000_0000)
	ppn, err := as.MapNew(va, FlagUser)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := as.SetPresent(va, false); err != nil {
		t.Fatal(err)
	}
	e, _, err := as.LeafEntry(va)
	if err != nil {
		t.Fatal(err)
	}
	if e.Present() {
		t.Error("leaf still present")
	}
	if e.PPN() != ppn {
		t.Errorf("leaf PPN = %#x, want %#x (mapping must survive)", e.PPN(), ppn)
	}
}

func TestUnmap(t *testing.T) {
	as := newSpace(t, 64)
	va := Addr(0x3000_0000)
	if _, err := as.MapNew(va, FlagUser); err != nil {
		t.Fatal(err)
	}
	if err := as.Unmap(va); err != nil {
		t.Fatal(err)
	}
	if _, err := as.Translate(va); err == nil {
		t.Error("translate succeeded after unmap")
	}
}

func TestVirtReadWriteCrossPage(t *testing.T) {
	as := newSpace(t, 64)
	base := Addr(0x6000_0000)
	for i := uint64(0); i < 2; i++ {
		if _, err := as.MapNew(base+i*PageSize, FlagUser|FlagWritable); err != nil {
			t.Fatal(err)
		}
	}
	data := make([]byte, PageSize+100)
	for i := range data {
		data[i] = byte(i * 7)
	}
	start := base + PageSize - 50 // straddles the page boundary
	if err := as.WriteVirt(start, data[:100]); err != nil {
		t.Fatal(err)
	}
	got, err := as.ReadVirt(start, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != data[i] {
			t.Fatalf("byte %d = %d, want %d", i, got[i], data[i])
		}
	}
}

func TestWrite64Read64Virt(t *testing.T) {
	as := newSpace(t, 64)
	va := Addr(0x8000_0000)
	if _, err := as.MapNew(va, FlagUser|FlagWritable); err != nil {
		t.Fatal(err)
	}
	if err := as.Write64Virt(va+8, 0xfeedface); err != nil {
		t.Fatal(err)
	}
	v, err := as.Read64Virt(va + 8)
	if err != nil || v != 0xfeedface {
		t.Errorf("Read64Virt = %#x, %v", v, err)
	}
}

func TestDistinctSpacesAreIsolated(t *testing.T) {
	m := NewPhysMem(128 * PageSize)
	as1, err := NewAddressSpace(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	as2, err := NewAddressSpace(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	va := Addr(0x1234_5000)
	if _, err := as1.MapNew(va, FlagUser|FlagWritable); err != nil {
		t.Fatal(err)
	}
	if _, err := as2.Translate(va); err == nil {
		t.Error("mapping leaked across address spaces")
	}
	if as1.PCID() == as2.PCID() {
		t.Error("PCIDs collide")
	}
}

func TestClearAccessedDirty(t *testing.T) {
	as := newSpace(t, 64)
	va := Addr(0xaaaa_0000)
	if _, err := as.MapNew(va, FlagUser|FlagAccessed|FlagDirty); err != nil {
		t.Fatal(err)
	}
	if err := as.ClearAccessedDirty(va); err != nil {
		t.Fatal(err)
	}
	e, _, err := as.LeafEntry(va)
	if err != nil {
		t.Fatal(err)
	}
	if e.Accessed() || e.Dirty() {
		t.Errorf("A/D not cleared: %s", e)
	}
}

func TestPageHelpers(t *testing.T) {
	a := Addr(0x12345)
	if PageNum(a) != 0x12 {
		t.Errorf("PageNum = %#x", PageNum(a))
	}
	if PageBase(a) != 0x12000 {
		t.Errorf("PageBase = %#x", PageBase(a))
	}
	if PageOffset(a) != 0x345 {
		t.Errorf("PageOffset = %#x", PageOffset(a))
	}
}

// Property: Map then Translate is the identity on page numbers for
// arbitrary canonical virtual pages.
func TestMapTranslateProperty(t *testing.T) {
	m := NewPhysMem(4096 * PageSize)
	as, err := NewAddressSpace(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := func(vpnRaw uint64, off uint16) bool {
		vpn := vpnRaw & (1<<36 - 1) // canonical 48-bit va
		va := vpn<<PageShift | uint64(off)&PageMask
		ppn, err := as.MapNew(PageBase(va), FlagUser)
		if err != nil {
			return false
		}
		pa, err := as.Translate(va)
		if err != nil {
			return false
		}
		return pa == ppn<<PageShift|PageOffset(va)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// A page-table entry naming a frame beyond physical memory (only a
// damaged snapshot image holds one) makes every walker fault or fail
// instead of reading outside memory.
func TestWalksFaultOnFramesBeyondMemory(t *testing.T) {
	as := newSpace(t, 64)
	va := Addr(0x4000_1000)
	if _, err := as.MapNew(va, FlagUser); err != nil {
		t.Fatal(err)
	}
	steps, err := as.Walk(va)
	if err != nil {
		t.Fatal(err)
	}
	beyond := as.Phys().Frames() + 5
	pmd := steps[PMD]
	as.Phys().Write64(pmd.EntryAddr, uint64(pmd.Entry.WithPPN(beyond)))
	var f *Fault
	if _, err := as.Walk(va); !errors.As(err, &f) || f.Level != PTE {
		t.Errorf("Walk: err = %v, want a PTE-level fault", err)
	}
	if _, err := as.Translate(va); !errors.As(err, &f) || f.Level != PTE {
		t.Errorf("Translate: err = %v, want a PTE-level fault", err)
	}
	if _, _, err := as.LeafEntry(va); !errors.As(err, &f) || f.Level != PTE {
		t.Errorf("LeafEntry: err = %v, want a PTE-level fault", err)
	}
	if err := as.Map(va, 1, FlagUser); !errors.As(err, &f) {
		t.Errorf("Map: err = %v, want a fault", err)
	}

	// A leaf naming a data frame beyond memory faults in Translate.
	as.Phys().Write64(pmd.EntryAddr, uint64(pmd.Entry))
	pte := steps[PTE]
	as.Phys().Write64(pte.EntryAddr, uint64(pte.Entry.WithPPN(beyond)))
	if _, err := as.Translate(va); !errors.As(err, &f) || f.Level != PTE {
		t.Errorf("Translate of a leaf beyond memory: err = %v, want a PTE-level fault", err)
	}
}
