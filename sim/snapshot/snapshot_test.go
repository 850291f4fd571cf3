package snapshot

import (
	"bytes"
	"strings"
	"testing"

	"microscope/sim/cpu"
	"microscope/sim/isa"
	"microscope/sim/kernel"
	"microscope/sim/mem"
)

// testMachine builds a small live simulator (one process, a mapped
// writable page, a short program run partway) and returns its pieces.
func testMachine(t *testing.T) (*mem.PhysMem, *cpu.Core, *kernel.Kernel) {
	t.Helper()
	phys := mem.NewPhysMem(8 << 20)
	core := cpu.NewCore(cpu.DefaultConfig(), phys)
	k := kernel.New(kernel.DefaultConfig(), phys, core)
	p, err := k.NewProcess("snaptest")
	if err != nil {
		t.Fatal(err)
	}
	k.Schedule(0, p)
	const va = mem.Addr(0x40_0000)
	v := k.AddVMA(p, va, va+mem.PageSize, mem.FlagUser|mem.FlagWritable, "data")
	if err := k.MapEager(p, v); err != nil {
		t.Fatal(err)
	}
	if err := p.AddressSpace().WriteVirt(va, []byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	b := isa.NewBuilder()
	b.MovImm(isa.R1, int64(va))
	for i := 0; i < 16; i++ {
		b.Load(isa.R2, isa.R1, 0).Add(isa.R3, isa.R3, isa.R2)
	}
	b.Halt()
	core.Context(0).SetProgram(b.MustBuild(), 0)
	core.Run(20) // stop mid-program: ROB, caches and TLB are warm
	return phys, core, k
}

// Capture → Restore into the same machine → Capture again must be a
// fixed point: the second snapshot is structurally identical.
func TestCaptureRestoreRoundTrip(t *testing.T) {
	phys, core, k := testMachine(t)
	m1, err := Capture(phys, core, k)
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.Restore(phys, core, k); err != nil {
		t.Fatal(err)
	}
	m2, err := Capture(phys, core, k)
	if err != nil {
		t.Fatal(err)
	}
	if diffs := Diff(m1, m2); len(diffs) != 0 {
		t.Fatalf("restore is not a fixed point: %v", diffs)
	}
}

// Encode → Decode must reproduce the machine image exactly, and two
// encodings of the same state must be byte-identical (snapshots flatten
// all maps into sorted slices precisely so gob output is deterministic).
func TestEncodeDecodeRoundTrip(t *testing.T) {
	phys, core, k := testMachine(t)
	m, err := Capture(phys, core, k)
	if err != nil {
		t.Fatal(err)
	}
	var buf1, buf2 bytes.Buffer
	if err := Encode(&buf1, m); err != nil {
		t.Fatal(err)
	}
	if err := Encode(&buf2, m); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Error("two encodings of the same machine differ: gob output is not deterministic")
	}
	got, err := Decode(&buf1)
	if err != nil {
		t.Fatal(err)
	}
	if diffs := Diff(m, got); len(diffs) != 0 {
		t.Fatalf("decode(encode(m)) != m: %v", diffs)
	}
}

func TestDecodeRejectsVersionMismatch(t *testing.T) {
	phys, core, k := testMachine(t)
	m, err := Capture(phys, core, k)
	if err != nil {
		t.Fatal(err)
	}
	m.Version = Version + 1
	var buf bytes.Buffer
	if err := Encode(&buf, m); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(&buf); err == nil {
		t.Error("decode accepted a snapshot with a future version")
	}
	if err := m.Restore(phys, core, k); err == nil {
		t.Error("restore accepted a snapshot with a future version")
	}
}

func TestDiffPinpointsDifferences(t *testing.T) {
	phys, core, k := testMachine(t)
	a, err := Capture(phys, core, k)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Capture(phys, core, k)
	if err != nil {
		t.Fatal(err)
	}
	if diffs := Diff(a, b); len(diffs) != 0 {
		t.Fatalf("identical captures diff: %v", diffs)
	}
	// A scalar difference is named by path.
	b.Core.Cycle++
	diffs := Diff(a, b)
	if len(diffs) != 1 || !strings.Contains(diffs[0], "Core.Cycle") {
		t.Errorf("cycle bump: diffs = %v", diffs)
	}
	b.Core.Cycle--
	// Byte-image differences are summarized as ranges, not per byte.
	for i := 0; i < 100; i++ {
		b.Phys.Data[i] ^= 0xFF
	}
	diffs = Diff(a, b)
	if len(diffs) != 1 || !strings.Contains(diffs[0], "Phys.Data[0x0:0x64]") {
		t.Errorf("byte range: diffs = %v", diffs)
	}
	// A flood of differences is truncated, not dumped in full.
	for i := range b.Phys.Data {
		if i%2 == 0 {
			b.Phys.Data[i] ^= 0xFF
		}
	}
	diffs = Diff(a, b)
	if len(diffs) > maxDiffs+1 {
		t.Errorf("diff flood not truncated: %d lines", len(diffs))
	}
}

// Restoring into a machine with a different physical-memory size must
// fail loudly instead of silently truncating.
func TestRestoreSizeMismatch(t *testing.T) {
	phys, core, k := testMachine(t)
	m, err := Capture(phys, core, k)
	if err != nil {
		t.Fatal(err)
	}
	other := mem.NewPhysMem(4 << 20)
	core2 := cpu.NewCore(cpu.DefaultConfig(), other)
	k2 := kernel.New(kernel.DefaultConfig(), other, core2)
	if err := m.Restore(other, core2, k2); err == nil {
		t.Error("restore into a smaller PhysMem succeeded")
	}
}

// Sparse cache and TLB images list valid entries only. One extra line
// must be reported under its own index, not as a length mismatch that
// hides which line it is, and a changed line field by field.
func TestDiffPairsSparseEntriesByIndex(t *testing.T) {
	phys, core, k := testMachine(t)
	a, err := Capture(phys, core, k)
	if err != nil {
		t.Fatal(err)
	}
	core.Hierarchy().L1D().Access(0x7000) // a line the program never touched
	b, err := Capture(phys, core, k)
	if err != nil {
		t.Fatal(err)
	}
	diffs := Diff(a, b)
	want := "Core.Hier.L1D.Lines[Index="
	if len(diffs) != 3 || !strings.HasPrefix(diffs[0], want) || !strings.HasSuffix(diffs[0], "]: only in second") {
		t.Fatalf("extra line: diffs = %q, want %sN]: only in second, then the clock and miss count", diffs, want)
	}
	if diffs := Diff(b, a); !strings.HasSuffix(diffs[0], "]: only in first") {
		t.Errorf("reversed: diffs = %q", diffs)
	}
	// A changed entry is diffed field by field under its index.
	c, err := Capture(phys, core, k)
	if err != nil {
		t.Fatal(err)
	}
	c.Core.TLBs.L2.Ways[0].Tr.PPN++
	diffs = Diff(b, c)
	if len(diffs) != 1 || !strings.Contains(diffs[0], "Core.TLBs.L2.Ways[Index=") || !strings.Contains(diffs[0], "].Tr.PPN: ") {
		t.Errorf("changed TLB entry: diffs = %q", diffs)
	}
	// Keys that do not strictly ascend (a malformed image) are paired by
	// position.
	c.Core.TLBs.L2.Ways[0].Tr.PPN--
	l := c.Core.Hier.L1D.Lines
	l[0], l[1] = l[1], l[0]
	if diffs := Diff(b, c); len(diffs) == 0 || !strings.HasPrefix(diffs[0], "Core.Hier.L1D.Lines[0].Index: ") {
		t.Errorf("descending keys: diffs = %q", diffs)
	}
}
