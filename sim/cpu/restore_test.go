package cpu

import (
	"strings"
	"testing"

	"microscope/sim/isa"
	"microscope/sim/mem"
)

// warmCore runs a load loop partway, so the snapshot holds TLB entries
// and in-flight ROB entries.
func warmCore(t *testing.T) (*testRig, *CoreSnap) {
	t.Helper()
	r := newRig(t, DefaultConfig())
	const va = mem.Addr(0x40_0000)
	r.mapPage(t, va)
	b := isa.NewBuilder().MovImm(isa.R1, int64(va))
	for i := 0; i < 16; i++ {
		b.Load(isa.R2, isa.R1, 0).Add(isa.R3, isa.R3, isa.R2)
	}
	r.core.Context(0).SetProgram(b.Halt().MustBuild(), 0)
	r.core.Run(40)
	s, err := r.core.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.TLBs.L1D.Ways) == 0 || len(s.Contexts[0].ROB) == 0 {
		t.Fatal("warm core has no TLB or ROB state to damage")
	}
	return r, s
}

// Core.Restore rejects images that would make the run read outside
// physical memory or execute an instruction the program does not hold.
func TestRestoreRejectsDamagedImages(t *testing.T) {
	cases := []struct {
		name   string
		damage func(s *CoreSnap, phys *mem.PhysMem)
		want   string
	}{
		{"tlb frame beyond memory", func(s *CoreSnap, phys *mem.PhysMem) {
			s.TLBs.L1D.Ways[0].Tr.PPN = phys.Frames()
		}, "beyond physical memory"},
		{"invalid opcode in program", func(s *CoreSnap, _ *mem.PhysMem) {
			s.Contexts[0].Prog.Instrs[1].Op = isa.Op(250)
		}, "invalid opcode"},
		{"rob entry not in program", func(s *CoreSnap, _ *mem.PhysMem) {
			s.Contexts[0].ROB[0].Instr.Imm++
		}, "is not in the program"},
		{"rob physical address beyond memory", func(s *CoreSnap, phys *mem.PhysMem) {
			s.Contexts[0].ROB[0].PhysAddr = phys.Size() - 4
		}, "beyond memory"},
	}
	for _, tc := range cases {
		r, s := warmCore(t)
		tc.damage(s, r.core.Phys())
		if err := r.core.Restore(s); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// The hardware walker faults on a page-table entry that names a frame
// beyond physical memory instead of reading outside it.
func TestPageWalkFaultsOnTableBeyondMemory(t *testing.T) {
	r := newRig(t, DefaultConfig())
	const va = mem.Addr(0x40_0000)
	r.mapPage(t, va)
	steps, err := r.as.Walk(va)
	if err != nil {
		t.Fatal(err)
	}
	pud := steps[mem.PUD]
	r.core.Phys().Write64(pud.EntryAddr, uint64(pud.Entry.WithPPN(r.core.Phys().Frames())))
	var faults []PageFault
	r.core.SetFaultHandler(FaultHandlerFunc(func(f PageFault) FaultOutcome {
		faults = append(faults, f)
		return FaultOutcome{Terminate: true}
	}))
	p := isa.NewBuilder().MovImm(isa.R1, int64(va)).Load(isa.R2, isa.R1, 0).Halt().MustBuild()
	r.core.Context(0).SetProgram(p, 0)
	r.core.Run(100_000)
	if len(faults) != 1 || faults[0].VA != va {
		t.Fatalf("faults = %+v, want one at %#x", faults, va)
	}
}

// A context running without an address space (a restored image whose
// schedule left it unbound) faults on its first access instead of
// dereferencing a nil address space.
func TestAccessWithoutAddressSpaceFaults(t *testing.T) {
	r := newRig(t, DefaultConfig())
	r.core.Context(0).SetAddressSpace(nil)
	var faults int
	r.core.SetFaultHandler(FaultHandlerFunc(func(PageFault) FaultOutcome {
		faults++
		return FaultOutcome{Terminate: true}
	}))
	p := isa.NewBuilder().MovImm(isa.R1, 0x40_0000).Load(isa.R2, isa.R1, 0).Halt().MustBuild()
	r.core.Context(0).SetProgram(p, 0)
	r.core.Run(100_000)
	if faults != 1 || !r.core.Context(0).Halted() {
		t.Fatalf("faults = %d, halted = %t; want one fault and a halted context", faults, r.core.Context(0).Halted())
	}
}
