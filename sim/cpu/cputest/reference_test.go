package cputest

import (
	"testing"

	"microscope/sim/isa"
	"microscope/sim/mem"
)

func newRefSpace(t *testing.T) *mem.AddressSpace {
	t.Helper()
	as, err := NewDataSpace(1)
	if err != nil {
		t.Fatal(err)
	}
	return as
}

// TestReferenceMatchesKnownResults sanity-checks the interpreter itself.
func TestReferenceMatchesKnownResults(t *testing.T) {
	ref := NewReference(newRefSpace(t), 7)
	prog := isa.NewBuilder().
		MovImm(isa.R1, 6).
		MovImm(isa.R2, 7).
		Mul(isa.R3, isa.R1, isa.R2).
		MovImm(isa.R4, int64(DataVA)).
		Store(isa.R3, isa.R4, 0).
		Load(isa.R5, isa.R4, 0).
		Halt().MustBuild()
	if err := ref.Run(prog, 0, 1000); err != nil {
		t.Fatal(err)
	}
	if ref.Reg(isa.R3) != 42 || ref.Reg(isa.R5) != 42 {
		t.Errorf("r3=%d r5=%d", ref.Reg(isa.R3), ref.Reg(isa.R5))
	}
}

func TestReferenceFaultsOnUnmapped(t *testing.T) {
	ref := NewReference(newRefSpace(t), 7)
	prog := isa.NewBuilder().
		MovImm(isa.R1, 0x7000_0000).
		Load(isa.R2, isa.R1, 0).
		Halt().MustBuild()
	if err := ref.Run(prog, 0, 1000); err == nil {
		t.Error("load from unmapped memory succeeded")
	}
}

func TestReferenceTxRollback(t *testing.T) {
	ref := NewReference(newRefSpace(t), 7)
	prog := isa.NewBuilder().
		MovImm(isa.R1, 1).
		TxBegin("abort").
		MovImm(isa.R1, 2).
		TxAbort().
		Halt().
		Label("abort").
		MovImm(isa.R2, 9).
		Halt().MustBuild()
	if err := ref.Run(prog, 0, 1000); err != nil {
		t.Fatal(err)
	}
	if ref.Reg(isa.R1) != 1 || ref.Reg(isa.R2) != 9 {
		t.Errorf("r1=%d r2=%d", ref.Reg(isa.R1), ref.Reg(isa.R2))
	}
	if ref.Reg(isa.AbortReg) != 1 {
		t.Errorf("abort reg = %d", ref.Reg(isa.AbortReg))
	}
}

func TestReferenceStepBudget(t *testing.T) {
	ref := NewReference(newRefSpace(t), 7)
	prog := isa.NewBuilder().
		Label("spin").
		Jmp("spin").MustBuild()
	if err := ref.Run(prog, 0, 100); err == nil {
		t.Error("infinite loop terminated")
	}
}
