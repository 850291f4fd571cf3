package static

import (
	"slices"
	"strings"
	"testing"

	"microscope/sim/isa"
)

func mustAsm(t *testing.T, src string) *isa.Program {
	t.Helper()
	p, err := isa.TryAssemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return p
}

func TestValidateRejectsFallOffEnd(t *testing.T) {
	for _, src := range []string{`
		movi r1, 1
		addi r1, r1, 2
	`, `
		txbegin h
	h:	txabort
	`, // txabort falls through (a no-op outside a transaction)
	} {
		err := Validate(mustAsm(t, src))
		if err == nil || !strings.Contains(err.Error(), "falls off the end") {
			t.Fatalf("%s\nwant falls-off-end error, got %v", src, err)
		}
	}
	// A trailing unconditional control transfer is fine.
	if err := Validate(mustAsm(t, "loop: jmp loop")); err != nil {
		t.Fatalf("jmp-terminated program rejected: %v", err)
	}
	if err := Validate(mustAsm(t, "movi r1, 1\nhalt")); err != nil {
		t.Fatalf("halt-terminated program rejected: %v", err)
	}
}

func TestValidateRejectsBadTargets(t *testing.T) {
	p := &isa.Program{Instrs: []isa.Instr{
		{Op: isa.OpJmp, Target: 7},
		{Op: isa.OpHalt},
	}}
	if err := Validate(p); err == nil {
		t.Fatal("out-of-range jump target accepted")
	}
	p = &isa.Program{Instrs: []isa.Instr{
		{Op: isa.Op(200), Rd: isa.R1},
		{Op: isa.OpHalt},
	}}
	if err := Validate(p); err == nil {
		t.Fatal("invalid opcode accepted")
	}
	p = &isa.Program{Instrs: []isa.Instr{
		{Op: isa.OpTxAbort},
		{Op: isa.OpHalt},
	}}
	if err := Validate(p); err == nil {
		t.Fatal("txabort without txbegin accepted")
	}
	if err := Validate(nil); err == nil {
		t.Fatal("nil program accepted")
	}
	if err := Validate(&isa.Program{}); err == nil {
		t.Fatal("empty program accepted")
	}
}

func TestBuildCFGBlocks(t *testing.T) {
	p := mustAsm(t, `
		movi r1, 1          ; 0
		beq  r1, r0, skip   ; 1
		addi r1, r1, 1      ; 2
	skip:	halt            ; 3
	`)
	g, err := BuildCFG(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Blocks) != 3 {
		t.Fatalf("want 3 blocks, got %d: %+v", len(g.Blocks), g.Blocks)
	}
	// Block 0 = [0,2) -> block of 2 and block of 3.
	b0 := g.Blocks[g.BlockOf[0]]
	if b0.Start != 0 || b0.End != 2 || len(b0.Succs) != 2 {
		t.Fatalf("entry block %+v", b0)
	}
	if g.BlockOf[2] == g.BlockOf[3] {
		t.Fatal("fallthrough and join share a block")
	}
	// The conditional branch has two instruction-level successors.
	succs := g.InstrSuccs(1)
	if len(succs) != 2 || succs[0] != 2 || succs[1] != 3 {
		t.Fatalf("branch succs = %v", succs)
	}
	if s := g.InstrSuccs(3); len(s) != 0 {
		t.Fatalf("halt succs = %v", s)
	}
}

func TestCFGTxBeginAbortEdges(t *testing.T) {
	p := mustAsm(t, `
		txbegin abort
		movi r1, 1
		txabort
		txend
		halt
	abort:	halt
	`)
	g, err := BuildCFG(p)
	if err != nil {
		t.Fatal(err)
	}
	if s := g.InstrSuccs(0); len(s) != 2 {
		t.Fatalf("txbegin succs = %v, want fallthrough+handler", s)
	}
	// txabort falls through (a no-op outside a transaction) and is
	// over-approximated as jumping to every abort handler.
	s := g.InstrSuccs(2)
	if len(s) != 2 || s[0] != 3 || s[1] != 5 {
		t.Fatalf("txabort succs = %v, want [3 5]", s)
	}
}

// TestBranchRegionTxAbortFallThrough pins the region of a branch whose
// taken side reaches a txabort: the core retires a txabort outside a
// transaction as a no-op, so the instruction after it (4) is reachable
// from the taken side only and belongs to the region, while the join
// (5) does not.
func TestBranchRegionTxAbortFallThrough(t *testing.T) {
	p := mustAsm(t, `
		txbegin h            ; 0
		beq  r1, r0, ab      ; 1
		jmp  end             ; 2
	ab:	txabort              ; 3
		movi r2, 1           ; 4
	end:	txend            ; 5
	h:	halt                 ; 6
	`)
	g, err := BuildCFG(p)
	if err != nil {
		t.Fatal(err)
	}
	rs := g.BranchRegions()
	if len(rs) != 1 || rs[0].PC != 1 {
		t.Fatalf("regions = %+v, want one for the branch at 1", rs)
	}
	var got []int
	for i, in := range rs[0].Region {
		if in {
			got = append(got, i)
		}
	}
	if !slices.Equal(got, []int{2, 3, 4}) {
		t.Fatalf("region of branch 1 = %v, want [2 3 4]", got)
	}
}
