package isa

import (
	"strings"
	"testing"
)

func TestRegString(t *testing.T) {
	cases := []struct {
		r    Reg
		want string
	}{
		{R0, "r0"}, {R15, "r15"}, {F0, "f0"}, {F15, "f15"}, {NoReg, "-"},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.want {
			t.Errorf("Reg(%d).String() = %q, want %q", c.r, got, c.want)
		}
	}
}

func TestRegClassification(t *testing.T) {
	if R5.IsFloat() {
		t.Error("R5 classified as float")
	}
	if !F5.IsFloat() {
		t.Error("F5 not classified as float")
	}
	if !R15.Valid() || !F15.Valid() {
		t.Error("valid registers reported invalid")
	}
	if NoReg.Valid() {
		t.Error("NoReg reported valid")
	}
}

func TestOpClassification(t *testing.T) {
	for _, op := range []Op{OpBeq, OpBne, OpBlt, OpBge, OpJmp} {
		if !op.IsBranch() {
			t.Errorf("%s not classified as branch", op)
		}
	}
	if OpJmp.IsCondBranch() {
		t.Error("jmp classified as conditional")
	}
	if !OpBeq.IsCondBranch() {
		t.Error("beq not classified as conditional")
	}
	for _, op := range []Op{OpLoad, OpLoadF, OpStore, OpStoreF} {
		if !op.IsMem() {
			t.Errorf("%s not classified as memory op", op)
		}
	}
	if !OpLoad.IsLoad() || OpLoad.IsStore() {
		t.Error("load misclassified")
	}
	if !OpStore.IsStore() || OpStore.IsLoad() {
		t.Error("store misclassified")
	}
	if OpAdd.IsMem() || OpAdd.IsBranch() {
		t.Error("add misclassified")
	}
}

func TestInstrDestAndSources(t *testing.T) {
	add := Instr{Op: OpAdd, Rd: R1, Rs1: R2, Rs2: R3}
	if add.Dest() != R1 {
		t.Errorf("add dest = %s", add.Dest())
	}
	if s := add.Sources(); s[0] != R2 || s[1] != R3 {
		t.Errorf("add sources = %v", s)
	}
	st := Instr{Op: OpStore, Rs1: R1, Rs2: R2}
	if st.Dest() != NoReg {
		t.Errorf("store dest = %s, want none", st.Dest())
	}
	ld := Instr{Op: OpLoad, Rd: R4, Rs1: R5}
	if s := ld.Sources(); s[0] != R5 || s[1] != NoReg {
		t.Errorf("load sources = %v", s)
	}
	halt := Instr{Op: OpHalt}
	if halt.Dest() != NoReg {
		t.Error("halt has a dest")
	}
	if s := halt.Sources(); s[0] != NoReg || s[1] != NoReg {
		t.Error("halt has sources")
	}
	tsc := Instr{Op: OpRdtsc, Rd: R7}
	if tsc.Dest() != R7 {
		t.Error("rdtsc dest lost")
	}
	if s := tsc.Sources(); s[0] != NoReg {
		t.Error("rdtsc has sources")
	}
}

func TestBuilderBranchFixups(t *testing.T) {
	p, err := NewBuilder().
		MovImm(R1, 3).
		Label("loop").
		AddImm(R1, R1, -1).
		Bne(R1, R0, "loop").
		Jmp("done").
		Nop().
		Label("done").
		Halt().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 6 {
		t.Fatalf("len = %d, want 6", p.Len())
	}
	if p.Instrs[2].Target != 1 {
		t.Errorf("bne target = %d, want 1", p.Instrs[2].Target)
	}
	if p.Instrs[3].Target != 5 {
		t.Errorf("jmp target = %d, want 5 (forward fixup)", p.Instrs[3].Target)
	}
	if idx, ok := p.LabelOf("done"); !ok || idx != 5 {
		t.Errorf("LabelOf(done) = %d,%v", idx, ok)
	}
}

func TestBuilderUndefinedLabel(t *testing.T) {
	_, err := NewBuilder().Jmp("nowhere").Halt().Build()
	if err == nil || !strings.Contains(err.Error(), "undefined label") {
		t.Errorf("want undefined label error, got %v", err)
	}
}

func TestBuilderDuplicateLabel(t *testing.T) {
	_, err := NewBuilder().Label("a").Nop().Label("a").Halt().Build()
	if err == nil || !strings.Contains(err.Error(), "duplicate label") {
		t.Errorf("want duplicate label error, got %v", err)
	}
}

func TestValidateRejectsBadRegClass(t *testing.T) {
	for _, c := range []struct {
		what  string
		in    Instr
		valid bool
	}{
		{"fadd with integer dest", Instr{Op: OpFAdd, Rd: R1, Rs1: F0, Rs2: F1}, false},
		{"load with float base", Instr{Op: OpLoad, Rd: R1, Rs1: F0}, false},
		{"fld", Instr{Op: OpLoadF, Rd: F1, Rs1: R0}, true},
		{"add reading NoReg", Instr{Op: OpAdd, Rd: R1, Rs1: NoReg, Rs2: R2}, false},
		{"add writing NoReg", Instr{Op: OpAdd, Rd: NoReg, Rs1: R1, Rs2: R2}, false},
		{"ld with NoReg in its unused slot", Instr{Op: OpLoad, Rd: R1, Rs1: R2, Rs2: NoReg}, true},
		{"st with NoReg in its unused slot", Instr{Op: OpStore, Rd: NoReg, Rs1: R2, Rs2: R3}, true},
	} {
		err := (&Program{Instrs: []Instr{c.in}}).Validate()
		if c.valid && err != nil {
			t.Errorf("%s rejected: %v", c.what, err)
		}
		if !c.valid && err == nil {
			t.Errorf("%s passed validation", c.what)
		}
	}
}

func TestValidateRejectsOutOfRangeTarget(t *testing.T) {
	p := &Program{Instrs: []Instr{{Op: OpJmp, Target: 5}}}
	if err := p.Validate(); err == nil {
		t.Error("out-of-range jump passed validation")
	}
}

func TestAssembleRoundTrip(t *testing.T) {
	src := `
        movi r1, 16      ; loop count
        movi r2, 0
loop:   addi r2, r2, 2
        addi r1, r1, -1
        bne  r1, r0, loop
        ld   r3, 8(r2)
        st   r3, 16(r2)
        fld  f1, 0(r3)
        fdiv f2, f1, f1
        rdtsc r4
        fence
        halt
`
	p, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 12 {
		t.Fatalf("len = %d, want 12", p.Len())
	}
	if p.Instrs[4].Op != OpBne || p.Instrs[4].Target != 2 {
		t.Errorf("bne parsed as %+v", p.Instrs[4])
	}
	if p.Instrs[5].Op != OpLoad || p.Instrs[5].Imm != 8 || p.Instrs[5].Rs1 != R2 {
		t.Errorf("ld parsed as %+v", p.Instrs[5])
	}
	if p.Instrs[6].Op != OpStore || p.Instrs[6].Rs2 != R3 {
		t.Errorf("st parsed as %+v", p.Instrs[6])
	}
	if p.Instrs[8].Op != OpFDiv || p.Instrs[8].Rd != F2 {
		t.Errorf("fdiv parsed as %+v", p.Instrs[8])
	}

	// Disassemble and re-assemble: programs must match instruction by
	// instruction.
	p2, err := Assemble(Disassemble(p))
	if err != nil {
		t.Fatalf("reassembly failed: %v\n%s", err, Disassemble(p))
	}
	if p2.Len() != p.Len() {
		t.Fatalf("round trip length %d != %d", p2.Len(), p.Len())
	}
	for i := range p.Instrs {
		a, b := p.Instrs[i], p2.Instrs[i]
		a.Label, b.Label = "", ""
		if a != b {
			t.Errorf("instr %d: %+v != %+v", i, a, b)
		}
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"unknown mnemonic", "frob r1, r2"},
		{"bad register", "mov r1, r99"},
		{"wrong arity", "add r1, r2"},
		{"bad label", "1bad: nop"},
		{"bad memory operand", "ld r1, r2"},
		{"bad immediate", "movi r1, xyz"},
		{"undefined branch target", "beq r1, r2, missing"},
	}
	for _, c := range cases {
		if _, err := Assemble(c.src); err == nil {
			t.Errorf("%s: Assemble(%q) succeeded, want error", c.name, c.src)
		}
	}
}

func TestAssembleComments(t *testing.T) {
	p, err := Assemble("nop # trailing\n; whole line\n  # another\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 2 {
		t.Errorf("len = %d, want 2", p.Len())
	}
}

func TestAssembleHexImmediate(t *testing.T) {
	p, err := Assemble("movi r1, 0x1000\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	if p.Instrs[0].Imm != 0x1000 {
		t.Errorf("imm = %d, want 4096", p.Instrs[0].Imm)
	}
}

func TestInstrStringForms(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: OpNop}, "nop"},
		{Instr{Op: OpMovImm, Rd: R1, Imm: 7}, "movi r1, 7"},
		{Instr{Op: OpLoad, Rd: R2, Rs1: R3, Imm: 16}, "ld r2, 16(r3)"},
		{Instr{Op: OpStore, Rs2: R2, Rs1: R3, Imm: 8}, "st r2, 8(r3)"},
		{Instr{Op: OpBeq, Rs1: R1, Rs2: R2, Label: "x"}, "beq r1, r2, x"},
		{Instr{Op: OpJmp, Target: 3}, "jmp @3"},
		{Instr{Op: OpRdtsc, Rd: R9}, "rdtsc r9"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustBuild did not panic on invalid program")
		}
	}()
	NewBuilder().Jmp("missing").MustBuild()
}
