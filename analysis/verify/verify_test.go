package verify

import (
	"strings"
	"testing"

	"microscope/attack/victim"
	"microscope/sim/cpu/cputest"
	"microscope/sim/isa"
	"microscope/sim/mem"
)

// Test pages, distinct from the builtin victims' addresses.
const (
	tHandlePage mem.Addr = 0x0060_0000
	tSecretPage mem.Addr = 0x0061_0000
	tProbePage  mem.Addr = 0x0062_0000
	tOutPage    mem.Addr = 0x0063_0000
)

const trw = mem.FlagUser | mem.FlagWritable

func le64(words ...uint64) []byte {
	out := make([]byte, 8*len(words))
	for i, w := range words {
		for b := 0; b < 8; b++ {
			out[8*i+b] = byte(w >> (8 * b))
		}
	}
	return out
}

// testLayout wraps a program with the standard four test pages; the
// secret page holds secretInit and is the declared secret region.
func testLayout(name string, prog *isa.Program, secretInit uint64) *victim.Layout {
	return &victim.Layout{
		Name:          name,
		Prog:          prog,
		SecretRegions: []string{"secret"},
		Symbols: map[string]mem.Addr{
			"handle": tHandlePage,
			"secret": tSecretPage,
		},
		Regions: []victim.Region{
			{Name: "handle", VA: tHandlePage, Size: mem.PageSize, Flags: trw, Init: le64(0xabcd)},
			{Name: "secret", VA: tSecretPage, Size: mem.PageSize, Flags: trw, Init: le64(secretInit)},
			{Name: "probe", VA: tProbePage, Size: mem.PageSize, Flags: trw},
			{Name: "out", VA: tOutPage, Size: mem.PageSize, Flags: trw},
		},
	}
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Trials = 8 // unit tests trade trials for speed; crossval keeps 32
	return cfg
}

// ctSafeProg computes on the secret without any secret-dependent
// address, divide or branch: constant-time by construction.
func ctSafeProg() *isa.Program {
	return isa.NewBuilder().
		MovImm(isa.R1, int64(tHandlePage)).
		MovImm(isa.R2, int64(tSecretPage)).
		MovImm(isa.R3, int64(tOutPage)).
		Load(isa.R4, isa.R2, 0). // secret value (fixed address)
		Load(isa.R5, isa.R1, 0). // replay handle
		Mul(isa.R6, isa.R4, isa.R4).
		Xor(isa.R6, isa.R6, isa.R5).
		Store(isa.R6, isa.R3, 0).
		Halt().
		MustBuild()
}

// leakyProg transmits the (masked) secret through a probe-array load —
// the Fig. 4 access pattern in miniature. The mask keeps every possible
// secret's probe address inside the probe page, so the repaired program
// stays runnable under whole-domain random secrets.
func leakyProg() *isa.Program {
	return isa.NewBuilder().
		MovImm(isa.R1, int64(tHandlePage)).
		MovImm(isa.R2, int64(tSecretPage)).
		MovImm(isa.R3, int64(tProbePage)).
		Load(isa.R4, isa.R2, 0).     // secret
		AndImm(isa.R4, isa.R4, 63).  // keep probe index in-page
		Load(isa.R5, isa.R1, 0).     // replay handle
		ShlImm(isa.R6, isa.R4, 6).   // line index
		Add(isa.R6, isa.R6, isa.R3). //
		Load(isa.R7, isa.R6, 0).     // transmit
		Halt().
		MustBuild()
}

// unknownProg loops a secret-dependent number of times: every iteration
// forks the tainted bound check, so a small path budget must bail out.
func unknownProg() *isa.Program {
	return isa.NewBuilder().
		MovImm(isa.R1, int64(tSecretPage)).
		Load(isa.R2, isa.R1, 0). // tainted bound
		MovImm(isa.R3, 0).
		Label("loop").
		AddImm(isa.R3, isa.R3, 1).
		Bne(isa.R3, isa.R2, "loop").
		Halt().
		MustBuild()
}

func TestVerifyProvenSafe(t *testing.T) {
	sub := NewSubject(testLayout("ctsafe", ctSafeProg(), 42))
	res, err := Verify(sub, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != ProvenSafe {
		t.Fatalf("verdict = %s (%s), want PROVEN-SAFE", res.Verdict, res.Reason)
	}
	if res.Certificate == nil || res.Certificate.Trials != 8 {
		t.Fatalf("missing or short certificate: %+v", res.Certificate)
	}
	if len(res.Sites) != 0 {
		t.Fatalf("unexpected sites: %+v", res.Sites)
	}
}

func TestVerifyLeakyWithWitness(t *testing.T) {
	sub := NewSubject(testLayout("leaky", leakyProg(), 5))
	res, err := Verify(sub, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Leaky {
		t.Fatalf("verdict = %s (%s), want LEAKY", res.Verdict, res.Reason)
	}
	w := res.Witness
	if w == nil {
		t.Fatal("LEAKY verdict without witness")
	}
	if w.ProjA.Equal(w.ProjB) {
		t.Fatalf("witness projections do not diverge: %+v vs %+v", w.ProjA, w.ProjB)
	}
	if channelDigest(w.ProjA, w.Channel) == channelDigest(w.ProjB, w.Channel) {
		t.Fatalf("witness does not diverge on its claimed channel %s", w.Channel)
	}
	// The abstract site must name the transmit load and its secret atom.
	found := false
	for _, s := range res.Sites {
		for _, a := range s.Atoms {
			if a.Kind == "mem" && a.Addr == tSecretPage {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no site names the secret word: %+v", res.Sites)
	}
}

func TestVerifyUnknownOnPathExplosion(t *testing.T) {
	cfg := testConfig()
	cfg.MaxPaths = 8
	sub := NewSubject(testLayout("explode", unknownProg(), 1000))
	res, err := Verify(sub, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Unknown {
		t.Fatalf("verdict = %s (%s), want UNKNOWN", res.Verdict, res.Reason)
	}
	if res.Complete {
		t.Fatal("exploration reported complete despite the path budget")
	}
}

func TestRepairLeakyToProvenSafe(t *testing.T) {
	sub := NewSubject(testLayout("leaky", leakyProg(), 5))
	rr, err := Repair(sub, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rr.Inserted == 0 {
		t.Fatal("repair inserted no fences")
	}
	if rr.Result.Verdict != ProvenSafe {
		t.Fatalf("repaired verdict = %s (%s), want PROVEN-SAFE", rr.Result.Verdict, rr.Result.Reason)
	}
	// The original program must still be leaky (Repair must not mutate).
	if sub.Layout.Prog.Len() != leakyProg().Len() {
		t.Fatal("Repair mutated the subject's program")
	}
}

func TestAtomTableOverflow(t *testing.T) {
	tab := newAtomTable()
	var last uint64
	for i := 0; i < 80; i++ {
		last = tab.mask(Atom{Kind: "mem", Addr: mem.Addr(i * 8)})
	}
	if last != 1<<overflowBit {
		t.Fatalf("atom 80 mask = %#x, want overflow bit", last)
	}
	atoms := tab.resolve(last)
	if len(atoms) != 1 || atoms[0].Kind != "overflow" {
		t.Fatalf("resolve(overflow) = %+v", atoms)
	}
}

// A dynamic run that exceeds its cycle budget makes the verdict
// UNKNOWN, and the reason names the program and where the victim was
// spinning.
func TestVerifyUnknownOnRunTimeout(t *testing.T) {
	cfg := testConfig()
	cfg.MaxCycles = 2000
	res, err := Verify(NewSubject(victim.ControlFlowSecret(true)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Unknown {
		t.Fatalf("verdict = %s (%s), want UNKNOWN", res.Verdict, res.Reason)
	}
	for _, want := range []string{`"controlflow"`, "victim spinning at pc=6"} {
		if !strings.Contains(res.Reason, want) {
			t.Errorf("reason %q does not contain %s", res.Reason, want)
		}
	}
}

// noRegCTControl is ctcontrol with its first instruction's unused
// operand slots set to isa.NoReg: a movi reads no register, so the
// program is well formed, and every consumer must read only the
// registers an op reads.
func noRegCTControl(t *testing.T) *victim.Layout {
	t.Helper()
	lay := victim.ConstantTime()
	prog := &isa.Program{Instrs: append([]isa.Instr(nil), lay.Prog.Instrs...), Labels: lay.Prog.Labels}
	in := &prog.Instrs[0]
	if in.Op != isa.OpMovImm {
		t.Fatalf("ctcontrol starts with %s, want a movi", in)
	}
	in.Rs1, in.Rs2 = isa.NoReg, isa.NoReg
	if err := prog.Validate(); err != nil {
		t.Fatalf("Validate rejects unused NoReg slots: %v", err)
	}
	lay.Prog = prog
	return lay
}

// TestNoRegInUnusedOperandSlot checks that the verifier gives that
// program ctcontrol's verdict, and that the reference interpreter runs
// it to the result of the unmodified program, where both used to index
// the register file with NoReg and panic.
func TestNoRegInUnusedOperandSlot(t *testing.T) {
	lay := noRegCTControl(t)
	sub := NewSubject(lay)
	sub.Handle = lay.Sym("handle")
	res, err := Verify(sub, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != ProvenSafe {
		t.Errorf("verdict = %s (%s), want PROVEN-SAFE", res.Verdict, res.Reason)
	}

	run := func(l *victim.Layout) *cputest.Reference {
		phys := mem.NewPhysMem(16 << 20)
		as, err := mem.NewAddressSpace(phys, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range l.Regions {
			for off := uint64(0); off < r.Size; off += mem.PageSize {
				if _, err := as.MapNew(r.VA+off, r.Flags); err != nil {
					t.Fatal(err)
				}
			}
			if err := as.WriteVirt(r.VA, r.Init); err != nil {
				t.Fatal(err)
			}
		}
		ref := cputest.NewReference(as, 1)
		if err := ref.Run(l.Prog, l.Entry, 10_000); err != nil {
			t.Fatalf("%s: reference: %v", l.Name, err)
		}
		return ref
	}
	got, want := run(lay), run(victim.ConstantTime())
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		if got.Reg(r) != want.Reg(r) {
			t.Errorf("reference %s = %#x, want %#x as for ctcontrol", r, got.Reg(r), want.Reg(r))
		}
	}
}
