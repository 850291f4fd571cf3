package cpu

import (
	"math/rand"
	"testing"

	"microscope/sim/cpu/cputest"
	"microscope/sim/isa"
	"microscope/sim/mem"
)

// The differential fuzzer: random valid terminating programs must leave
// identical architectural state (registers + memory) on the out-of-order
// core and on the sequential cputest.Reference interpreter. This
// exercises renaming, forwarding, branch recovery, memory
// disambiguation, store-to-load forwarding and transaction rollback
// against a trivially correct model. Both engines take what each
// instruction computes from sim/isa (Instr.Eval, Instr.Taken), so the
// semantics themselves are checked by sim/isa's known-answer table
// instead. The program generators and the reference live in
// sim/cpu/cputest so the external trace-differential suite
// (tracediff_test.go) can drive the exact same distribution.

const (
	diffDataVA = cputest.DataVA
	diffPages  = cputest.DataPages
)

func newDiffSpace(t *testing.T, seedMem int64) *mem.AddressSpace {
	t.Helper()
	as, err := cputest.NewDataSpace(seedMem)
	if err != nil {
		t.Fatal(err)
	}
	return as
}

func TestDifferentialOoOvsReference(t *testing.T) {
	const programs = 120
	for seed := int64(0); seed < programs; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := cputest.GenProgram(rng)

		// Reference run.
		refAS := newDiffSpace(t, seed)
		ref := cputest.NewReference(refAS, 42)
		if err := ref.Run(prog, 0, 2_000_000); err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}

		// Out-of-order run on identical initial state.
		oooAS := newDiffSpace(t, seed)
		core := NewCore(DefaultConfig(), oooAS.Phys())
		core.Context(0).SetAddressSpace(oooAS)
		core.Context(0).SetProgram(prog, 0)
		core.SetFaultHandler(FaultHandlerFunc(func(f PageFault) FaultOutcome {
			t.Fatalf("seed %d: unexpected fault at %#x", seed, f.VA)
			return FaultOutcome{Terminate: true}
		}))
		core.Run(20_000_000)
		if !core.Context(0).Halted() {
			t.Fatalf("seed %d: core did not halt (pc=%d, %d instrs)",
				seed, core.Context(0).PC(), prog.Len())
		}

		// Compare architectural registers (loop counters included; r0
		// and transaction scratch included; rdtsc/rdrand never emitted).
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			got, want := core.Context(0).Reg(r), ref.Reg(r)
			if got != want {
				t.Fatalf("seed %d: %s = %#x (ooo) vs %#x (ref)\n%s",
					seed, r, got, want, isa.Disassemble(prog))
			}
		}
		// Compare the data pages.
		for p := 0; p < diffPages; p++ {
			va := diffDataVA + mem.Addr(p)*mem.PageSize
			a, err := oooAS.ReadVirt(va, mem.PageSize)
			if err != nil {
				t.Fatal(err)
			}
			b, err := refAS.ReadVirt(va, mem.PageSize)
			if err != nil {
				t.Fatal(err)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("seed %d: memory diverges at %#x+%d: %#x vs %#x\n%s",
						seed, va, i, a[i], b[i], isa.Disassemble(prog))
				}
			}
		}
	}
}

// TestDifferentialHeavyAliasing narrows memory offsets to a handful of
// slots so stores and loads alias constantly, stressing store-to-load
// forwarding and memory-order-violation recovery against the reference.
func TestDifferentialHeavyAliasing(t *testing.T) {
	const programs = 80
	for seed := int64(1000); seed < 1000+programs; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := cputest.GenAliasProgram(rng)

		refAS := newDiffSpace(t, seed)
		ref := cputest.NewReference(refAS, 42)
		if err := ref.Run(prog, 0, 1_000_000); err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}

		oooAS := newDiffSpace(t, seed)
		core := NewCore(DefaultConfig(), oooAS.Phys())
		core.Context(0).SetAddressSpace(oooAS)
		core.Context(0).SetProgram(prog, 0)
		core.Run(20_000_000)
		if !core.Context(0).Halted() {
			t.Fatalf("seed %d: core did not halt", seed)
		}
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			if got, want := core.Context(0).Reg(r), ref.Reg(r); got != want {
				t.Fatalf("seed %d: %s = %#x vs %#x\n%s",
					seed, r, got, want, isa.Disassemble(prog))
			}
		}
		a, err := oooAS.ReadVirt(diffDataVA, 64)
		if err != nil {
			t.Fatal(err)
		}
		b, err := refAS.ReadVirt(diffDataVA, 64)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: memory slot byte %d differs\n%s",
					seed, i, isa.Disassemble(prog))
			}
		}
	}
}
