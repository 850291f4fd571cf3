package cpu

import (
	"reflect"
	"testing"

	"microscope/sim/isa"
)

// SetRandSeed must leave a core exactly as NewCore builds it with that
// seed: the same snapshot, the same Config().RandSeed and the same
// RDRAND draws. That must also hold on a core restored from an image
// taken under another seed, which is how a run forked from a shared
// checkpoint takes its own seed.
func TestSetRandSeedMatchesNewCore(t *testing.T) {
	const seed = 0x0123_4567_89ab_cdef
	withSeed := func(s uint64) *testRig {
		cfg := DefaultConfig()
		cfg.RandSeed = s
		return newRig(t, cfg)
	}
	want := withSeed(seed)

	reseeded := newRig(t, DefaultConfig())
	reseeded.core.SetRandSeed(seed)

	restored := newRig(t, DefaultConfig())
	img, err := withSeed(0xfeedface).core.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.core.Restore(img); err != nil {
		t.Fatal(err)
	}
	restored.core.SetRandSeed(seed)

	prog := isa.NewBuilder().Rdrand(isa.R1).Rdrand(isa.R2).Rdrand(isa.R3).Halt().MustBuild()
	regs := []isa.Reg{isa.R1, isa.R2, isa.R3}
	snap := func(r *testRig) *CoreSnap {
		t.Helper()
		s, err := r.core.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	run := func(r *testRig) {
		t.Helper()
		r.core.Context(0).SetProgram(prog, 0)
		r.core.Run(10_000)
		if !r.core.Context(0).Halted() {
			t.Fatal("rdrand program did not halt")
		}
	}
	wantBoot := snap(want)
	run(want)
	wantDraws, wantN := want.core.RdrandLog()
	if wantN != uint64(len(regs)) {
		t.Fatalf("reference core drew %d values, want %d", wantN, len(regs))
	}
	for name, r := range map[string]*testRig{"NewCore+SetRandSeed": reseeded, "Restore+SetRandSeed": restored} {
		if got := r.core.Config().RandSeed; got != seed {
			t.Errorf("%s: Config().RandSeed = %#x, want %#x", name, got, seed)
		}
		if !reflect.DeepEqual(snap(r), wantBoot) {
			t.Errorf("%s: snapshot differs from NewCore's with the seed", name)
		}
		run(r)
		for _, reg := range regs {
			if got, w := r.core.Context(0).Reg(reg), want.core.Context(0).Reg(reg); got != w {
				t.Errorf("%s: %s = %#x, want %#x", name, reg, got, w)
			}
		}
		if draws, n := r.core.RdrandLog(); n != wantN || !reflect.DeepEqual(draws, wantDraws) {
			t.Errorf("%s: RDRAND draws %#x (%d), want %#x (%d)", name, draws, n, wantDraws, wantN)
		}
		if !reflect.DeepEqual(snap(r), snap(want)) {
			t.Errorf("%s: snapshot after the draws differs from NewCore's with the seed", name)
		}
	}
}
