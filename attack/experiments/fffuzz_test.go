package experiments

import (
	"testing"

	"microscope/attack/microscope"
	"microscope/attack/platform"
	"microscope/sim/cpu"
	"microscope/sim/trace"
)

// runFFMutant mounts a mutant layout (rebuilt per run — Install patches
// program state) with Config.FastForward set as given and digests the
// full attack. It reports false when the mutant cannot be mounted or the
// attack does not complete.
func runFFMutant(t *testing.T, sel uint8, a uint64, tail []byte, handleSym string,
	maxReplays int, handlerLat uint64, fastForward bool) (ffDigest, bool) {
	t.Helper()
	lay, _ := mutantLayout(sel, a, tail)
	cfg := cpu.DefaultConfig()
	cfg.FastForward = fastForward
	rig, err := platform.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rig.InstallVictim(lay); err != nil {
		return ffDigest{}, false
	}
	rec := &microscope.Recipe{
		Name:           "fffuzz",
		Victim:         rig.Victim,
		Handle:         lay.Sym(handleSym),
		HandlerLatency: handlerLat,
		MaxReplays:     maxReplays,
	}
	if err := rig.Module.Install(rec); err != nil {
		return ffDigest{}, false
	}
	h := trace.NewHasher()
	rig.Core.SetTracer(h)
	lay.Start(rig.Kernel, 0)
	if err := rig.Run(5_000_000); err != nil {
		return ffDigest{}, false
	}
	return ffDigestOf(rig, h, rec), true
}

// FuzzFastForwardEquivalence drives mutated victims through full replay
// attacks with fast-forward on and off and asserts its soundness
// invariant for any victim parameterization, replay budget and handler
// latency the fuzzer finds: the two runs are observationally identical
// (canonical trace hash, event count, cycle count, replay/fault totals,
// architectural registers, and statistics apart from SkippedCycles), and
// the off run skips nothing.
func FuzzFastForwardEquivalence(f *testing.F) {
	f.Add(uint8(0), uint64(3), []byte{}, uint8(6), uint16(500))
	f.Add(uint8(0), uint64(7), []byte{}, uint8(10), uint16(2000))
	f.Add(uint8(1), uint64(1), []byte{}, uint8(4), uint16(900))
	f.Add(uint8(2), uint64(0), []byte{3, 1, 4, 1, 5}, uint8(3), uint16(1200))
	f.Add(uint8(3), uint64(5|10<<8|60<<16|3<<24), []byte{}, uint8(8), uint16(700))
	f.Fuzz(func(t *testing.T, sel uint8, a uint64, tail []byte, replays uint8, lat uint16) {
		lay, handleSym := mutantLayout(sel, a, tail)
		if lay == nil {
			t.Skip("constructor rejected parameterization")
		}
		if _, ok := lay.Symbols[handleSym]; !ok {
			t.Skip("mutant has no replay handle symbol")
		}
		maxReplays := 1 + int(replays%12)
		handlerLat := 100 + uint64(lat%20_000)
		on, ok := runFFMutant(t, sel, a, tail, handleSym, maxReplays, handlerLat, true)
		if !ok {
			t.Skip("mutant attack did not complete")
		}
		off, ok := runFFMutant(t, sel, a, tail, handleSym, maxReplays, handlerLat, false)
		if !ok {
			t.Fatal("fast-forward-off run failed where fast-forward-on completed")
		}
		if off.skipped != 0 {
			t.Errorf("skip-off run skipped %d cycles", off.skipped)
		}
		ffAssertEqual(t, on, off, " on", "off")
	})
}
