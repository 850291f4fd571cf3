package experiments

import (
	"fmt"

	"microscope/attack/microscope"
	"microscope/attack/platform"
	"microscope/attack/victim"
	"microscope/sim/cache"
	"microscope/sim/cpu"
)

// BiasResult reports one RDRAND integrity-bias attack (§7.2).
type BiasResult struct {
	Fenced bool
	// TargetBit is the low bit the attacker wants RDRAND to retire with.
	TargetBit uint64
	// Achieved reports that the retired value's low bit equals TargetBit
	// *because the attacker selected it* (Windows > 0 and the observation
	// matched), not by chance.
	Achieved bool
	// Windows is how many speculative windows the attacker discarded
	// before accepting one.
	Windows int
	// Observed reports whether the attacker could read the RDRAND value
	// over the side channel at all (false when the fence blocks it).
	Observed bool
	// FinalLowBit is the low bit of the value the victim actually
	// retired and stored.
	FinalLowBit uint64
}

// RunRDRANDBias mounts the §7.2 integrity attack on victim.RdrandBias:
// the victim draws a random value in the shadow of a replay handle and
// transmits its low bit over a cache line; the attacker replays until the
// observed bit matches the target, then sets the present bit *during* the
// page walk so that very draw retires — biasing a "true" random number
// generator.
//
// With fenced=true the core models Intel's actual RDRAND fence: nothing
// younger than RDRAND dispatches until it retires, the transmit never
// executes speculatively, and the attacker is blind — the attack fails,
// the lesson of §7.2 ("there should be such a fence, for security
// reasons").
func RunRDRANDBias(targetBit uint64, maxWindows int, fenced bool) (*BiasResult, error) {
	cfg := cpu.DefaultConfig()
	cfg.FencedRdrand = fenced
	rig, err := platform.New(cfg)
	if err != nil {
		return nil, err
	}
	l := victim.RdrandBias()
	if err := rig.InstallVictim(l); err != nil {
		return nil, err
	}
	as := rig.Victim.AddressSpace()
	line0, err := as.Translate(l.Sym("array"))
	if err != nil {
		return nil, err
	}
	line1, err := as.Translate(l.Sym("array") + 64)
	if err != nil {
		return nil, err
	}
	h := rig.Core.Hierarchy()
	flushLines := func() {
		h.FlushAddr(line0)
		h.FlushAddr(line1)
	}
	observeBit := func() (uint64, bool) {
		hot0 := h.LevelOf(line0) != cache.LevelMem
		hot1 := h.LevelOf(line1) != cache.LevelMem
		switch {
		case hot0 && !hot1:
			return 0, true
		case hot1 && !hot0:
			return 1, true
		}
		return 0, false
	}

	res := &BiasResult{Fenced: fenced, TargetBit: targetBit}
	gaveUp := false
	rec := &microscope.Recipe{
		Name:   "rdrand-bias",
		Victim: rig.Victim,
		Handle: l.Sym("handle"),
	}
	rec.OnReplay = func(ev microscope.Event) microscope.Decision {
		// A fault was delivered: the previous window's draw was
		// discarded (either we chose to, or we were blind).
		res.Windows++
		if res.Windows >= maxWindows {
			gaveUp = true
			return microscope.Release
		}
		flushLines()
		return microscope.Replay
	}
	if err := rig.Module.Install(rec); err != nil {
		return nil, err
	}
	flushLines()
	l.Start(rig.Kernel, 0)

	// Drive the core cycle by cycle, watching the probe lines. When the
	// observed bit matches the target, set the present bit immediately —
	// before the in-flight walk concludes — so this very draw retires.
	ctx := rig.Core.Context(0)
	accepted := false
	for steps := 0; steps < 100_000_000 && !ctx.Halted(); steps++ {
		rig.Core.Step()
		if accepted || gaveUp {
			continue
		}
		if bit, ok := observeBit(); ok {
			res.Observed = true
			if bit == targetBit {
				if _, err := as.SetPresent(l.Sym("handle"), true); err != nil {
					return nil, err
				}
				accepted = true
			}
		}
	}
	if !ctx.Halted() {
		return nil, fmt.Errorf("experiments: rdrand victim did not finish")
	}
	out, err := as.Read64Virt(l.Sym("out"))
	if err != nil {
		return nil, err
	}
	res.FinalLowBit = out & 1
	res.Achieved = accepted && res.FinalLowBit == targetBit
	return res, nil
}
