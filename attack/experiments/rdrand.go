package experiments

import (
	"fmt"

	"microscope/attack/microscope"
	"microscope/attack/platform"
	"microscope/attack/victim"
	"microscope/sim/cpu"
	"microscope/sim/mem"
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
	return runRDRANDBias(targetBit, maxWindows, fenced, nil)
}

// runRDRANDBias is RunRDRANDBias with a hook that, when non-nil, runs
// once the recipe is armed and before the victim starts; the failure
// tests break the handle's page tables there.
func runRDRANDBias(targetBit uint64, maxWindows int, fenced bool,
	armed func(*platform.Rig, *microscope.Recipe)) (*BiasResult, error) {
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
	// The victim transmits its bit b by touching line b of the array.
	lines, err := rig.Module.NewProbe(rig.Victim, []mem.Addr{l.Sym("array"), l.Sym("array") + 64})
	if err != nil {
		return nil, err
	}
	observeBit := func() (uint64, bool) {
		switch lines.Hot() {
		case 0b01:
			return 0, true
		case 0b10:
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
		lines.FlushAll()
		return microscope.Replay
	}
	if err := rig.Module.Install(rec); err != nil {
		return nil, err
	}
	if armed != nil {
		armed(rig, rec)
	}
	lines.FlushAll()
	l.Start(rig.Kernel, 0)

	// Watch the probe lines after every cycle the core can act in. When
	// the observed bit matches the target, set the present bit
	// immediately — before the in-flight walk concludes — so this very
	// draw retires.
	accepted := false
	wanted := func() bool {
		if accepted || gaveUp {
			return false
		}
		bit, ok := observeBit()
		res.Observed = res.Observed || ok
		return ok && bit == targetBit
	}
	accept := func() error {
		accepted = true
		_, err := as.SetPresent(l.Sym("handle"), true)
		return err
	}
	if err := rig.RunReacting(100_000_000, wanted, accept); err != nil {
		return nil, fmt.Errorf("experiments: rdrand bias: %w", err)
	}
	out, err := as.Read64Virt(l.Sym("out"))
	if err != nil {
		return nil, err
	}
	res.FinalLowBit = out & 1
	res.Achieved = accepted && res.FinalLowBit == targetBit
	return res, nil
}
