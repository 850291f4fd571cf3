// Package defense is the pluggable defense suite: every §8
// countermeasure (and the newer replay-specific proposals) behind one
// Defense interface, so the tournament in attack/experiments can cross
// every victim and every replay handle with every defense uniformly.
//
// A Defense plugs into the platform at up to three points:
//
//   - Configure mutates the cpu.Config before the core is built
//     (hardware defenses: squash counters, selective delay, fences,
//     invisible speculation);
//   - Harden rewrites the victim's program (software defenses: T-SGX
//     transaction wrapping, pf-oblivious prefacing);
//   - Install hooks the booted kernel (OS defenses: LEASH throttling,
//     SIMF multi-flush wiring).
//
// After a run, Verdict reads the detection state and counters back out.
// Prevention-style defenses (delay, SIMF, fence, invisible speculation)
// never "detect" — their effect shows up as the attack's leak count
// going to zero, which the tournament records per cell.
package defense

import (
	"microscope/attack/victim"
	"microscope/sim/cpu"
	"microscope/sim/kernel"
)

// Verdict is one defense's post-run report. The defense fills Detected
// and Counters; the tournament fills FalsePositive (from the unattacked
// control run) and CycleOverheadPermille (control cycles vs. the
// undefended control).
type Verdict struct {
	Detected              bool
	FalsePositive         bool
	CycleOverheadPermille int64
	Counters              map[string]uint64
}

// Defense is one pluggable countermeasure.
type Defense interface {
	// Name is the stable identifier used in the tournament matrix.
	Name() string
	// Configure adjusts the core configuration (called before the
	// platform is built, and re-applied via UpdateTiming on forks).
	Configure(cfg *cpu.Config)
	// Harden transforms the victim's layout (identity for most
	// defenses). Region addresses must not change — the tournament
	// checkpoints the installed memory image once per victim.
	Harden(l *victim.Layout) (*victim.Layout, error)
	// Install hooks the kernel after boot (called on every fork).
	Install(k *kernel.Kernel, proc *kernel.Process) error
	// Verdict reads the post-run detection state.
	Verdict(k *kernel.Kernel, core *cpu.Core, proc *kernel.Process, ctxID int) Verdict
}

// noDefense is the undefended baseline every tournament cell is
// measured against.
type noDefense struct{}

func (noDefense) Name() string                                    { return "none" }
func (noDefense) Configure(*cpu.Config)                           {}
func (noDefense) Harden(l *victim.Layout) (*victim.Layout, error) { return l, nil }
func (noDefense) Install(*kernel.Kernel, *kernel.Process) error   { return nil }
func (noDefense) Verdict(*kernel.Kernel, *cpu.Core, *kernel.Process, int) Verdict {
	return Verdict{}
}

// JamaisVu is the squash-counter replay detector (sim/cpu/jamaisvu.go):
// an instruction squashed by faults Threshold times without retiring
// raises an alarm. Epoch, when non-zero, clears the counters
// periodically (bounding state at the cost of an evasion window).
type JamaisVu struct {
	Threshold int
	Epoch     uint64
}

func (d *JamaisVu) Name() string { return "jamaisvu" }
func (d *JamaisVu) Configure(cfg *cpu.Config) {
	cfg.SquashThreshold = d.Threshold
	cfg.SquashEpoch = d.Epoch
}
func (d *JamaisVu) Harden(l *victim.Layout) (*victim.Layout, error) { return l, nil }
func (d *JamaisVu) Install(*kernel.Kernel, *kernel.Process) error   { return nil }
func (d *JamaisVu) Verdict(k *kernel.Kernel, core *cpu.Core, proc *kernel.Process, ctxID int) Verdict {
	alarms := core.Context(ctxID).Stats().ReplayAlarms
	return Verdict{
		Detected: alarms > 0,
		Counters: map[string]uint64{"alarms": alarms},
	}
}

// Delay is Sakalis-style selective speculative delay: transmit-capable
// instructions (loads, divides, RDRAND) may not issue until they are
// non-speculative, so a squashed replay window executes no transmitter.
// Pure prevention: it never detects, it starves the channel.
type Delay struct{}

func (Delay) Name() string                                    { return "delay" }
func (Delay) Configure(cfg *cpu.Config)                       { cfg.DelaySpeculative = true }
func (Delay) Harden(l *victim.Layout) (*victim.Layout, error) { return l, nil }
func (Delay) Install(*kernel.Kernel, *kernel.Process) error   { return nil }
func (Delay) Verdict(*kernel.Kernel, *cpu.Core, *kernel.Process, int) Verdict {
	return Verdict{}
}

// Leash is OS-level reactive throttling (sim/kernel/leash.go): a burst
// of same-page faults flags the process, and every subsequent fault
// pays a deschedule penalty.
type Leash struct {
	Config kernel.LeashConfig
}

func (d *Leash) Name() string                                    { return "leash" }
func (d *Leash) Configure(*cpu.Config)                           {}
func (d *Leash) Harden(l *victim.Layout) (*victim.Layout, error) { return l, nil }
func (d *Leash) Install(k *kernel.Kernel, proc *kernel.Process) error {
	k.EnableLeash(d.Config)
	return nil
}
func (d *Leash) Verdict(k *kernel.Kernel, core *cpu.Core, proc *kernel.Process, ctxID int) Verdict {
	tripped, throttled := k.LeashStatus(proc.PID)
	return Verdict{
		Detected: tripped,
		Counters: map[string]uint64{"throttled": throttled},
	}
}

// SIMF is the single-instruction multi-flush defense
// (sim/kernel/leash.go): every fault the protected process takes scrubs
// cache, TLB, page-walk cache and predictor before the untrusted
// handler runs. Prevention via cold structures; page-fault probes read
// nothing, though handles that never fault (TSX aborts, mispredicts)
// bypass it entirely.
type SIMF struct{}

func (SIMF) Name() string                                    { return "simf" }
func (SIMF) Configure(*cpu.Config)                           {}
func (SIMF) Harden(l *victim.Layout) (*victim.Layout, error) { return l, nil }
func (SIMF) Install(k *kernel.Kernel, proc *kernel.Process) error {
	k.EnableSIMF(proc)
	return nil
}
func (SIMF) Verdict(k *kernel.Kernel, core *cpu.Core, proc *kernel.Process, ctxID int) Verdict {
	return Verdict{
		Counters: map[string]uint64{"flushes": k.SIMFFlushes(proc.PID)},
	}
}

// All returns the full tournament roster in its canonical order:
// the undefended baseline first, then the replay-specific proposals,
// then the §8 countermeasures the paper analyzed.
func All() []Defense {
	return []Defense{
		noDefense{},
		&JamaisVu{Threshold: 6, Epoch: 1_000_000},
		Delay{},
		&Leash{Config: kernel.DefaultLeashConfig()},
		SIMF{},
		&DejaVu{StallBudget: 15_000},
		&TSGX{Budget: 8},
		PFOblivious{},
		Fence{},
		InvisiSpec{},
	}
}

// Find returns the roster defense with the given name, or nil.
func Find(name string) Defense {
	for _, d := range All() {
		if d.Name() == name {
			return d
		}
	}
	return nil
}
