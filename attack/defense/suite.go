// Package defense is the pluggable defense suite: every §8
// countermeasure (and the newer replay-specific proposals) as one
// Defense value — a name plus a hook per platform layer it acts at —
// so the tournament in attack/experiments can cross every victim and
// every replay handle with every defense uniformly. Prevention-style
// defenses (delay, SIMF, fence, invisible speculation) never "detect":
// their effect shows up as the attack's leak count going to zero,
// which the tournament records per cell.
//
// Prepare, Apply and Judge are the one path from a Defense to a
// defended run: the tournament and this package's tests both take it.
package defense

import (
	"microscope/attack/platform"
	"microscope/attack/victim"
	"microscope/sim/cpu"
	"microscope/sim/kernel"
)

// Verdict is one defense's post-run report: whether it flagged the
// run, and its own counters.
type Verdict struct {
	Detected bool
	Counters map[string]uint64
}

// Defense is one pluggable countermeasure: its matrix name plus one
// hook per layer it acts at. A nil hook leaves its layer alone.
type Defense struct {
	// Name is the stable identifier used in the tournament matrix.
	Name string
	// Core adjusts the core configuration (hardware defenses: squash
	// counters, selective delay, fences, invisible speculation). Every
	// field a roster defense sets is one Core.UpdateTiming accepts, so
	// a restored checkpoint takes it without a reboot.
	Core func(cfg *cpu.Config)
	// Harden rewrites the victim's layout (software defenses: T-SGX
	// transaction wrapping, pf-oblivious prefacing). Region addresses
	// must not change: the tournament checkpoints the installed memory
	// image once per victim.
	Harden func(l *victim.Layout) (*victim.Layout, error)
	// Kernel hooks the booted kernel (OS defenses: LEASH throttling,
	// SIMF multi-flush wiring).
	Kernel func(k *kernel.Kernel, proc *kernel.Process)
	// Verdict reads the detection state of the victim on context 0
	// after a run.
	Verdict func(rig *platform.Rig) Verdict
}

// Prepare runs d's Core and Harden hooks, once per victim: it returns
// base as d configures it and l as d hardens it.
func (d Defense) Prepare(base cpu.Config, l *victim.Layout) (cpu.Config, *victim.Layout, error) {
	if d.Core != nil {
		d.Core(&base)
	}
	if d.Harden != nil {
		var err error
		if l, err = d.Harden(l); err != nil {
			return base, nil, err
		}
	}
	return base, l, nil
}

// Apply puts d on a rig that holds its victim, freshly booted or just
// restored: the core takes cfg (from Prepare), and the kernel drops
// any countermeasure wiring left from an earlier run — restores do not
// clear host-side wiring — before d's kernel hook runs.
func (d Defense) Apply(rig *platform.Rig, cfg cpu.Config) error {
	if err := rig.Core.UpdateTiming(cfg); err != nil {
		return err
	}
	rig.Kernel.ResetCountermeasures()
	if d.Kernel != nil {
		d.Kernel(rig.Kernel, rig.Victim)
	}
	return nil
}

// Judge reads d's verdict after a run on rig; a defense without a
// Verdict hook reports nothing.
func (d Defense) Judge(rig *platform.Rig) Verdict {
	if d.Verdict == nil {
		return Verdict{}
	}
	return d.Verdict(rig)
}

// JamaisVu is the squash-counter replay detector (sim/cpu/jamaisvu.go):
// an instruction squashed by faults threshold times without retiring
// raises an alarm. A non-zero epoch clears the counters periodically
// (bounding state at the cost of an evasion window).
func JamaisVu(threshold int, epoch uint64) Defense {
	return Defense{
		Name: "jamaisvu",
		Core: func(cfg *cpu.Config) {
			cfg.SquashThreshold = threshold
			cfg.SquashEpoch = epoch
		},
		Verdict: func(rig *platform.Rig) Verdict {
			alarms := rig.Core.Context(0).Stats().ReplayAlarms
			return Verdict{
				Detected: alarms > 0,
				Counters: map[string]uint64{"alarms": alarms},
			}
		},
	}
}

// Leash is OS-level reactive throttling (sim/kernel/leash.go): a burst
// of same-page faults flags the process, and every subsequent fault
// pays a deschedule penalty.
func Leash(c kernel.LeashConfig) Defense {
	return Defense{
		Name:   "leash",
		Kernel: func(k *kernel.Kernel, _ *kernel.Process) { k.EnableLeash(c) },
		Verdict: func(rig *platform.Rig) Verdict {
			tripped, throttled := rig.Kernel.LeashStatus(rig.Victim.PID)
			return Verdict{
				Detected: tripped,
				Counters: map[string]uint64{"throttled": throttled},
			}
		},
	}
}

// DejaVu models the enclave's software clock: an enclave thread
// measures its own progress, and time lost to exits (here: cycles spent
// in the fault handler, ContextStats.StallCycles) beyond the budget it
// must tolerate for ordinary demand faults flags an attack. The
// paper's bypass applies unchanged — an attacker who keeps total
// handler time under the budget goes unnoticed — and handles that
// never exit (TSX aborts, mispredicts) never advance the clock at all.
// The roster's budget tolerates a couple of demand faults (2×6000)
// with headroom.
func DejaVu(stallBudget uint64) Defense {
	return Defense{
		Name: "dejavu",
		Verdict: func(rig *platform.Rig) Verdict {
			stalled := rig.Core.Context(0).Stats().StallCycles
			return Verdict{
				Detected: stalled > stallBudget,
				Counters: map[string]uint64{"stall_cycles": stalled},
			}
		},
	}
}

// TSGX wraps the victim in a TSX transaction with a halt-on-exhaust
// abort handler (victim.WrapTx): page faults inside the transaction
// become aborts the OS never sees, and an abort burst past the budget
// N (the T-SGX authors use 10) shuts the enclave down instead of
// feeding the attacker more windows. The paper's observation stands:
// the retries themselves are N-1 replays the attacker observes
// passively.
func TSGX(budget int) Defense {
	return Defense{
		Name: "tsgx",
		Harden: func(l *victim.Layout) (*victim.Layout, error) {
			return victim.WrapTx(l, int64(budget), true)
		},
		Verdict: func(rig *platform.Rig) Verdict {
			aborts := rig.Core.Context(0).Stats().TxAborts
			return Verdict{
				Detected: budget > 0 && aborts >= uint64(budget),
				Counters: map[string]uint64{"tx_aborts": aborts},
			}
		},
	}
}

// All returns the full tournament roster in its canonical order:
// the undefended baseline first, then the replay-specific proposals,
// then the §8 countermeasures the paper analyzed.
func All() []Defense {
	return []Defense{
		// none is the undefended baseline every tournament cell is
		// measured against.
		{Name: "none"},
		JamaisVu(6, 1_000_000),
		// delay is Sakalis-style selective speculative delay:
		// transmit-capable instructions (loads, divides, RDRAND) may
		// not issue until they are non-speculative, so a squashed
		// replay window executes no transmitter. Pure prevention: it
		// never detects, it starves the channel.
		{Name: "delay", Core: func(cfg *cpu.Config) { cfg.DelaySpeculative = true }},
		Leash(kernel.DefaultLeashConfig()),
		// simf is the single-instruction multi-flush defense
		// (sim/kernel/leash.go): every fault the protected process
		// takes scrubs cache, TLB, page-walk cache and predictor
		// before the untrusted handler runs. Prevention via cold
		// structures; page-fault probes read nothing, though handles
		// that never fault (TSX aborts, mispredicts) bypass it.
		{
			Name:   "simf",
			Kernel: func(k *kernel.Kernel, proc *kernel.Process) { k.EnableSIMF(proc) },
			Verdict: func(rig *platform.Rig) Verdict {
				return Verdict{
					Counters: map[string]uint64{"flushes": rig.Kernel.SIMFFlushes(rig.Victim.PID)},
				}
			},
		},
		DejaVu(15_000),
		TSGX(8),
		// pfoblivious models Shinde-et-al. page-fault-oblivious
		// execution as a program transformation (victim.WithPreface):
		// the victim touches every page of its working set up front,
		// so the page-level trace is secret-independent and an armed
		// present bit is consumed by a preface load whose window
		// carries no secret. As §8 observes, the redundant accesses
		// are themselves fresh replay handles; the tournament's
		// baseline rows show the attack surviving at cache-line
		// granularity.
		{
			Name: "pfoblivious",
			Harden: func(l *victim.Layout) (*victim.Layout, error) {
				return victim.WithPreface(l), nil
			},
		},
		// fence is the paper's fence-after-flush hardware proposal: a
		// fence after every pipeline flush serializes the restart, so
		// replay windows after the first carry no speculative
		// transmit.
		{Name: "fence", Core: func(cfg *cpu.Config) { cfg.FenceAfterFlush = true }},
		// invisispec is InvisiSpec/SafeSpec-style invisible
		// speculation: speculative loads fill no shared cache state
		// until they are safe. It closes the cache channel and — as
		// §8 notes — leaves port contention wide open, which the
		// tournament's port-probed victims demonstrate.
		{Name: "invisispec", Core: func(cfg *cpu.Config) { cfg.InvisibleSpeculation = true }},
	}
}

// Find returns the roster defense with the given name.
func Find(name string) (Defense, bool) {
	for _, d := range All() {
		if d.Name == name {
			return d, true
		}
	}
	return Defense{}, false
}
