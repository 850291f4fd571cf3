// Package platform builds the one machine every attack, analysis and
// tool runs on (Rig: physical memory, an SMT core, a kernel with the
// MicroScope module loaded, a victim process on context 0), and
// checkpoints, restores and forks it. It imports only sim/*,
// attack/microscope and attack/victim, so analysis/verify can use it.
package platform

import (
	"fmt"
	"strings"

	"microscope/attack/microscope"
	"microscope/attack/victim"
	"microscope/sim/cpu"
	"microscope/sim/kernel"
	"microscope/sim/mem"
)

// Rig is a fully assembled attack platform: physical memory, one SMT
// core, a kernel with the MicroScope module loaded, and a victim process
// scheduled on context 0.
type Rig struct {
	Phys   *mem.PhysMem
	Core   *cpu.Core
	Kernel *kernel.Kernel
	Module *microscope.Module
	Victim *kernel.Process
	// Monitor is non-nil when a monitor process is scheduled on
	// context 1.
	Monitor *kernel.Process
}

// New assembles a platform with the given core configuration. An
// invalid configuration (cpu.Config.Validate) is an error, returned
// before anything is built.
func New(cfg cpu.Config) (*Rig, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	phys := mem.NewPhysMem(victim.PlatformMemBytes)
	core := cpu.NewCore(cfg, phys)
	k := kernel.New(kernel.DefaultConfig(), phys, core)
	m := microscope.NewModule(k)
	vp, err := k.NewProcess("victim")
	if err != nil {
		return nil, err
	}
	k.Schedule(0, vp)
	return &Rig{Phys: phys, Core: core, Kernel: k, Module: m, Victim: vp}, nil
}

// InstallVictim installs a victim layout into the victim process.
func (r *Rig) InstallVictim(l *victim.Layout) error {
	return l.Install(r.Kernel, r.Victim)
}

// AddMonitor creates the monitor process on SMT context 1 and installs
// its layout.
func (r *Rig) AddMonitor(l *victim.Layout) error {
	if r.Core.Contexts() < 2 {
		return fmt.Errorf("platform: core has no second SMT context")
	}
	mp, err := r.Kernel.NewProcess("monitor")
	if err != nil {
		return err
	}
	r.Kernel.Schedule(1, mp)
	if err := l.Install(r.Kernel, mp); err != nil {
		return err
	}
	r.Monitor = mp
	return nil
}

// Run steps the core until every loaded context halts or maxCycles pass.
// It returns the module's fault-handler failure (Module.Err), which
// halts the faulting context, or TimeoutErr when the budget runs out.
func (r *Rig) Run(maxCycles uint64) error {
	if _, err := r.RunUntil(nil, maxCycles); err != nil {
		return err
	}
	if !r.Core.Halted() {
		return r.TimeoutErr(maxCycles)
	}
	return nil
}

// RunUntil runs the core until cond holds, every loaded context halts,
// or maxCycles pass, fast-forwarding over stalls when the core's config
// enables it (cond then sees the same sequence of values it would see
// stepping every cycle; see cpu.Core.RunUntil). A nil cond runs to the
// halt or the budget. It reports whether cond held and returns the
// module's fault-handler failure (Module.Err): a failed handler halts
// the faulting context, so a halted core alone does not mean the run
// finished. An exhausted budget is not an error here; Run reports it,
// and a caller that drives the core through several RunUntil calls
// reports it with TimeoutErr.
func (r *Rig) RunUntil(cond func() bool, maxCycles uint64) (bool, error) {
	met := false
	if cond == nil {
		// Core.Run calls nothing per cycle.
		r.Core.Run(maxCycles)
	} else {
		met = r.Core.RunUntil(cond, maxCycles)
	}
	return met, r.Module.Err()
}

// TimeoutErr is the error for a run that exceeded maxCycles before
// every loaded context halted. It reports the PC and halt state of
// *every* loaded context: when the monitor context (SMT context 1) is
// the one spinning, an error naming only the victim's PC misdiagnoses
// the hang.
func (r *Rig) TimeoutErr(maxCycles uint64) error {
	var sb strings.Builder
	for i := 0; i < r.Core.Contexts(); i++ {
		ctx := r.Core.Context(i)
		if ctx.Program() == nil {
			continue
		}
		// Name the context after the process the kernel actually has
		// scheduled there: a monitor installed via kernel.Schedule
		// directly (without AddMonitor) is still reported by name, and
		// a rescheduled context 0 is not mislabelled "victim".
		name := fmt.Sprintf("ctx%d", i)
		if p, ok := r.Kernel.Running(i); ok {
			name = p.Name
		}
		state := "spinning"
		if ctx.Halted() {
			state = "halted"
		}
		fmt.Fprintf(&sb, "; %s %s at pc=%d", name, state, ctx.PC())
	}
	return fmt.Errorf("platform: run exceeded %d cycles%s", maxCycles, sb.String())
}
