// Package microscope implements the paper's primary contribution: a
// kernel-module framework for microarchitectural replay attacks
// (Section 5). A malicious OS registers the module into the kernel's
// page-fault path; attack recipes name a replay handle (a load whose page
// the module keeps non-present), optionally a pivot on a different page,
// addresses to monitor, and an attack callback that decides after each
// replay whether to keep replaying, advance via the pivot, or release the
// victim.
//
// The module also exposes the operations of the paper's §5.2.2 (software
// page walks, page-structure flushing, TLB invalidation, cache priming
// and probing, monitor signalling) and the user API of Table 2.
package microscope

import (
	"errors"
	"fmt"

	"microscope/sim/cpu"
	"microscope/sim/kernel"
	"microscope/sim/mem"
	"microscope/sim/snapshot"
)

// Decision is an attack callback's verdict after a fault on an armed page.
type Decision int

// Decisions.
const (
	// Replay keeps the present bit clear: the victim will fault on the
	// handle again (timeline 2 of Fig. 3).
	Replay Decision = iota
	// Pivot releases the faulting page and arms the other page of the
	// handle/pivot pair, single-stepping the victim forward (§4.2.2).
	Pivot
	// Release restores the present bit and stands down: the victim makes
	// forward progress (step 6 of §4.1.4).
	Release
)

// String returns the decision name.
func (d Decision) String() string {
	switch d {
	case Replay:
		return "replay"
	case Pivot:
		return "pivot"
	case Release:
		return "release"
	}
	return fmt.Sprintf("Decision(%d)", int(d))
}

// Event describes one fault on an armed page, passed to the recipe's
// callback.
type Event struct {
	Recipe *Recipe
	// OnPivot reports whether the fault hit the pivot page rather than
	// the replay handle.
	OnPivot bool
	// Replays counts handle faults since the handle was last armed.
	Replays int
	// TotalFaults counts all faults this recipe has intercepted.
	TotalFaults int
	// Cycle is the core cycle at fault delivery.
	Cycle uint64
}

// Recipe is one attack configuration (the Attack Recipes structure of
// §5.2.1).
type Recipe struct {
	Name   string
	Victim *kernel.Process

	// Handle is the replay handle address (its page is the unit of
	// arming).
	Handle mem.Addr
	// Pivot, when non-zero, is the pivot address on a different page.
	Pivot mem.Addr
	// MonitorAddrs are victim addresses the Replayer-as-Monitor primes
	// and probes (cache-based recipes).
	MonitorAddrs []mem.Addr
	// WalkLevels tunes page-walk duration: how many page-table levels of
	// the handle's translation are served from main memory on each walk
	// (1..4; 0 means 4 — the longest, >1000-cycle walk of §4.1.2).
	WalkLevels int
	// HandlerLatency is the time the victim spends in the fault handler
	// per replay (the module's own execution time).
	HandlerLatency uint64
	// MaxReplays releases the victim after this many handle replays when
	// OnReplay is nil (a simple confidence threshold, §5.2.1).
	MaxReplays int
	// OnReplay, when set, decides after every intercepted fault.
	OnReplay func(Event) Decision

	replays     int
	totalFaults int
	pivotArmed  bool
}

// Replays returns the handle-fault count since the last arming.
func (r *Recipe) Replays() int { return r.replays }

// TotalFaults returns all faults intercepted for this recipe.
func (r *Recipe) TotalFaults() int { return r.totalFaults }

// Module is the MicroScope kernel module.
type Module struct {
	k          *kernel.Kernel
	core       *cpu.Core //simlint:snapexempt host wiring: the module snapshots recipe state only; Restore re-arms hooks through the live k/core it already holds
	recipes    []*Recipe
	unregister func() //simlint:snapexempt host wiring: hook-removal closure, recreated when Restore re-registers the fault hook
	timeline   []TimelineEvent

	// Handler-decision record log (see snapshot.go).
	decisions     []snapshot.DecisionRecord
	decisionCount uint64

	// failure is the first fault-handler step that failed (see Err).
	failure string
}

// NewModule loads the module into the kernel (registers the fault hook of
// Fig. 9 step 4).
func NewModule(k *kernel.Kernel) *Module {
	m := &Module{k: k, core: k.Core()}
	m.unregister = k.RegisterHook(m)
	return m
}

// Err returns the first failure of the module's fault handler, or nil.
// A handler that cannot re-arm or release a recipe's page (its page
// tables no longer walk, say) halts the faulting context instead of
// panicking, and records why here; platform.Rig's Run and RunUntil
// report it.
func (m *Module) Err() error {
	if m.failure == "" {
		return nil
	}
	return errors.New(m.failure)
}

// fail records a fault-handler failure and halts the faulting context.
func (m *Module) fail(step string, err error) cpu.FaultOutcome {
	if m.failure == "" {
		m.failure = fmt.Sprintf("microscope: %s failed: %v", step, err)
	}
	return cpu.FaultOutcome{Terminate: true}
}

// Unload removes the module from the kernel's fault path.
func (m *Module) Unload() { m.unregister() }

// Kernel returns the kernel the module is loaded into.
func (m *Module) Kernel() *kernel.Kernel { return m.k }

// Install registers a recipe and performs the attack setup of §4.1.1:
// flush the handle's data from the caches, clear the present bit, flush
// the four page-table entries from the cache subsystem and PWC, and
// invalidate the TLB entry.
func (m *Module) Install(r *Recipe) error {
	if r.Victim == nil {
		return fmt.Errorf("microscope: recipe %q has no victim", r.Name)
	}
	if r.Pivot != 0 && mem.PageNum(r.Pivot) == mem.PageNum(r.Handle) {
		return fmt.Errorf("microscope: pivot %#x on same page as handle %#x", r.Pivot, r.Handle)
	}
	if r.WalkLevels < 0 || r.WalkLevels > mem.Levels {
		return fmt.Errorf("microscope: walk levels %d out of range", r.WalkLevels)
	}
	if r.WalkLevels == 0 {
		r.WalkLevels = mem.Levels
	}
	if r.HandlerLatency == 0 {
		r.HandlerLatency = 5000
	}
	m.recipes = append(m.recipes, r)
	r.replays, r.totalFaults, r.pivotArmed = 0, 0, false
	if err := m.armHandle(r); err != nil {
		return err
	}
	m.record(EvSetup, r, 0)
	return nil
}

// Remove deactivates a recipe, restoring the present bits it holds clear.
func (m *Module) Remove(r *Recipe) error {
	for i, x := range m.recipes {
		if x == r {
			m.recipes = append(m.recipes[:i], m.recipes[i+1:]...)
			if _, err := r.Victim.AddressSpace().SetPresent(r.Handle, true); err != nil {
				return err
			}
			if r.Pivot != 0 {
				if _, err := r.Victim.AddressSpace().SetPresent(r.Pivot, true); err != nil {
					return err
				}
			}
			return nil
		}
	}
	return fmt.Errorf("microscope: recipe %q not installed", r.Name)
}

// armHandle performs the §4.1.1 setup for the handle page.
func (m *Module) armHandle(r *Recipe) error {
	if err := m.FlushData(r.Victim, r.Handle); err != nil {
		// The handle data may be on a not-yet-mapped page; ignore.
		_ = err
	}
	if _, err := r.Victim.AddressSpace().SetPresent(r.Handle, false); err != nil {
		return fmt.Errorf("microscope: arming handle: %w", err)
	}
	if err := m.TunePageWalk(r.Victim, r.Handle, r.WalkLevels); err != nil {
		return err
	}
	m.k.Invlpg(r.Victim, r.Handle)
	r.replays = 0
	r.pivotArmed = false
	return nil
}

// armPivot releases the handle and arms the pivot (§4.2.2).
func (m *Module) armPivot(r *Recipe) error {
	if r.Pivot == 0 {
		return fmt.Errorf("microscope: recipe %q has no pivot", r.Name)
	}
	if _, err := r.Victim.AddressSpace().SetPresent(r.Handle, true); err != nil {
		return err
	}
	if _, err := r.Victim.AddressSpace().SetPresent(r.Pivot, false); err != nil {
		return err
	}
	if err := m.TunePageWalk(r.Victim, r.Pivot, r.WalkLevels); err != nil {
		return err
	}
	m.k.Invlpg(r.Victim, r.Pivot)
	r.pivotArmed = true
	return nil
}

// HandleFault implements kernel.FaultHook: the module body of Fig. 9.
func (m *Module) HandleFault(proc *kernel.Process, f cpu.PageFault) (cpu.FaultOutcome, bool) {
	for _, r := range m.recipes {
		if r.Victim != proc {
			continue
		}
		switch {
		case mem.PageNum(f.VA) == mem.PageNum(r.Handle):
			return m.onHandleFault(r, f), true
		case r.pivotArmed && r.Pivot != 0 && mem.PageNum(f.VA) == mem.PageNum(r.Pivot):
			return m.onPivotFault(r, f), true
		}
	}
	return cpu.FaultOutcome{}, false
}

func (m *Module) onHandleFault(r *Recipe, f cpu.PageFault) cpu.FaultOutcome {
	r.replays++
	r.totalFaults++
	m.record(EvHandleFault, r, f.VA)
	d := Replay
	if r.OnReplay != nil {
		d = r.OnReplay(Event{
			Recipe:      r,
			Replays:     r.replays,
			TotalFaults: r.totalFaults,
			Cycle:       m.core.Cycle(),
		})
	} else if r.MaxReplays > 0 && r.replays >= r.MaxReplays {
		d = Release
	}
	m.logDecision(r, false, d)
	switch d {
	case Replay:
		// Keep present clear; re-flush the translation path so the next
		// walk is slow again (timeline 2 of Fig. 3).
		if err := m.TunePageWalk(r.Victim, r.Handle, r.WalkLevels); err != nil {
			return m.fail("re-arm", err)
		}
		m.record(EvReplay, r, f.VA)
	case Pivot:
		if err := m.armPivot(r); err != nil {
			return m.fail("pivot arm", err)
		}
		m.record(EvPivotArm, r, r.Pivot)
	case Release:
		if _, err := r.Victim.AddressSpace().SetPresent(r.Handle, true); err != nil {
			return m.fail("release", err)
		}
		m.record(EvRelease, r, f.VA)
	}
	return cpu.FaultOutcome{HandlerLatency: r.HandlerLatency}
}

func (m *Module) onPivotFault(r *Recipe, f cpu.PageFault) cpu.FaultOutcome {
	r.totalFaults++
	m.record(EvPivotFault, r, f.VA)
	d := Pivot
	if r.OnReplay != nil {
		d = r.OnReplay(Event{
			Recipe:      r,
			OnPivot:     true,
			Replays:     r.replays,
			TotalFaults: r.totalFaults,
			Cycle:       m.core.Cycle(),
		})
	}
	m.logDecision(r, true, d)
	switch d {
	case Replay:
		// Keep the pivot armed: replay the pivot's own window (used by
		// the AES attack to re-execute one round into a primed cache).
		if err := m.TunePageWalk(r.Victim, r.Pivot, r.WalkLevels); err != nil {
			return m.fail("pivot re-arm", err)
		}
		m.record(EvReplay, r, f.VA)
	case Pivot:
		// Swap roles back: pivot becomes present, handle re-armed. The
		// victim retires through the pivot and faults on the handle in
		// the next iteration (§4.2.2).
		if _, err := r.Victim.AddressSpace().SetPresent(r.Pivot, true); err != nil {
			return m.fail("pivot release", err)
		}
		if err := m.armHandle(r); err != nil {
			return m.fail("handle re-arm", err)
		}
		m.record(EvHandleArm, r, r.Handle)
	case Release:
		if _, err := r.Victim.AddressSpace().SetPresent(r.Pivot, true); err != nil {
			return m.fail("pivot release", err)
		}
		r.pivotArmed = false
		m.record(EvRelease, r, f.VA)
	}
	return cpu.FaultOutcome{HandlerLatency: r.HandlerLatency}
}
