// Package snapshot provides serializable, versioned whole-machine
// snapshots of the simulator: physical memory, the full
// microarchitectural state of the core (sim/cpu), the kernel's process
// and schedule tables (sim/kernel), and — when captured through an
// attack rig — the MicroScope module's replay state, mirrored here as
// plain data so the sim layer never imports the attack layer.
//
// A snapshot plus the deterministic-input record log (RDRAND draws,
// module handler decisions) makes execution replayable: Restore(snap)
// followed by Run(n) is bit-identical to the original execution
// continuing past the capture point, proved by the canonical sim/trace
// TraceHash (see attack/experiments' snapshot tests, which checkpoint
// attack/platform rigs, and docs/checkpointing.md). Machines are
// gob-encoded with a leading version; tools/snapdiff decodes two images
// and diffs them field by field.
package snapshot

import (
	"encoding/gob"
	"fmt"
	"io"

	"microscope/sim/cpu"
	"microscope/sim/kernel"
	"microscope/sim/mem"
)

// Version is the snapshot format version. Bump it when any Snap struct
// changes shape; Decode rejects mismatched versions instead of silently
// mis-restoring state. Version 2 added the Jamais Vu detector state to
// cpu.ContextSnap (JVEpoch/JVCounts). Version 3 stores the caches and
// TLBs sparsely: cache.CacheSnap.Lines and tlb.TLBSnap.Ways hold only
// the valid entries, each with its set*ways+way index, in place of one
// record per line or way of capacity; ModuleState gained Failure.
const Version = 3

// RecipeState is the serializable state of one attack recipe. The
// victim is identified by PID (process pointers are re-resolved against
// the restored kernel); the OnReplay callback is host code and cannot be
// serialized — HasCallback records that one was installed so a restoring
// caller knows to re-bind it.
type RecipeState struct {
	Name           string
	VictimPID      int
	Handle         uint64
	Pivot          uint64
	MonitorAddrs   []uint64
	WalkLevels     int
	HandlerLatency uint64
	MaxReplays     int
	HasCallback    bool

	Replays     int
	TotalFaults int
	PivotArmed  bool
}

// TimelineState is one serialized module timeline event.
type TimelineState struct {
	Cycle  uint64
	Kind   int
	Recipe string
	VA     uint64
}

// DecisionRecord is one entry of the module's nondeterministic-input
// record log: the decision taken after one intercepted fault, with the
// state the callback saw. Comparing two runs' decision logs (snapdiff)
// pinpoints the first diverging handler decision.
type DecisionRecord struct {
	Cycle       uint64
	Recipe      string
	OnPivot     bool
	Replays     int
	TotalFaults int
	Decision    int
}

// ModuleState is the serializable state of the MicroScope module.
// Failure is the first fault-handler failure, empty while none has
// occurred.
type ModuleState struct {
	Recipes       []RecipeState
	Timeline      []TimelineState
	Decisions     []DecisionRecord
	DecisionCount uint64
	Failure       string
}

// Machine is a whole-machine snapshot.
type Machine struct {
	Version int
	Phys    mem.PhysSnap
	Core    *cpu.CoreSnap
	Kernel  *kernel.KernelSnap
	// Module is the MicroScope module's state; nil when the machine was
	// captured without one (filled in by attack/platform's Rig.Checkpoint).
	Module *ModuleState
}

// Capture snapshots the simulator triple. Module state, if any, is the
// caller's to fill in.
func Capture(phys *mem.PhysMem, core *cpu.Core, k *kernel.Kernel) (*Machine, error) {
	cs, err := core.Snapshot()
	if err != nil {
		return nil, err
	}
	return &Machine{
		Version: Version,
		Phys:    phys.Snapshot(),
		Core:    cs,
		Kernel:  k.Snapshot(),
	}, nil
}

// Restore overwrites the simulator triple with the snapshot, in
// dependency order: physical memory first (the page tables live there),
// then the core's microarchitectural state, then the kernel tables,
// which also re-establish the contexts' address-space bindings. Module
// state, if present, is the caller's to restore (the module belongs to
// the attack layer).
func (m *Machine) Restore(phys *mem.PhysMem, core *cpu.Core, k *kernel.Kernel) error {
	if m.Version != Version {
		return fmt.Errorf("snapshot: version %d, this build reads %d", m.Version, Version)
	}
	if m.Core == nil || m.Kernel == nil {
		return fmt.Errorf("snapshot: incomplete machine image")
	}
	if err := phys.Restore(m.Phys); err != nil {
		return err
	}
	if err := core.Restore(m.Core); err != nil {
		return err
	}
	return k.Restore(m.Kernel)
}

// Encode writes the machine as a gob stream.
func Encode(w io.Writer, m *Machine) error {
	return gob.NewEncoder(w).Encode(m)
}

// Decode reads a machine image and checks its version.
func Decode(r io.Reader) (*Machine, error) {
	var m Machine
	if err := gob.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("snapshot: decode: %w", err)
	}
	if m.Version != Version {
		return nil, fmt.Errorf("snapshot: version %d, this build reads %d", m.Version, Version)
	}
	return &m, nil
}
