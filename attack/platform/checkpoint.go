package platform

import (
	"fmt"

	"microscope/sim/cpu"
	"microscope/sim/snapshot"
)

// Checkpoint is a restorable image of a whole Rig: the machine snapshot
// (physical memory, core microarchitecture, kernel tables) plus the
// MicroScope module's replay state and the identities of the rig's
// victim/monitor process handles. A checkpoint taken once after the
// expensive setup (New boots a 64 MB platform; victim installation
// writes the memory image) lets sweeps fork N state-identical trials
// without paying that cost N times.
type Checkpoint struct {
	Machine *snapshot.Machine
	// VictimPID/MonitorPID record which process-table entries the rig's
	// Victim/Monitor fields pointed at; Restore re-resolves the handles
	// against the restored kernel. MonitorPID is 0 when no monitor was
	// attached.
	VictimPID  int
	MonitorPID int
	// Config is the core configuration the checkpointed rig was built
	// with; Boot assembles fresh forks from it. Structural fields must
	// match the snapshot (Core.Restore checks); timing fields may be
	// overridden per fork via Core.UpdateTiming.
	Config cpu.Config
}

// Checkpoint captures the rig's complete state. The rig stays live and
// unmodified; the returned image shares no mutable state with it.
func (r *Rig) Checkpoint() (*Checkpoint, error) {
	m, err := snapshot.Capture(r.Phys, r.Core, r.Kernel)
	if err != nil {
		return nil, err
	}
	m.Module = r.Module.Snapshot()
	cp := &Checkpoint{Machine: m, VictimPID: r.Victim.PID, Config: r.Core.Config()}
	if r.Monitor != nil {
		cp.MonitorPID = r.Monitor.PID
	}
	return cp, nil
}

// Restore overwrites the rig's whole machine and module state with the
// checkpoint and re-resolves the Victim/Monitor handles by PID. Recipes
// whose snapshot records an OnReplay callback come back with a nil one;
// the caller re-binds them via r.Module.Recipe(name).
func (r *Rig) Restore(cp *Checkpoint) error {
	if err := cp.Machine.Restore(r.Phys, r.Core, r.Kernel); err != nil {
		return err
	}
	if cp.Machine.Module != nil {
		if err := r.Module.Restore(cp.Machine.Module); err != nil {
			return err
		}
	}
	vp, ok := r.Kernel.Process(cp.VictimPID)
	if !ok {
		return fmt.Errorf("platform: checkpoint victim pid %d missing from restored process table", cp.VictimPID)
	}
	r.Victim = vp
	r.Monitor = nil
	if cp.MonitorPID != 0 {
		mp, ok := r.Kernel.Process(cp.MonitorPID)
		if !ok {
			return fmt.Errorf("platform: checkpoint monitor pid %d missing from restored process table", cp.MonitorPID)
		}
		r.Monitor = mp
	}
	return nil
}

// Boot assembles a fresh rig (its own PhysMem/Core/Kernel/Module) and
// restores the checkpoint into it.
func (cp *Checkpoint) Boot() (*Rig, error) {
	rig, err := New(cp.Config)
	if err != nil {
		return nil, err
	}
	if err := rig.Restore(cp); err != nil {
		return nil, err
	}
	return rig, nil
}

// Fork checkpoints the rig and boots an independent copy: same memory
// image, same microarchitectural state, same module state, sharing
// nothing mutable with the original. Callbacks are not copied (see
// Restore). For many forks of one state, take one Checkpoint and Boot
// it repeatedly instead.
func (r *Rig) Fork() (*Rig, error) {
	cp, err := r.Checkpoint()
	if err != nil {
		return nil, err
	}
	return cp.Boot()
}
