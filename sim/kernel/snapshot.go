package kernel

import (
	"fmt"
	"sort"

	"microscope/sim/mem"
)

// Snapshot support. KernelSnap is a plain-data image of the kernel's
// process, schedule, fault-log and swap tables. Maps are flattened into
// slices sorted by key so the gob encoding is deterministic (two
// snapshots of identical state are byte-identical — the property
// `microscope snapdiff` and the golden tests rely on).
//
// Fault hooks are host-side closures and are NOT serialized: after a
// restore, previously registered hooks remain registered (in-place
// restore) or must be re-registered by the caller (restore into a fresh
// kernel). The MicroScope module re-arms its own hook when its recipe
// state is restored. Countermeasure state (LEASH throttle counters,
// SIMF flush counts) IS serialized — it is simulated-machine state, not
// wiring, and a defended run's checkpoint must resume bit-identically.

// ProcessSnap is one serializable process table entry.
type ProcessSnap struct {
	PID       int
	Name      string
	Root      uint64 // PPN of the PGD (the tables live in the PhysMem image)
	PCID      uint16
	VMAs      []VMA
	EnclaveID int
}

// ScheduleSnap maps one SMT context to the PID it runs.
type ScheduleSnap struct {
	CtxID int
	PID   int
}

// SwapSnap is one swapped-out page.
type SwapSnap struct {
	PID  int
	VPN  uint64
	Data []byte
}

// LeashPageSnap is one page's recent-fault ring in the LEASH detector.
type LeashPageSnap struct {
	VPN    uint64
	Cycles []uint64
}

// LeashProcSnap is one process's LEASH detector state.
type LeashProcSnap struct {
	PID        int
	Pages      []LeashPageSnap // sorted by VPN
	Tripped    bool
	TrippedVPN uint64
	Throttled  uint64
}

// SIMFSnap is one SIMF-protected process's flush counter.
type SIMFSnap struct {
	PID     int
	Flushes uint64
}

// KernelSnap is the serializable state of the kernel.
type KernelSnap struct {
	Procs    []ProcessSnap  // sorted by PID
	Running  []ScheduleSnap // sorted by context id
	NextPID  int
	NextPCID uint16
	FaultLog []FaultRecord
	Swap     []SwapSnap // sorted by (PID, VPN)
	Evict    uint64
	SwapIns  uint64

	// Countermeasure state (PR 10): a checkpoint of a defended run must
	// carry the LEASH throttle counters and SIMF flush counts, or the
	// restored run diverges from the original — a tripped process would
	// come back untripped and replay at full rate.
	LeashOn  bool
	LeashCfg LeashConfig
	Leash    []LeashProcSnap // sorted by PID
	SIMFOn   bool
	SIMF     []SIMFSnap // sorted by PID
}

// Snapshot captures the kernel's state.
func (k *Kernel) Snapshot() *KernelSnap {
	s := &KernelSnap{
		NextPID:  k.nextPID,
		NextPCID: k.nextPCID,
		FaultLog: append([]FaultRecord(nil), k.faultLog...),
		Evict:    k.evictions,
		SwapIns:  k.swapIns,
	}
	for _, p := range k.procs {
		s.Procs = append(s.Procs, ProcessSnap{
			PID:       p.PID,
			Name:      p.Name,
			Root:      p.as.Root(),
			PCID:      p.as.PCID(),
			VMAs:      append([]VMA(nil), p.vmas...),
			EnclaveID: p.EnclaveID,
		})
	}
	sort.Slice(s.Procs, func(i, j int) bool { return s.Procs[i].PID < s.Procs[j].PID })
	for ctxID, p := range k.running {
		s.Running = append(s.Running, ScheduleSnap{CtxID: ctxID, PID: p.PID})
	}
	sort.Slice(s.Running, func(i, j int) bool { return s.Running[i].CtxID < s.Running[j].CtxID })
	for key, data := range k.swap {
		s.Swap = append(s.Swap, SwapSnap{PID: key.pid, VPN: key.vpn, Data: append([]byte(nil), data...)})
	}
	sort.Slice(s.Swap, func(i, j int) bool {
		if s.Swap[i].PID != s.Swap[j].PID {
			return s.Swap[i].PID < s.Swap[j].PID
		}
		return s.Swap[i].VPN < s.Swap[j].VPN
	})
	if k.leash != nil {
		s.LeashOn = true
		s.LeashCfg = k.leash.cfg
		for pid, st := range k.leash.procs {
			ps := LeashProcSnap{
				PID:        pid,
				Tripped:    st.tripped,
				TrippedVPN: st.trippedVPN,
				Throttled:  st.throttled,
			}
			for vpn, ring := range st.byVPN {
				ps.Pages = append(ps.Pages, LeashPageSnap{
					VPN:    vpn,
					Cycles: append([]uint64(nil), ring...),
				})
			}
			sort.Slice(ps.Pages, func(i, j int) bool { return ps.Pages[i].VPN < ps.Pages[j].VPN })
			s.Leash = append(s.Leash, ps)
		}
		sort.Slice(s.Leash, func(i, j int) bool { return s.Leash[i].PID < s.Leash[j].PID })
	}
	if k.simf != nil {
		s.SIMFOn = true
		for pid, flushes := range k.simf {
			s.SIMF = append(s.SIMF, SIMFSnap{PID: pid, Flushes: flushes})
		}
		sort.Slice(s.SIMF, func(i, j int) bool { return s.SIMF[i].PID < s.SIMF[j].PID })
	}
	return s
}

// Restore overwrites the kernel's state with a snapshot. The physical
// memory image must already have been restored (the page tables live
// there). Processes are restored in place where the PID still exists —
// the *Process pointer identity is preserved, so recipes and experiment
// rigs holding process handles keep working across a restore — and
// recreated otherwise. The core's context address-space bindings are
// re-established from the schedule table; contexts the snapshot leaves
// unscheduled are unbound.
func (k *Kernel) Restore(s *KernelSnap) error {
	procs := make(map[int]*Process, len(s.Procs))
	for _, ps := range s.Procs {
		p, ok := k.procs[ps.PID]
		if !ok {
			p = &Process{PID: ps.PID}
		}
		p.Name = ps.Name
		p.as = mem.AdoptAddressSpace(k.phys, ps.Root, ps.PCID)
		p.vmas = append(p.vmas[:0], ps.VMAs...)
		p.EnclaveID = ps.EnclaveID
		procs[ps.PID] = p
	}
	k.procs = procs
	k.running = make(map[int]*Process, len(s.Running))
	for _, r := range s.Running {
		p, ok := procs[r.PID]
		if !ok {
			return fmt.Errorf("kernel: snapshot schedules ctx%d to unknown pid %d", r.CtxID, r.PID)
		}
		if r.CtxID < 0 || r.CtxID >= k.core.Contexts() {
			return fmt.Errorf("kernel: snapshot schedules out-of-range context %d", r.CtxID)
		}
		k.running[r.CtxID] = p
		k.core.Context(r.CtxID).SetAddressSpace(p.as)
	}
	for i := 0; i < k.core.Contexts(); i++ {
		if _, ok := k.running[i]; !ok {
			k.core.Context(i).SetAddressSpace(nil)
		}
	}
	k.nextPID = s.NextPID
	k.nextPCID = s.NextPCID
	k.faultLog = append(k.faultLog[:0], s.FaultLog...)
	k.swap = nil
	if len(s.Swap) > 0 {
		k.swap = make(map[swapKey][]byte, len(s.Swap))
		for _, sw := range s.Swap {
			k.swap[swapKey{pid: sw.PID, vpn: sw.VPN}] = append([]byte(nil), sw.Data...)
		}
	}
	k.evictions = s.Evict
	k.swapIns = s.SwapIns
	k.leash = nil
	if s.LeashOn {
		k.leash = &leash{cfg: s.LeashCfg, procs: make(map[int]*leashProc, len(s.Leash))}
		for _, ps := range s.Leash {
			st := &leashProc{
				byVPN:      make(map[uint64][]uint64, len(ps.Pages)),
				tripped:    ps.Tripped,
				trippedVPN: ps.TrippedVPN,
				throttled:  ps.Throttled,
			}
			for _, pg := range ps.Pages {
				st.byVPN[pg.VPN] = append([]uint64(nil), pg.Cycles...)
			}
			k.leash.procs[ps.PID] = st
		}
	}
	k.simf = nil
	if s.SIMFOn {
		k.simf = make(map[int]uint64, len(s.SIMF))
		for _, sf := range s.SIMF {
			k.simf[sf.PID] = sf.Flushes
		}
	}
	return nil
}
