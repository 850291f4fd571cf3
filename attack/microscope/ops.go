package microscope

import (
	"fmt"

	"microscope/sim/cache"
	"microscope/sim/kernel"
	"microscope/sim/mem"
)

// This file implements the attack operations of the paper's §5.2.2:
// software page walks, page-structure flushing, TLB invalidation, cache
// priming and probing (Probe), and monitor signalling through shared
// memory.

// SoftWalk locates the page-table entries required for the translation of
// va by walking the victim's page tables in software (operation 1 of
// §5.2.2). It tolerates a non-present leaf — the state an armed page is in.
func (m *Module) SoftWalk(proc *kernel.Process, va mem.Addr) ([]mem.WalkStep, error) {
	steps, err := proc.AddressSpace().Walk(va)
	if err != nil {
		var f *mem.Fault
		if asFault(err, &f) && f.Level == mem.PTE {
			return steps, nil // leaf exists but is non-present: fine
		}
		return nil, err
	}
	return steps, nil
}

func asFault(err error, target **mem.Fault) bool {
	f, ok := err.(*mem.Fault)
	if ok {
		*target = f
	}
	return ok
}

// FlushTranslationPath flushes the four page-table entries of va's
// translation from the cache hierarchy and the PWC (operation 2).
func (m *Module) FlushTranslationPath(proc *kernel.Process, va mem.Addr) error {
	steps, err := m.SoftWalk(proc, va)
	if err != nil {
		return err
	}
	for _, s := range steps {
		m.core.FlushPageStructures(s.EntryAddr)
	}
	return nil
}

// InvalidateTLB drops va's translation from every TLB level
// (operation 3).
func (m *Module) InvalidateTLB(proc *kernel.Process, va mem.Addr) {
	m.k.Invlpg(proc, va)
}

// TunePageWalk arranges the next hardware walk of va to fetch `levels`
// page-table levels from main memory and the rest from the L1 cache —
// the walk-duration tuning of §4.1.2. levels ranges from 1 (shortest
// fault-able walk: only the leaf PTE from memory) to 4 (every level from
// memory, >1000 cycles).
func (m *Module) TunePageWalk(proc *kernel.Process, va mem.Addr, levels int) error {
	if levels < 1 || levels > mem.Levels {
		return fmt.Errorf("microscope: walk levels %d out of range [1,%d]", levels, mem.Levels)
	}
	steps, err := m.SoftWalk(proc, va)
	if err != nil {
		return err
	}
	hier := m.core.Hierarchy()
	for i, s := range steps {
		if i < mem.Levels-levels {
			// Served fast: warm the entry's line into L1 and the PWC.
			hier.WarmTo(s.EntryAddr, cache.LevelL1)
			if s.Level < mem.PTE {
				m.core.PWC().Insert(s.EntryAddr, s.Level)
			}
		} else {
			// Served from memory: flush caches and PWC.
			m.core.FlushPageStructures(s.EntryAddr)
		}
	}
	m.k.Invlpg(proc, va)
	return nil
}

// FlushData flushes the cache line holding va's data (setup step 1 of
// §4.1.1: "flush from the caches the data to be accessed by the replay
// handle").
func (m *Module) FlushData(proc *kernel.Process, va mem.Addr) error {
	pa, err := m.physOf(proc, va)
	if err != nil {
		return err
	}
	m.core.Hierarchy().FlushAddr(pa)
	return nil
}

// physOf translates va with supervisor rights, tolerating a cleared
// present bit (the kernel can always compute the would-be translation).
func (m *Module) physOf(proc *kernel.Process, va mem.Addr) (mem.Addr, error) {
	e, _, err := proc.AddressSpace().LeafEntry(va)
	if err != nil {
		return 0, err
	}
	if e == 0 {
		return 0, fmt.Errorf("microscope: %#x not mapped", va)
	}
	return e.PPN()<<mem.PageShift | mem.PageOffset(va), nil
}

// Probe is the Replayer-as-Monitor's view of a fixed list of victim
// cache lines (§4.1.3): it primes them before a replay and reads back
// after it which level serves each one (operation 5 of §5.2.2, the
// prime+probe of §4.1.4 step 5). NewProbe translates every line once,
// so priming and probing between replays neither fail nor allocate.
type Probe struct {
	h   *cache.Hierarchy
	pas []mem.Addr // physical address of each line, in the order given
}

// NewProbe resolves the physical address of each victim address in vas.
// Like FlushData it tolerates a cleared present bit; a line without a
// translation fails with an error naming it.
func (m *Module) NewProbe(proc *kernel.Process, vas []mem.Addr) (*Probe, error) {
	p := &Probe{h: m.core.Hierarchy(), pas: make([]mem.Addr, len(vas))}
	for i, va := range vas {
		if i > 0 && mem.PageNum(va) == mem.PageNum(vas[i-1]) {
			// Lines of one page share its frame.
			p.pas[i] = mem.PageBase(p.pas[i-1]) | mem.PageOffset(va)
			continue
		}
		pa, err := m.physOf(proc, va)
		if err != nil {
			return nil, err
		}
		p.pas[i] = pa
	}
	return p, nil
}

// Len returns the number of lines the probe watches.
func (p *Probe) Len() int { return len(p.pas) }

// Level reports the cache level that serves line i, without changing
// any cache state.
func (p *Probe) Level(i int) cache.Level { return p.h.LevelOf(p.pas[i]) }

// Hot returns the lines among the first 64 that a cache level above
// main memory holds: bit i is set when line i is cached.
func (p *Probe) Hot() uint64 {
	var hot uint64
	for i, pa := range p.pas[:min(len(p.pas), 64)] {
		if p.h.LevelOf(pa) != cache.LevelMem {
			hot |= 1 << i
		}
	}
	return hot
}

// Flush evicts line i from every cache level.
func (p *Probe) Flush(i int) { p.h.FlushAddr(p.pas[i]) }

// FlushAll evicts every line to main memory: the prime before a replay.
func (p *Probe) FlushAll() {
	for _, pa := range p.pas {
		p.h.FlushAddr(pa)
	}
}

// Monitor signalling (operation 4 of §5.2.2): the module communicates
// with a concurrently running Monitor process through a shared-memory
// word the monitor polls.

// SignalWord is the shared-memory location the module signals through.
type SignalWord struct {
	proc *kernel.Process
	va   mem.Addr
}

// Signal values.
const (
	SignalStop  uint64 = 0
	SignalStart uint64 = 1
)

// NewSignalWord sets up a signal word at va in the monitor's address
// space (the page must be mapped).
func (m *Module) NewSignalWord(proc *kernel.Process, va mem.Addr) (*SignalWord, error) {
	if _, err := m.physOf(proc, va); err != nil {
		return nil, err
	}
	return &SignalWord{proc: proc, va: va}, nil
}

// Set writes the signal value (module side).
func (m *Module) Set(s *SignalWord, v uint64) error {
	return s.proc.AddressSpace().Write64Virt(s.va, v)
}

// Get reads the signal value.
func (m *Module) Get(s *SignalWord) (uint64, error) {
	return s.proc.AddressSpace().Read64Virt(s.va)
}

// ---------------------------------------------------------------------
// Table 2: the user-facing exploration API. A user process configures a
// pending attack through these five calls and commits it with Activate.
// ---------------------------------------------------------------------

// UserAPI is the interface of Table 2, bound to one victim process.
type UserAPI struct {
	m       *Module
	victim  *kernel.Process
	pending *Recipe
}

// User returns the Table 2 API bound to a victim.
func (m *Module) User(victim *kernel.Process) *UserAPI {
	return &UserAPI{m: m, victim: victim, pending: &Recipe{
		Name:   "user",
		Victim: victim,
	}}
}

// ProvideReplayHandle provides a replay handle (Table 2, row 1).
func (u *UserAPI) ProvideReplayHandle(addr mem.Addr) { u.pending.Handle = addr }

// ProvidePivot provides a pivot (row 2).
func (u *UserAPI) ProvidePivot(addr mem.Addr) { u.pending.Pivot = addr }

// ProvideMonitorAddr adds an address to monitor (row 3).
func (u *UserAPI) ProvideMonitorAddr(addr mem.Addr) {
	u.pending.MonitorAddrs = append(u.pending.MonitorAddrs, addr)
}

// InitiatePageWalk forces addr's next access to walk `length` page-table
// levels from memory (row 4).
func (u *UserAPI) InitiatePageWalk(addr mem.Addr, length int) error {
	return u.m.TunePageWalk(u.victim, addr, length)
}

// InitiatePageFault forces addr's next access to page-fault (row 5): it
// configures the pending recipe's walk length and installs the recipe.
func (u *UserAPI) InitiatePageFault(addr mem.Addr) error {
	u.pending.Handle = addr
	return u.Activate()
}

// Activate installs the pending recipe.
func (u *UserAPI) Activate() error {
	if u.pending.Handle == 0 {
		return fmt.Errorf("microscope: no replay handle provided")
	}
	return u.m.Install(u.pending)
}

// Recipe returns the pending/installed recipe for inspection or callback
// configuration.
func (u *UserAPI) Recipe() *Recipe { return u.pending }
