// Package sanitizer implements SpecSan, an MSan/TSan-style shadow-taint
// sanitizer woven into the cycle engine through the cpu.ShadowTracker
// hooks. It maintains a taint mask per architectural register and per
// physical memory byte (stored a page at a time, only for pages that
// ever held taint), seeded from a victim layout's declared secrets,
// and propagates it cycle-accurately through rename, store-to-load
// forwarding, speculation and — crucially — squashed transient
// execution, including implicit flows from tainted branch outcomes.
//
// Whenever tainted data reaches an observable microarchitectural
// channel — an address-forming load or store (cache set/line), a
// variable-latency FP divide operand, an issue-port decision on the
// non-pipelined divider, a page walk on a tainted address — SpecSan
// emits a TransmitEvent carrying the PC, the taint atoms to blame, the
// transient-vs-retired disposition, and the analysis/sidechan channel
// label the static scanner and the verifier use, so all three analyses
// reconcile finding by finding (see Reconcile).
//
// Taint is a 64-bit atom mask: each seeded secret (a register, a memory
// region, the hardware RNG) interns one bit; bit 63 is the overflow
// atom for programs with more than 63 distinct secrets. This mirrors
// the verifier's abstract-interpretation atom table, so a dynamic
// finding's blame set is directly comparable to an abstract witness.
//
// The sanitizer is an observer: it never mutates core state, so an
// attached Sanitizer cannot change timing, results, or the trace-event
// stream (the trace-hash differential pins this down), and a detached
// one costs a nil check per hook site (the no-alloc guard pins that).
package sanitizer

import (
	"fmt"

	"microscope/analysis/sidechan"
	"microscope/analysis/static"
	"microscope/sim/cpu"
	"microscope/sim/isa"
	"microscope/sim/mem"
	"microscope/sim/pipeline"
)

// OverflowBit is the atom-mask bit taken by every secret past the 63rd
// distinct atom (the same convention as the verifier's atom table).
const OverflowBit = 63

// RandAtom is the reserved label of the hardware-RNG atom.
const RandAtom = "rand"

// Config parameterizes a sanitizer.
type Config struct {
	// TaintRdrand treats RDRAND results as secrets (their integrity is
	// what the §7.2 bias attack violates). Default on, matching
	// static.Config.TaintRdrand.
	TaintRdrand bool
}

// DefaultConfig matches the static scanner's defaults.
func DefaultConfig() Config { return Config{TaintRdrand: true} }

// pendKey identifies the not-yet-finalized transmit events of one
// dynamic instruction.
type pendKey struct {
	Ctx int
	Seq uint64
}

// pcKey identifies per-PC execution counters.
type pcKey struct {
	Ctx int
	PC  int
}

// pcStat counts how a static program point behaved dynamically; the
// reconciliation pass classifies static-only findings from these.
type pcStat struct {
	Issued    uint64 // dynamic instances that started executing
	Transient uint64 // of those, instances squashed after executing
	Tainted   uint64 // union of data|ctrl taint ever observed at issue
}

// shadowPage holds the taint masks of one physical page's bytes. A page
// is allocated on the first non-zero write to it and kept: shadow memory
// costs 32 KiB per physical page that ever held taint.
type shadowPage [mem.PageSize]uint64

// Sanitizer is the shadow-taint state machine. Attach with
// core.SetShadow(s); detach with core.SetShadow(nil).
type Sanitizer struct {
	cfg  Config
	core *cpu.Core

	// Atom interning: labels by bit index (at most OverflowBit entries;
	// every atom past that shares the overflow bit).
	labels []string
	bits   map[string]int

	regAtom   [][isa.NumRegs]uint64 // declared secret-home register atoms
	regShadow [][isa.NumRegs]uint64 // architectural shadow registers
	txCkpt    [][isa.NumRegs]uint64 // shadow-register checkpoint at txbegin

	shadowMem map[uint64]*shadowPage // physical page number -> its bytes' taint masks

	// regionTaint[ctx][pc] accumulates the taint of every tainted branch
	// whose control-dependent region contains pc. It persists after the
	// branch resolves — flow-insensitive like the static pass's ctrl set,
	// so an instruction on a secret-chosen path stays implicitly tainted
	// even when it dispatches after the branch completed.
	regionTaint []map[int]uint64

	// Per-context cache of the loaded program's branch regions
	// (static.BranchRegions), keyed by branch PC.
	regionProg []*isa.Program
	regions    []map[int][]bool

	events  []TransmitEvent
	pending map[pendKey][]int
	stats   map[pcKey]*pcStat

	randMask uint64 // interned lazily on first RDRAND taint
}

// New builds a sanitizer for core. The caller seeds secrets with
// SeedReg/SeedMemory and attaches it with core.SetShadow.
func New(core *cpu.Core, cfg Config) *Sanitizer {
	n := core.Contexts()
	return &Sanitizer{
		cfg:         cfg,
		core:        core,
		bits:        make(map[string]int),
		regAtom:     make([][isa.NumRegs]uint64, n),
		regShadow:   make([][isa.NumRegs]uint64, n),
		txCkpt:      make([][isa.NumRegs]uint64, n),
		shadowMem:   make(map[uint64]*shadowPage),
		regionTaint: makeRegionTaint(n),
		regionProg:  make([]*isa.Program, n),
		regions:     make([]map[int][]bool, n),
		pending:     make(map[pendKey][]int),
		stats:       make(map[pcKey]*pcStat),
	}
}

func makeRegionTaint(n int) []map[int]uint64 {
	rt := make([]map[int]uint64, n)
	for i := range rt {
		rt[i] = make(map[int]uint64)
	}
	return rt
}

// atomBit interns a secret label, returning its mask bit. Labels past
// the 63rd distinct atom all map to the overflow bit.
func (s *Sanitizer) atomBit(label string) uint64 {
	if i, ok := s.bits[label]; ok {
		return 1 << uint(i)
	}
	if len(s.labels) >= OverflowBit {
		return 1 << OverflowBit
	}
	i := len(s.labels)
	s.labels = append(s.labels, label)
	s.bits[label] = i
	return 1 << uint(i)
}

// AtomLabels resolves a taint mask to its secret labels, in interning
// order; a set overflow bit renders as "overflow".
func (s *Sanitizer) AtomLabels(mask uint64) []string {
	var out []string
	for i, l := range s.labels {
		if mask&(1<<uint(i)) != 0 {
			out = append(out, l)
		}
	}
	if mask&(1<<OverflowBit) != 0 {
		out = append(out, "overflow")
	}
	return out
}

// SeedReg declares register r of context ctxID a secret home: it is
// tainted now and re-tainted on every write (including immediate
// materializations — a declared secret register's MovImm immediate IS
// the secret, exactly the convention the verifier's witness runs use).
func (s *Sanitizer) SeedReg(ctxID int, r isa.Reg, label string) {
	if !r.Valid() {
		return
	}
	bit := s.atomBit(label)
	s.regAtom[ctxID][r] |= bit
	s.regShadow[ctxID][r] |= bit
}

// SeedMemory taints every byte of the virtual range [lo, hi) in the
// given address space. Shadow memory is keyed by physical address (the
// pipeline reads and writes physical), so the range must be mapped and
// present.
func (s *Sanitizer) SeedMemory(as *mem.AddressSpace, lo, hi mem.Addr, label string) error {
	bit := s.atomBit(label)
	for va := lo; va < hi; {
		leaf, _, err := as.LeafEntry(va)
		if err != nil {
			return fmt.Errorf("sanitizer: seed [%#x,%#x): %w", lo, hi, err)
		}
		if !leaf.Present() {
			return fmt.Errorf("sanitizer: seed [%#x,%#x): page at %#x not present", lo, hi, va)
		}
		pageEnd := mem.PageBase(va) + mem.PageSize
		end := hi
		if pageEnd < end {
			end = pageEnd
		}
		pg := s.page(leaf.PPN())
		for ; va < end; va++ {
			pg[mem.PageOffset(va)] |= bit
		}
	}
	return nil
}

// RandMask returns the hardware-RNG atom bit, interning it on first use.
func (s *Sanitizer) RandMask() uint64 {
	if s.randMask == 0 {
		s.randMask = s.atomBit(RandAtom)
	}
	return s.randMask
}

// RegShadow returns the architectural taint mask of register r in
// context ctxID (tests and diagnostics).
func (s *Sanitizer) RegShadow(ctxID int, r isa.Reg) uint64 {
	return s.regShadow[ctxID][r]
}

// MemShadow returns the taint mask of the physical byte at pa.
func (s *Sanitizer) MemShadow(pa mem.Addr) uint64 { return s.loadShadow(pa, 1) }

// ---------------------------------------------------------------------
// ShadowTracker hooks
// ---------------------------------------------------------------------

// ShadowDispatch captures ready-operand taint from the architectural
// shadow registers and computes the entry's implicit-flow taint from
// (a) the persistent region taint of already resolved secret branches
// and (b) older in-flight unresolved branches whose known taint and
// region cover this PC. Renamed operands (a Producer slot as
// provenance) need nothing here: the cycle engine captures the
// producer's taint into PendShadow alongside the value, and ShadowIssue
// folds it into SrcShadow — so taint becomes visible in SrcShadow at
// exactly the same points (dispatch for register-file operands, issue
// for renamed ones) as before the engine's eager operand capture.
func (s *Sanitizer) ShadowDispatch(ctx *cpu.Context, e *pipeline.Entry) {
	id := ctx.ID()
	s.ensureRegions(id, ctx.Program())
	for i, r := range e.Instr.Src {
		if r == isa.NoReg {
			continue
		}
		if e.Src[i].Producer == pipeline.NoProducer {
			e.SrcShadow[i] = s.regShadow[id][r]
		}
	}
	ctrl := s.regionTaint[id][e.PC]
	for _, b := range ctx.ROBEntries() {
		if b == e || !b.Instr.Op.IsCondBranch() {
			continue
		}
		if b.State != pipeline.StateDispatched && b.State != pipeline.StateIssued {
			continue // resolved: covered by regionTaint
		}
		t := b.SrcShadow[0] | b.SrcShadow[1] | b.CtrlShadow
		if t != 0 && s.inRegion(id, b.PC, e.PC) {
			ctrl |= t
		}
	}
	e.CtrlShadow |= ctrl
}

// ShadowIssue folds the engine-captured rename-producer taint
// (PendShadow) into SrcShadow, derives the result's taint, records a tainted
// branch's control-dependent region, and runs transmit detection — the
// entry's microarchitectural footprint (cache set, walk, port, latency)
// is fixed at issue.
func (s *Sanitizer) ShadowIssue(ctx *cpu.Context, e *pipeline.Entry, forward *pipeline.Entry) {
	id := ctx.ID()
	for i := range e.PendShadow {
		e.SrcShadow[i] |= e.PendShadow[i]
	}
	in := e.Instr
	data := e.SrcShadow[0] | e.SrcShadow[1]
	ctrl := e.CtrlShadow

	st := s.stat(id, e.PC)
	st.Issued++
	st.Tainted |= data | ctrl

	if in.Op.IsCondBranch() {
		if t := data | ctrl; t != 0 {
			s.taintRegion(ctx, e, t)
		}
	}

	sh := uint64(0)
	switch {
	case in.Op == isa.OpRdrand:
		if s.cfg.TaintRdrand {
			sh = s.RandMask()
		}
	case in.Op.IsLoad():
		if forward != nil {
			sh = forward.Shadow
		} else if !e.HasFault {
			sh = s.loadShadow(e.PhysAddr, loadWidth(in.Op))
		}
		sh |= e.SrcShadow[0] // a secret-indexed load's value is secret-derived
	case in.Op.IsStore():
		sh = e.SrcShadow[1] // the data operand is what shadow memory receives
	default:
		sh = data
	}
	if d := in.Dest; d != isa.NoReg {
		sh |= s.regAtom[id][d] // secret-home register: writes stay secret
	}
	sh |= ctrl // implicit flow: values selected by a secret path are secret
	e.Shadow = sh

	s.checkTransmit(ctx, e, data, ctrl)
}

// ShadowFaultResolved re-derives a load's taint after the mid-walk PTE
// race rescinded its fault and re-read memory (§7.2 selective replay).
func (s *Sanitizer) ShadowFaultResolved(ctx *cpu.Context, e *pipeline.Entry) {
	if !e.Instr.Op.IsLoad() {
		return
	}
	sh := s.loadShadow(e.PhysAddr, loadWidth(e.Instr.Op))
	e.Shadow |= sh
}

// ShadowRetire finalizes the entry's pending transmit events as
// architectural (retired), updates the architectural shadow registers,
// and applies committed stores to shadow memory — transient stores
// never reach it, mirroring the real store buffer.
func (s *Sanitizer) ShadowRetire(ctx *cpu.Context, e *pipeline.Entry) {
	id := ctx.ID()
	s.finalize(id, e.Seq, false)
	if d := e.Instr.Dest; d != isa.NoReg {
		s.regShadow[id][d] = e.Shadow
	}
	switch e.Instr.Op {
	case isa.OpStore, isa.OpStoreF:
		s.storeShadow(e.PhysAddr, 8, e.Shadow)
	case isa.OpStore32:
		s.storeShadow(e.PhysAddr, 4, e.Shadow)
	case isa.OpTxBegin:
		s.txCkpt[id] = s.regShadow[id]
	}
}

// ShadowSquash finalizes the entry's pending transmit events as
// transient and counts executed-then-squashed instances for the
// reconciliation pass.
func (s *Sanitizer) ShadowSquash(ctx *cpu.Context, e *pipeline.Entry) {
	id := ctx.ID()
	if e.State != pipeline.StateDispatched {
		s.stat(id, e.PC).Transient++
	}
	s.finalize(id, e.Seq, true)
}

// ShadowTxAbort rolls the architectural shadow registers back to the
// txbegin checkpoint, mirroring the core's register rollback.
func (s *Sanitizer) ShadowTxAbort(ctx *cpu.Context) {
	id := ctx.ID()
	s.regShadow[id] = s.txCkpt[id]
}

// ---------------------------------------------------------------------
// Propagation internals
// ---------------------------------------------------------------------

func loadWidth(op isa.Op) int {
	if op == isa.OpLoad32 {
		return 4
	}
	return 8
}

// page returns the shadow page of physical page ppn, allocating it.
func (s *Sanitizer) page(ppn uint64) *shadowPage {
	pg := s.shadowMem[ppn]
	if pg == nil {
		pg = new(shadowPage)
		s.shadowMem[ppn] = pg
	}
	return pg
}

// loadShadow returns the union of the taint masks of the n bytes at pa.
func (s *Sanitizer) loadShadow(pa mem.Addr, n int) uint64 {
	var m uint64
	for b := pa; b != pa+mem.Addr(n); b++ {
		if pg := s.shadowMem[mem.PageNum(b)]; pg != nil {
			m |= pg[mem.PageOffset(b)]
		}
	}
	return m
}

// storeShadow sets the taint mask of the n bytes at pa. Overwriting
// secrets with public data untaints; a public store to a page that
// never held taint allocates nothing.
func (s *Sanitizer) storeShadow(pa mem.Addr, n int, mask uint64) {
	for b := pa; b != pa+mem.Addr(n); b++ {
		pg := s.shadowMem[mem.PageNum(b)]
		if pg == nil {
			if mask == 0 {
				continue
			}
			pg = s.page(mem.PageNum(b))
		}
		pg[mem.PageOffset(b)] = mask
	}
}

func (s *Sanitizer) stat(ctxID, pc int) *pcStat {
	k := pcKey{Ctx: ctxID, PC: pc}
	st := s.stats[k]
	if st == nil {
		st = &pcStat{}
		s.stats[k] = st
	}
	return st
}

// ensureRegions (re)computes the per-branch control-dependence regions
// when the context's loaded program changes. Loading a genuinely
// different program invalidates the PC-keyed region taint; a first
// sighting (or a post-restore resync) must not clobber restored state.
func (s *Sanitizer) ensureRegions(id int, prog *isa.Program) {
	if prog == nil || prog == s.regionProg[id] {
		return
	}
	if s.regionProg[id] != nil {
		s.regionTaint[id] = make(map[int]uint64)
	}
	s.regionProg[id] = prog
	s.regions[id] = nil
	g, err := static.BuildCFG(prog)
	if err != nil {
		return // unanalyzable: inRegion falls back to conservative
	}
	rs := g.BranchRegions()
	m := make(map[int][]bool, len(rs))
	for _, r := range rs {
		m[r.PC] = r.Region
	}
	s.regions[id] = m
}

// inRegion reports whether pc is control-dependent on the branch at
// branchPC. With no region information (unanalyzable program) it is
// conservatively true.
func (s *Sanitizer) inRegion(id, branchPC, pc int) bool {
	m := s.regions[id]
	if m == nil {
		return true
	}
	region := m[branchPC]
	return region != nil && pc < len(region) && region[pc]
}

// taintRegion records a tainted branch's resolved region taint and
// back-fills younger in-flight entries in the region: entries that
// dispatched before the branch's taint was known inherit it now, and
// those that already issued get their implicit transmit events emitted
// retroactively (their footprint is already in the machine).
func (s *Sanitizer) taintRegion(ctx *cpu.Context, b *pipeline.Entry, t uint64) {
	id := ctx.ID()
	region := s.regions[id][b.PC]
	if region != nil {
		for pc, in := range region {
			if in {
				s.regionTaint[id][pc] |= t
			}
		}
	} else if s.regions[id] != nil {
		return // analyzed program, single-successor branch: no region
	}
	for _, y := range ctx.ROBEntries() {
		if y.Seq <= b.Seq {
			continue
		}
		if region != nil && !(y.PC < len(region) && region[y.PC]) {
			continue
		}
		if y.CtrlShadow&t == t {
			continue
		}
		y.CtrlShadow |= t
		if y.State == pipeline.StateDispatched {
			continue // its own issue will see the updated CtrlShadow
		}
		// Already executed: late implicit flow. Patch the result taint and
		// emit the implicit transmit the issue-time check could not see.
		y.Shadow |= t
		st := s.stat(id, y.PC)
		st.Tainted |= t
		data := y.SrcShadow[0] | y.SrcShadow[1]
		ch, implicit, ok := sidechan.Transmit(y.Instr.Op, y.SrcShadow[0] != 0, data != 0, true, s.cfg.TaintRdrand)
		if ok && implicit {
			s.emit(id, y, ch, true, t)
		}
	}
}

// checkTransmit runs the channel classifier over a freshly issued entry
// and emits a transmit event when its footprint is secret-dependent.
func (s *Sanitizer) checkTransmit(ctx *cpu.Context, e *pipeline.Entry, data, ctrl uint64) {
	op := e.Instr.Op
	ch, implicit, ok := sidechan.Transmit(op, e.SrcShadow[0] != 0, data != 0, ctrl != 0, s.cfg.TaintRdrand)
	if !ok {
		return
	}
	var taint uint64
	switch {
	case op == isa.OpRdrand:
		taint = s.RandMask() | data | ctrl
	case implicit:
		taint = ctrl
	case op.IsMem():
		taint = e.SrcShadow[0] | ctrl // the address selects the cache set
	default:
		taint = data | ctrl
	}
	s.emit(ctx.ID(), e, ch, implicit, taint)
	if sec, ok := secondaryChannel(op, ch); ok {
		s.emit(ctx.ID(), e, sec, implicit, taint)
	}
}

// emit appends a transmit event (or merges taint into a pending event
// of the same instruction, channel and flavor — late implicit
// back-fills must not duplicate). Events are born transient; retirement
// flips them architectural, so instructions squashed at run end (or
// never finalized at all) stay transient, which is the honest default
// for a replay shadow.
func (s *Sanitizer) emit(ctxID int, e *pipeline.Entry, ch sidechan.Channel, implicit bool, taint uint64) {
	k := pendKey{Ctx: ctxID, Seq: e.Seq}
	for _, i := range s.pending[k] {
		ev := &s.events[i]
		if ev.Channel == ch && ev.Implicit == implicit {
			ev.Taint |= taint
			return
		}
	}
	idx := len(s.events)
	s.events = append(s.events, TransmitEvent{
		Cycle:     s.core.Cycle(),
		Context:   ctxID,
		PC:        e.PC,
		Seq:       e.Seq,
		Instr:     s.core.Context(ctxID).Program().At(e.PC),
		Channel:   ch,
		Implicit:  implicit,
		Addr:      e.EffAddr,
		Walk:      e.WalkCycles,
		Taint:     taint,
		Transient: true,
		Replay:    -1,
	})
	s.pending[k] = append(s.pending[k], idx)
}

// finalize fixes the disposition of an instruction's pending events:
// retirement makes them architectural, a squash leaves them transient.
func (s *Sanitizer) finalize(ctxID int, seq uint64, transient bool) {
	k := pendKey{Ctx: ctxID, Seq: seq}
	idxs, ok := s.pending[k]
	if !ok {
		return
	}
	if !transient {
		for _, i := range idxs {
			s.events[i].Transient = false
		}
	}
	delete(s.pending, k)
}

// Flush drops the pending map: any instruction still in flight at run
// end never retired, so its events keep their transient disposition.
func (s *Sanitizer) Flush() {
	s.pending = make(map[pendKey][]int)
}
