package cpu

import (
	"fmt"
	"math"
	"math/bits"

	"microscope/sim/cache"
	"microscope/sim/isa"
	"microscope/sim/mem"
	"microscope/sim/pipeline"
	"microscope/sim/tlb"
)

// PageFault describes a precise page-fault exception delivered to the
// fault handler. The handler (the OS — honest or malicious) sees the
// faulting virtual address, as SGX reveals the VPN of enclave faults to
// the OS (§2.3).
type PageFault struct {
	Context int
	PC      int
	VA      mem.Addr
	Write   bool
	Level   mem.Level // page-table level at which the walk failed
	Instr   isa.Instr
}

// FaultOutcome tells the core how to resume after the handler returns.
// The core always resumes at the faulting instruction (precise exception
// semantics) unless Terminate is set.
type FaultOutcome struct {
	// HandlerLatency is the number of cycles the faulting context spends
	// in the kernel before re-fetching the faulting instruction. Other
	// SMT contexts keep running during this time — which is when the
	// paper's free-running Monitor takes most of its samples (§6.1).
	HandlerLatency uint64
	// Terminate halts the context (unrecoverable fault).
	Terminate bool
}

// FaultHandler services page faults. The kernel package provides the
// standard implementation; MicroScope hooks into it.
type FaultHandler interface {
	HandlePageFault(f PageFault) FaultOutcome
}

// FaultHandlerFunc adapts a function to the FaultHandler interface.
type FaultHandlerFunc func(f PageFault) FaultOutcome

// HandlePageFault implements FaultHandler.
func (fn FaultHandlerFunc) HandlePageFault(f PageFault) FaultOutcome { return fn(f) }

// EventKind classifies tracer events.
type EventKind int

// Tracer event kinds.
const (
	EvFetch EventKind = iota
	EvIssue
	EvComplete
	EvRetire
	EvSquash
	EvFault
	EvTxAbort
)

// String returns the event name.
func (k EventKind) String() string {
	switch k {
	case EvFetch:
		return "fetch"
	case EvIssue:
		return "issue"
	case EvComplete:
		return "complete"
	case EvRetire:
		return "retire"
	case EvSquash:
		return "squash"
	case EvFault:
		return "fault"
	case EvTxAbort:
		return "txabort"
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// Event is one pipeline event, delivered to an attached Tracer. Seq is
// the global dispatch sequence number of the dynamic instruction the
// event belongs to, so consumers can correlate the fetch/issue/complete/
// retire events of one instruction exactly instead of guessing by PC
// (zero for events with no associated ROB entry, e.g. EvTxAbort). Walk
// carries the page-walk duration observed by a memory access on
// EvIssue/EvComplete/EvFault (zero on a TLB hit or for non-memory ops).
// Port is the execution port the instruction issued on, valid on
// EvIssue only (zero otherwise). Addr is the effective virtual address
// of a memory access on EvIssue/EvComplete and the faulting virtual
// address on EvFault (zero for non-memory ops and other kinds); the
// sim/trace channel projections derive cache-set footprints from it.
//
// The zero-extended field set is the canonical event identity: the
// sim/trace Hasher folds every field below into the stream hash.
type Event struct {
	Cycle   uint64
	Context int
	Kind    EventKind
	PC      int
	Seq     uint64
	Instr   isa.Instr
	Walk    int
	Port    pipeline.Port
	Addr    mem.Addr
	Detail  string
}

// Tracer observes pipeline events (used by the Fig. 3 timeline tool and
// by white-box tests).
type Tracer interface {
	Trace(Event)
}

// TracerFunc adapts a function to the Tracer interface.
type TracerFunc func(Event)

// Trace implements Tracer.
func (f TracerFunc) Trace(ev Event) { f(ev) }

// Core is one simulated physical core with SMT contexts.
type Core struct {
	cfg  Config
	phys *mem.PhysMem //simlint:snapexempt shared wiring: physical memory has its own Snapshot/Restore pair, which sim/snapshot runs before the core's
	hier *cache.Hierarchy
	pwc  *cache.PWC
	tlbs *tlb.Unit

	contexts []*Context
	ports    pipeline.PortSet

	cycle uint64
	seq   uint64

	// Halted-context bookkeeping: nLoaded counts contexts with a program,
	// nHalted those of them that have halted. Maintained by Context.load
	// and ctxHalt so Halted() is O(1) instead of a per-Run-iteration scan.
	nLoaded int
	nHalted int

	// skipped counts cycles fast-forwarded over (see Config.FastForward).
	skipped uint64

	faultHandler FaultHandler //simlint:snapexempt host wiring: handlers are host closures, re-registered by the owner after a restore (see snapshot.go doc)
	tracer       Tracer       //simlint:snapexempt host wiring: tracers are host observers, re-registered by the owner after a restore
	shadow       ShadowTracker

	rngState    uint64
	jitterCount uint64

	// Nondeterministic-input record log (see snapshot.go): every RDRAND
	// draw delivered to software, bounded by rdrandLogCap. The RNG itself
	// is a deterministic function of rngState, so the log adds no
	// information to a snapshot — it exists so `microscope snapdiff` can
	// show *which* draws two diverging runs disagreed on.
	rdrandDraws uint64
	rdrandLog   []uint64
}

// NewCore builds a core over the given physical memory. It panics on an
// invalid cfg: check a config that comes from outside the program with
// Config.Validate first, as platform.New does.
func NewCore(cfg Config, phys *mem.PhysMem) *Core {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Core{
		cfg:      cfg,
		phys:     phys,
		hier:     cache.NewHierarchy(cfg.Hierarchy),
		pwc:      cache.NewPWC(cfg.PWCSize),
		tlbs:     tlb.NewUnit(),
		rngState: isa.RandState(cfg.RandSeed),
	}
	for i := 0; i < cfg.Contexts; i++ {
		ctx := &Context{
			id:    i,
			core:  c,
			rob:   pipeline.NewROB(cfg.ROBSize),
			bp:    pipeline.NewPredictor(cfg.BranchPredictorBits),
			sched: schedState{size: cfg.ROBSize},
		}
		ctx.clearRAT()
		c.contexts = append(c.contexts, ctx)
	}
	return c
}

// Config returns the core's configuration.
func (c *Core) Config() Config { return c.cfg }

// SetRandSeed re-seeds the RDRAND source: the RNG state and
// Config().RandSeed become what NewCore gives a core whose
// Config.RandSeed is seed. Restore rewrites the RNG state from the image,
// so a run forked from a shared checkpoint takes its own seed this way.
// The RDRAND record log (RdrandLog) is left as it is.
func (c *Core) SetRandSeed(seed uint64) {
	c.cfg.RandSeed = seed
	c.rngState = isa.RandState(seed)
}

// Phys returns the physical memory.
func (c *Core) Phys() *mem.PhysMem { return c.phys }

// Hierarchy returns the cache subsystem.
func (c *Core) Hierarchy() *cache.Hierarchy { return c.hier }

// PWC returns the page-walk cache.
func (c *Core) PWC() *cache.PWC { return c.pwc }

// TLBs returns the TLB complex.
func (c *Core) TLBs() *tlb.Unit { return c.tlbs }

// Context returns SMT context i.
func (c *Core) Context(i int) *Context { return c.contexts[i] }

// Contexts returns the number of SMT contexts.
func (c *Core) Contexts() int { return len(c.contexts) }

// Cycle returns the current cycle count.
func (c *Core) Cycle() uint64 { return c.cycle }

// Ports exposes the shared execution-port state (diagnostics).
func (c *Core) Ports() *pipeline.PortSet { return &c.ports }

// SetFaultHandler installs the page-fault handler.
func (c *Core) SetFaultHandler(h FaultHandler) { c.faultHandler = h }

// SetTracer attaches a pipeline tracer (nil detaches).
func (c *Core) SetTracer(t Tracer) { c.tracer = t }

func (c *Core) trace(ev Event) {
	if c.tracer != nil {
		ev.Cycle = c.cycle
		c.tracer.Trace(ev)
	}
}

// FlushPageStructures removes the cached state MicroScope scrubs during
// attack setup: the line holding a page-table entry from all cache levels
// and from the PWC.
func (c *Core) FlushPageStructures(entryAddr mem.Addr) {
	c.hier.FlushAddr(entryAddr)
	c.pwc.Flush(entryAddr)
}

// FlushMicroarch is the SIMF single-instruction multi-flush: it scrubs
// every shared structure a transient window leaves a footprint in — the
// whole cache hierarchy, all TLB levels, the page-walk cache — plus the
// given context's branch predictor. The kernel invokes it on the fault
// path of a SIMF-protected process (the enclave's exception exit runs
// before the untrusted handler), so by the time the OS — or a prime+
// probe attacker riding its handler — looks, the structures are cold.
// Execution-port contention is untouched: SIMF flushes state, not
// occupancy, which is exactly the residual channel the tournament's
// port victims still leak through.
func (c *Core) FlushMicroarch(ctxID int) {
	c.hier.FlushAll()
	c.tlbs.FlushAll()
	c.pwc.FlushAll()
	c.contexts[ctxID].bp.Flush()
}

// rdrand returns the next value of the deterministic hardware RNG
// (isa.RandNext).
func (c *Core) rdrand() uint64 {
	var v uint64
	c.rngState, v = isa.RandNext(c.rngState)
	c.rdrandDraws++
	if len(c.rdrandLog) < rdrandLogCap {
		c.rdrandLog = append(c.rdrandLog, v)
	}
	return v
}

// rdrandLogCap bounds the RDRAND record log: enough to cover every
// builtin experiment's draws while keeping long fuzz runs from growing a
// snapshot without bound. Draws past the cap are still counted in
// rdrandDraws.
const rdrandLogCap = 4096

// RdrandLog returns the recorded RDRAND draws (up to rdrandLogCap) and
// the total number of draws delivered.
func (c *Core) RdrandLog() ([]uint64, uint64) { return c.rdrandLog, c.rdrandDraws }

// Halted reports whether every context with a loaded program has halted.
func (c *Core) Halted() bool { return c.nHalted == c.nLoaded }

// SkippedCycles returns the total simulated cycles the fast-forward
// engine jumped over (all of them provably dead for every context).
func (c *Core) SkippedCycles() uint64 { return c.skipped }

// MemoStats is the counter set of the replay splice cache, which was
// removed because it cost more host time than it saved. Only the
// benchmark probe (bench/probe_test.go) still reads it, for its memo.*
// per-layer metrics; the benchmark change that drops those metrics
// deletes this type and Core.MemoStats.
type MemoStats struct {
	Hits          uint64
	Misses        uint64
	SplicedCycles uint64
}

// MemoStats returns the zero value: nothing is memoized.
func (c *Core) MemoStats() MemoStats { return MemoStats{} }

// ctxHalt halts a context, maintaining the halted-context counter. Every
// site that sets Context.halted goes through here.
func (c *Core) ctxHalt(ctx *Context) {
	if !ctx.halted {
		ctx.halted = true
		c.nHalted++
	}
	ctx.fetchHalted = true
}

// Step advances the core by exactly one cycle. It never fast-forwards:
// external drivers that interleave their own actions with Step (SGX-Step
// style preemption loops, the Fig. 9 bench) keep cycle-by-cycle control.
func (c *Core) Step() {
	c.cycle++
	c.ports.NewCycle(c.cycle)
	c.complete()
	c.retire()
	c.issue()
	c.fetch()
}

// Run steps until all contexts halt or maxCycles elapse, returning the
// number of cycles advanced (stepped or fast-forwarded).
func (c *Core) Run(maxCycles uint64) uint64 {
	start := c.cycle
	for !c.Halted() && c.cycle-start < maxCycles {
		c.fastForward(start, maxCycles)
		if c.cycle-start >= maxCycles {
			break
		}
		c.Step()
	}
	return c.cycle - start
}

// RunUntil steps until cond returns true or maxCycles elapse, reporting
// whether cond was met. With Config.FastForward enabled, cond is only
// evaluated at cycles where the pipeline can make progress (skipped
// cycles are exact no-ops, so a cond that reads simulated state sees the
// same sequence of values; a cond keyed directly off Cycle() should run
// with fast-forward disabled).
func (c *Core) RunUntil(cond func() bool, maxCycles uint64) bool {
	start := c.cycle
	for c.cycle-start < maxCycles {
		if cond() {
			return true
		}
		if c.Halted() {
			return cond()
		}
		c.fastForward(start, maxCycles)
		if c.cycle-start >= maxCycles {
			break
		}
		c.Step()
	}
	return cond()
}

// fastForward jumps the cycle counter to just before the earliest cycle
// at which any context can fetch, issue, complete or retire, clamped so
// the landing Step stays within the caller's cycle budget. The skipped
// cycles are provably no-ops: every context is stalled, halted, quiesced
// waiting on a known future completion/divider-free/stall-expiry cycle,
// or permanently inert — so jumping preserves exact cycle-accurate
// semantics (same retirement cycles, rdtsc values, fault timing, traces).
func (c *Core) fastForward(start, maxCycles uint64) {
	if !c.cfg.FastForward {
		return
	}
	x := c.cycle + 1 // the cycle the next Step would execute
	next := c.nextEventAt(x)
	if next <= x {
		return
	}
	// Leave one cycle of budget for the landing Step.
	maxSkip := maxCycles - (c.cycle - start) - 1
	skip := next - x
	if next == neverCycle || skip > maxSkip {
		skip = maxSkip
	}
	if skip == 0 {
		return
	}
	c.cycle += skip
	c.skipped += skip
	for _, ctx := range c.contexts {
		if ctx.prog != nil {
			ctx.stats.SkippedCycles += skip
		}
	}
}

// nextEventAt returns the earliest cycle >= x at which any pipeline stage
// could act for any context, or neverCycle when no future event is
// scheduled. A return of x means some context can act immediately and no
// cycles may be skipped.
func (c *Core) nextEventAt(x uint64) uint64 {
	next := neverCycle
	for _, ctx := range c.contexts {
		e := c.ctxNextEventAt(ctx, x)
		if e <= x {
			return x
		}
		if e < next {
			next = e
		}
	}
	return next
}

// ctxNextEventAt computes one context's earliest possible-action cycle
// >= x. It mirrors the per-stage gating conditions exactly; when in
// doubt it returns x (conservative: an extra live Step is always
// correct, a missed event never is).
func (c *Core) ctxNextEventAt(ctx *Context, x uint64) uint64 {
	if ctx.prog == nil {
		return neverCycle
	}
	next := neverCycle
	// Complete stage: runs even for stalled or halted contexts.
	if ctx.nIssued > 0 {
		if ctx.nextCompleteAt <= x {
			return x
		}
		next = ctx.nextCompleteAt
	}
	if ctx.halted {
		return next
	}
	// Retire stage: a completed or faulted head retires/delivers now
	// (retire is not gated on stalls).
	if h := ctx.rob.Head(); h != nil &&
		(h.State == pipeline.StateCompleted || h.State == pipeline.StateFaulted) {
		return x
	}
	if x < ctx.stallUntil {
		// Fetch and issue resume when the handler stall expires — unless
		// the context has nothing to resume to (ran off the end with an
		// empty pipeline).
		if !ctx.fetchHalted || ctx.rob.Len() > 0 {
			if ctx.stallUntil < next {
				next = ctx.stallUntil
			}
		}
		return next
	}
	// Issue stage: a pending scan may find work now; a quiesced context
	// wakes at its recorded retry cycle (divider-free time) or via an
	// explicit wakeIssue from the event that unblocks it.
	if ctx.nDispatched > 0 {
		if ctx.issueSleepUntil <= x {
			return x
		}
		if ctx.issueSleepUntil < next {
			next = ctx.issueSleepUntil
		}
	}
	// Fetch stage.
	if !ctx.fetchHalted && !ctx.rob.Full() && ctx.nFences == 0 &&
		!(ctx.serialize && ctx.rob.Len() > 0) {
		return x
	}
	return next
}

// ---------------------------------------------------------------------
// Complete stage
// ---------------------------------------------------------------------

func (c *Core) complete() {
	for _, ctx := range c.contexts {
		if ctx.nIssued == 0 {
			ctx.nextCompleteAt = neverCycle
			continue
		}
		// Nothing in flight finishes before nextCompleteAt; skip the walk.
		if c.cycle < ctx.nextCompleteAt {
			continue
		}
		// Pop the due completions off the heap (dropping stale nodes a
		// mid-batch rebuild orphaned). The batch lives in a per-context
		// scratch slice — allocating it fresh every cycle was a top
		// hot-loop allocation.
		s := &ctx.sched
		done := ctx.doneScratch[:0]
		for len(s.heap) > 0 {
			top := s.heap[0]
			e := ctx.rob.BySlot(top.slot)
			if e.State != pipeline.StateIssued || e.Seq != top.seq {
				s.heapPop() // stale
				continue
			}
			if top.at > c.cycle {
				break
			}
			s.heapPop()
			done = append(done, e)
		}
		ctx.doneScratch = done
		// The clean heap minimum is the exact earliest still-pending
		// completion. A mid-batch squash may remove pending issued
		// entries; recount then recomputes nextCompleteAt exactly, and
		// this (a superset minimum) can only be early, never late — so it
		// stays a sound lower bound either way.
		if len(s.heap) > 0 {
			ctx.nextCompleteAt = s.heap[0].at
		} else {
			ctx.nextCompleteAt = neverCycle
		}
		if len(done) > 0 {
			ctx.wakeIssue() // completions can make consumers issuable
		}
		// Process in seq (program) order, as the ROB walk did. The heap
		// yields (at, seq) order, which is seq order whenever the due set
		// shares one completion cycle — the insertion sort is insurance
		// for restored images with already-overdue completions.
		for i := 1; i < len(done); i++ {
			for j := i; j > 0 && done[j-1].Seq > done[j].Seq; j-- {
				done[j-1], done[j] = done[j], done[j-1]
			}
		}
		for _, e := range done {
			if e.State != pipeline.StateIssued {
				continue // squashed by an older branch this same cycle
			}
			ctx.nIssued--
			if e.HasFault && c.recheckFault(ctx, e) {
				// The PTE became present before the walk concluded.
				e.HasFault, e.Fault = false, mem.Fault{}
				if c.shadow != nil {
					c.shadow.ShadowFaultResolved(ctx, e)
				}
			}
			if e.HasFault {
				e.State = pipeline.StateFaulted
			} else {
				e.State = pipeline.StateCompleted
				// Wake consumers now: a later squash in this same batch
				// rebuilds from the captured flags, and a completed
				// producer never broadcasts again.
				ctx.broadcast(e)
			}
			if c.tracer != nil {
				c.trace(Event{Context: ctx.id, Kind: EvComplete, PC: e.PC, Seq: e.Seq,
					Instr: ctx.prog.At(e.PC), Walk: e.WalkCycles, Addr: e.EffAddr})
			}
			if e.Instr.Op.IsCondBranch() {
				ctx.bp.Update(e.PC, e.ActualPC == e.Instr.Target, e.Instr.Target)
			}
			if e.Mispredicted {
				ctx.bp.RecordMispredict()
				ctx.stats.Mispredicts++
				ctx.squashYounger(e.Seq)
				ctx.fetchPC = e.ActualPC
				if c.cfg.FenceAfterFlush {
					ctx.serialize = true
				}
				if c.tracer != nil {
					c.trace(Event{Context: ctx.id, Kind: EvSquash, PC: e.PC, Seq: e.Seq,
						Instr: ctx.prog.At(e.PC), Detail: "branch mispredict"})
				}
			}
		}
	}
}

// recheckFault re-reads the page tables when a walked memory access
// completes with a pending fault. The hardware walker only consumes the
// leaf PTE at the *end* of the walk, so supervisor software that sets the
// present bit mid-walk wins the race and the access completes normally —
// the §7.2 mechanism behind the selective-replay RDRAND bias attack. It
// reports whether the fault was resolved, fixing up the entry's result.
func (c *Core) recheckFault(ctx *Context, e *pipeline.Entry) bool {
	if !e.Instr.Op.IsMem() || e.WalkCycles == 0 || ctx.as == nil {
		return false
	}
	leaf, _, err := ctx.as.LeafEntry(e.EffAddr)
	if err != nil || !leaf.Present() {
		return false
	}
	if e.Fault.Write && !leaf.Writable() {
		return false
	}
	pa := leaf.PPN()<<mem.PageShift | mem.PageOffset(e.EffAddr)
	if pa+8 > c.phys.Size() {
		return false
	}
	c.tlbs.InsertData(tlb.Translation{
		VPN:   mem.PageNum(e.EffAddr),
		PPN:   leaf.PPN(),
		PCID:  ctx.as.PCID(),
		Flags: tlb.FlagsFromEntry(leaf),
	})
	e.PhysAddr = pa
	if e.Instr.Class == pipeline.ClassLoad {
		if !c.cfg.InvisibleSpeculation {
			c.hier.Access(pa)
		}
		if e.Instr.Op == isa.OpLoad32 {
			e.Result = uint64(c.phys.Read32(pa))
		} else {
			e.Result = c.phys.Read64(pa)
		}
	}
	return true
}

// ---------------------------------------------------------------------
// Retire stage
// ---------------------------------------------------------------------

func (c *Core) retire() {
	for _, ctx := range c.contexts {
	retireLoop:
		for n := 0; n < c.cfg.RetireWidth; n++ {
			head := ctx.rob.Head()
			if head == nil || ctx.halted {
				break
			}
			switch head.State {
			case pipeline.StateCompleted:
				ctx.rob.PopHead()
				ctx.sched.popMemOp(head)
				ctx.wakeIssue() // head changed: a waiting rdtsc may now issue
				c.commit(ctx, head)
			case pipeline.StateFaulted:
				c.deliverFault(ctx, head)
				break retireLoop // whole pipeline flushed
			default:
				break retireLoop // head not done; stall
			}
		}
	}
}

// commit applies the architectural effects of a completed instruction.
func (c *Core) commit(ctx *Context, e *pipeline.Entry) {
	e.State = pipeline.StateRetired
	ctx.serialize = false // first post-flush retirement lifts the fence
	c.jvRetire(ctx, e.PC) // forward progress at this PC: not a replay
	ctx.stats.Retired++
	if c.tracer != nil {
		c.trace(Event{Context: ctx.id, Kind: EvRetire, PC: e.PC, Seq: e.Seq, Instr: ctx.prog.At(e.PC)})
	}
	if c.shadow != nil {
		// Before architectural effects: an OpTxAbort below fires
		// ShadowTxAbort after the retire hook checkpointed/updated state.
		c.shadow.ShadowRetire(ctx, e)
	}

	if d := e.Instr.Dest; d != isa.NoReg {
		ctx.regs[d] = e.Result
		if ctx.rat[d] == e.Slot {
			ctx.rat[d] = pipeline.NoProducer
		}
	}

	if ctx.isFenceActing(e.Instr.Op) {
		ctx.nFences--
	}

	if c.cfg.InvisibleSpeculation && e.Instr.Class == pipeline.ClassLoad && e.PhysAddr != 0 {
		c.hier.Access(e.PhysAddr) // deferred fill of the retired load
	}

	switch e.Instr.Op {
	case isa.OpStore, isa.OpStoreF:
		// The store's write becomes visible at commit.
		c.phys.Write64(e.PhysAddr, e.Src[1].Value)
		c.hier.Access(e.PhysAddr)
		c.trackTxWrite(ctx, e.PhysAddr)
	case isa.OpStore32:
		c.phys.Write32(e.PhysAddr, uint32(e.Src[1].Value))
		c.hier.Access(e.PhysAddr)
		c.trackTxWrite(ctx, e.PhysAddr)
	case isa.OpHalt:
		c.ctxHalt(ctx)
	case isa.OpTxBegin:
		ctx.inTx = true
		ctx.txCheckpoint = ctx.regs
		ctx.txAbortPC = e.Instr.Target
		ctx.txWriteSet = make(map[mem.Addr]struct{})
	case isa.OpTxEnd:
		ctx.inTx = false
		ctx.txWriteSet = nil
	case isa.OpTxAbort:
		c.abortTx(ctx, "explicit txabort")
	}
}

// trackTxWrite records a committed store's cache line in the write set
// of an active transaction.
func (c *Core) trackTxWrite(ctx *Context, pa mem.Addr) {
	if ctx.inTx && ctx.txWriteSet != nil {
		ctx.txWriteSet[pa&^63] = struct{}{}
	}
}

// EvictLine flushes a physical line from the cache hierarchy AND aborts
// any transaction whose write set contains it — the attacker-controlled
// TSX abort trigger of §7.1. It reports whether a transaction aborted.
func (c *Core) EvictLine(pa mem.Addr) bool {
	c.hier.FlushAddr(pa)
	line := pa &^ 63
	aborted := false
	for _, ctx := range c.contexts {
		if ctx.inTx && ctx.txWriteSet != nil {
			if _, ok := ctx.txWriteSet[line]; ok {
				c.abortTx(ctx, "write-set eviction")
				aborted = true
			}
		}
	}
	return aborted
}

// abortTx rolls the context back to its transaction checkpoint and
// redirects fetch to the abort handler. isa.AbortReg receives the cumulative
// abort count, letting handlers implement T-SGX-style thresholds.
func (c *Core) abortTx(ctx *Context, reason string) {
	if !ctx.inTx {
		return
	}
	ctx.stats.TxAborts++
	ctx.squashAll()
	ctx.regs = ctx.txCheckpoint
	ctx.regs[isa.AbortReg] = ctx.stats.TxAborts
	ctx.fetchPC = ctx.txAbortPC
	ctx.inTx = false
	ctx.txWriteSet = nil
	if c.shadow != nil {
		c.shadow.ShadowTxAbort(ctx)
	}
	c.trace(Event{Context: ctx.id, Kind: EvTxAbort, PC: ctx.txAbortPC, Detail: reason})
}

// Preempt delivers a precise external interrupt to a context: in-flight
// work is squashed, the context spends handlerLatency cycles in the
// (simulated) kernel, and execution resumes at the oldest unretired
// instruction. This is the timer-interrupt primitive SGX-Step-style
// attacks [57] use to single-step a victim — one of the noisy baselines
// of Table 1.
func (c *Core) Preempt(ctxID int, handlerLatency uint64) {
	ctx := c.contexts[ctxID]
	if ctx.inTx {
		// An interrupt aborts a transaction, as on real TSX.
		c.abortTx(ctx, "interrupt")
		ctx.stallUntil = c.cycle + handlerLatency
		ctx.stats.StallCycles += handlerLatency
		return
	}
	if head := ctx.rob.Head(); head != nil {
		ctx.fetchPC = head.PC
	}
	// Seq 0 marks a whole-pipeline flush: everything in flight is younger.
	if c.tracer != nil && ctx.rob.Len() > 0 {
		c.trace(Event{Context: ctx.id, Kind: EvSquash, PC: ctx.fetchPC, Detail: "preempt"})
	}
	ctx.squashAll()
	if c.cfg.FenceAfterFlush {
		ctx.serialize = true
	}
	ctx.stallUntil = c.cycle + handlerLatency
	ctx.stats.StallCycles += handlerLatency
}

// AbortTx aborts the context's transaction from outside the pipeline
// (attacker-induced: write-set eviction, interrupt, ...). It reports
// whether a transaction was active.
func (c *Core) AbortTx(ctxID int, reason string) bool {
	ctx := c.contexts[ctxID]
	if !ctx.inTx {
		return false
	}
	c.abortTx(ctx, reason)
	return true
}

// deliverFault implements precise exception delivery: squash everything,
// run the (simulated) OS handler, stall for its latency, and resume at the
// faulting instruction.
func (c *Core) deliverFault(ctx *Context, e *pipeline.Entry) {
	// A fault inside a transaction aborts the transaction instead of
	// trapping to the OS — the TSX behaviour T-SGX builds on (§8). The
	// Jamais Vu detector still counts it: the faulting PC is flushed
	// without retiring whether the flush traps or aborts, and hiding
	// faults from the OS is exactly the evasion the hardware counters
	// exist to catch.
	if ctx.inTx {
		c.jvFault(ctx, e.PC)
		var reason string // only the trace reads it
		if c.tracer != nil {
			reason = fmt.Sprintf("page fault in tx at pc=%d", e.PC)
		}
		c.abortTx(ctx, reason)
		return
	}

	ctx.stats.PageFaults++
	c.jvFault(ctx, e.PC)
	ctx.squashAll()
	ctx.fetchPC = e.PC
	if c.cfg.FenceAfterFlush {
		ctx.serialize = true
	}

	f := e.Fault
	if !e.HasFault {
		// Faulted without a fault: only a restored image can say so.
		f = mem.Fault{VA: e.EffAddr, Level: mem.PTE}
	}
	pf := PageFault{
		Context: ctx.id,
		PC:      e.PC,
		VA:      f.VA,
		Write:   f.Write,
		Level:   f.Level,
		Instr:   ctx.prog.At(e.PC),
	}
	if c.tracer != nil {
		c.trace(Event{Context: ctx.id, Kind: EvFault, PC: e.PC, Seq: e.Seq, Instr: pf.Instr,
			Walk: e.WalkCycles, Addr: f.VA, Detail: f.Error()})
	}

	if c.faultHandler == nil {
		c.ctxHalt(ctx)
		return
	}
	out := c.faultHandler.HandlePageFault(pf)
	if out.Terminate {
		c.ctxHalt(ctx)
		return
	}
	ctx.stallUntil = c.cycle + out.HandlerLatency
	ctx.stats.StallCycles += out.HandlerLatency
}

// ---------------------------------------------------------------------
// Issue stage
// ---------------------------------------------------------------------

func (c *Core) issue() {
	budget := c.cfg.IssueWidth
	// Alternate context priority cycle by cycle for SMT fairness. The
	// rotation wraps by compare, not modulo: the divide showed up in
	// profiles at two-digit percent on port-contention workloads.
	n := len(c.contexts)
	idx := int(c.cycle % uint64(n))
	for i := 0; i < n; i++ {
		ctx := c.contexts[idx]
		if idx++; idx == n {
			idx = 0
		}
		if budget == 0 {
			break
		}
		if ctx.Stalled(c.cycle) || ctx.nDispatched == 0 {
			continue
		}
		// Quiesced: the last full pass proved nothing becomes issuable
		// before issueSleepUntil without an intervening wakeIssue event
		// (completion, retirement, dispatch, squash).
		if c.cycle < ctx.issueSleepUntil {
			continue
		}
		budget = c.issueCtx(ctx, budget)
	}
}

// issueCtx runs one context's issue pass: an in-seq-order merge of the
// ready lists' fronts, visiting only entries whose operands are captured,
// instead of the ROB scan it replaces — with a full ROB blocked behind
// the non-pipelined divider, that scan was the hottest loop in the
// simulator. The selection order (and so the port-claim order, timing
// and trace) is identical: the old scan visited ready entries in ROB
// order, which is seq order, and a structural failure is class-uniform
// with no side effects, so parking a failed class skips only attempts
// that were guaranteed to fail identically.
//
// The merge compares only live lists: non-empty, with a front that is
// not parked (frontLive). A list is checked when the pass starts and
// again after each pop, and it leaves the live set for good when it
// empties, parks or fails: a ready list only shrinks during a pass,
// because completions run in their own stage and a mid-pass squash
// rebuilds the lists and ends the pass. It returns the remaining issue
// budget.
func (c *Core) issueCtx(ctx *Context, budget int) int {
	s := &ctx.sched
	startGen := s.gen
	retryAt := uint64(neverCycle)
	divSeq := uint64(neverCycle) // the parked divide front, if any
	var live uint8               // bit l: ready list l is live
	for l := range s.ready {
		if c.frontLive(ctx, l, &divSeq) {
			live |= 1 << l
		}
	}
	stopSeq := uint64(neverCycle) // the merge tried no front younger than this
	for budget > 0 && ctx.nDispatched > 0 && live != 0 {
		best, bestSeq := 0, uint64(neverCycle)
		for m := live; m != 0; m &= m - 1 {
			l := bits.TrailingZeros8(m)
			if seq := s.ready[l].refs[0].seq; seq < bestSeq {
				best, bestSeq = l, seq
			}
		}
		list := &s.ready[best]
		// A stale front is impossible while the lists are exact (the
		// scheduler invariant test checks them after every cycle); it is
		// popped rather than issued if it ever happens.
		if e := ctx.rob.BySlot(list.refs[0].slot); e.Seq == bestSeq && e.State == pipeline.StateDispatched {
			ok, at := c.tryIssueEntry(ctx, e)
			if !ok {
				live &^= 1 << best
				retryAt = min(retryAt, at)
				continue
			}
			budget--
			if s.gen != startGen {
				// Mid-pass squash (memory-order violation): the lists
				// were rebuilt without e and everything younger is gone;
				// every older ready entry was already tried, so the pass
				// is complete. The sleep rule below still applies — the
				// squash redirected fetch, and the resulting dispatch
				// wakes the scan again, so overwriting recount's wake is
				// sound (same argument as the old scan).
				stopSeq = bestSeq
				break
			}
		}
		list.pop()
		if !c.frontLive(ctx, best, &divSeq) {
			live &^= 1 << best
		}
	}
	if divSeq < stopSeq {
		// A parked divide fails with the divider's free cycle as its
		// retry. It counts once the merge would have reached its front,
		// which it did unless a mid-pass squash stopped it first (a pass
		// cut short by the budget rescans next cycle anyway).
		retryAt = min(retryAt, c.ports.DivFreeAt())
	}
	if budget == 0 && ctx.nDispatched > 0 {
		// Pass may have stopped early: rescan next cycle.
		ctx.issueSleepUntil = c.cycle + 1
	} else {
		// Full coverage: every still-dispatched entry is either
		// port-blocked until retryAt or waiting on an event that fires
		// wakeIssue.
		ctx.issueSleepUntil = retryAt
	}
	return budget
}

// frontLive reports whether the issue merge should try the front of
// ready list l: the list is non-empty and its front is not parked. A
// front is parked when trying it could only fail, and the parking rule
// is the same when a pass starts and after every issue from the list.
//
//   - An RDTSC reads the cycle counter at the ROB head only (serialized,
//     as in the rdtscp+fence idiom attack code uses), so monitor timing
//     measurements are well ordered. One that is not the head waits
//     without a retry cycle: retirement wakes it. The head cannot change
//     mid-pass: PopHead runs at retirement, and squashes end the pass.
//     So once a timer read issues, the next one waits for it to retire.
//   - A divide fails while the divider is busy, with the divider's free
//     cycle as its retry; the front's seq goes to *divSeq so the pass
//     can fold that cycle in. Once busy, the divider stays busy for the
//     rest of the pass. Under DelaySpeculative a held speculative divide
//     fails first, without a retry cycle, so that mode tries the front.
func (c *Core) frontLive(ctx *Context, l int, divSeq *uint64) bool {
	refs := ctx.sched.ready[l].refs
	if len(refs) == 0 {
		return false
	}
	switch l {
	case rdtscList:
		return refs[0].seq == ctx.rob.Head().Seq
	case int(pipeline.ClassDiv):
		if c.ports.DivBusy() && !c.cfg.DelaySpeculative {
			*divSeq = refs[0].seq
			return false
		}
	}
	return true
}

// divLatency is the divider's latency (and occupancy) for a div or fdiv
// on operands a and b: an FP divide takes the subnormal-assist penalty
// when an operand or the quotient is subnormal.
func (c *Core) divLatency(op isa.Op, a, b uint64) int {
	if op == isa.OpDiv {
		return c.cfg.DivLat
	}
	fa, fb := math.Float64frombits(a), math.Float64frombits(b)
	if isSubnormal(fa) || isSubnormal(fb) || isSubnormal(fa/fb) {
		return c.cfg.FDivLat + c.cfg.SubnormalPenalty
	}
	return c.cfg.FDivLat
}

// transmitCapable reports whether op can transmit information through
// the microarchitecture while speculative — a cache/TLB footprint
// (loads), non-pipelined divider occupancy (divides), or an RNG draw
// (RDRAND) — the ops Config.DelaySpeculative holds at issue.
func transmitCapable(op isa.Op) bool {
	return op.IsLoad() || op == isa.OpDiv || op == isa.OpFDiv || op == isa.OpRdrand
}

// nonSpeculative reports whether e is no longer speculative: every
// older entry in the context's ROB has completed. A completed older
// branch has already acted on any misprediction (the complete stage
// squashes before issue sees the survivor), so completion of all elders
// means no older control or fault hazard can flush e.
func (ctx *Context) nonSpeculative(e *pipeline.Entry) bool {
	for _, o := range ctx.rob.Entries() {
		if o.Seq >= e.Seq {
			return true
		}
		if o.State != pipeline.StateCompleted {
			return false
		}
	}
	return true
}

// tryIssueEntry attempts to start executing e, reporting success. On
// failure it also returns the earliest cycle a retry could succeed
// (neverCycle when only a wakeIssue event — the completion or retirement
// that ends a DelaySpeculative hold — can unblock it). The port is
// claimed before execute runs so that a structural hazard leaves no side
// effects (the entry retries). An RDTSC reaches it only at the ROB head
// (frontLive).
func (c *Core) tryIssueEntry(ctx *Context, e *pipeline.Entry) (bool, uint64) {
	op, cls := e.Instr.Op, e.Instr.Class

	// Sakalis-style selective delay (Config.DelaySpeculative): a
	// transmit-capable op issues only once it is non-speculative, i.e.
	// every older entry in the ROB has completed. The completion or
	// retirement that changes its speculation status fires wakeIssue, so
	// a held entry retries exactly when the answer can change; an older
	// entry that faults instead squashes the held one with the rest of
	// the pipeline.
	if c.cfg.DelaySpeculative && transmitCapable(op) && !ctx.nonSpeculative(e) {
		return false, neverCycle
	}

	// Optimistic memory disambiguation: a load forwards from the youngest
	// older issued store to the same address; older stores with unknown
	// addresses are speculated past (no-alias prediction). A store that
	// later discovers a younger already-executed load to its address
	// triggers a memory-order-violation squash below — itself one of the
	// §7 replay mechanisms.
	var forward *pipeline.Entry
	if cls == pipeline.ClassLoad {
		va := e.Src[0].Value + uint64(e.Instr.Imm)
		for _, r := range ctx.sched.stores.refs {
			if r.seq >= e.Seq {
				break
			}
			if se := ctx.rob.BySlot(r.slot); se.State != pipeline.StateDispatched && se.EffAddr == va {
				forward = se // youngest older match wins
			}
		}
	}

	// The divider is non-pipelined: a divide occupies it for its whole
	// latency, which depends on the operands, so it is computed once the
	// divider is known to be free. Pipelined ports ignore the occupancy.
	divLat := 0
	if cls == pipeline.ClassDiv && !c.ports.DivBusy() {
		divLat = c.divLatency(op, e.Src[0].Value, e.Src[1].Value)
	}
	port, ok := c.ports.TryIssue(cls, uint64(divLat))
	if !ok {
		// Structural hazard (e.g. divider busy: contention).
		return false, c.ports.RetryAt(cls)
	}
	lat := c.execute(ctx, e, forward, divLat)
	e.State = pipeline.StateIssued
	ctx.nDispatched--
	ctx.nIssued++
	e.CompleteAt = c.cycle + uint64(lat)
	if e.CompleteAt < ctx.nextCompleteAt {
		ctx.nextCompleteAt = e.CompleteAt
	}
	ctx.sched.heapPush(compNode{at: e.CompleteAt, seq: e.Seq, slot: e.Slot})
	if c.tracer != nil {
		c.trace(Event{Context: ctx.id, Kind: EvIssue, PC: e.PC, Seq: e.Seq,
			Instr: ctx.prog.At(e.PC), Walk: e.WalkCycles, Port: port, Addr: e.EffAddr})
	}
	if c.shadow != nil {
		c.shadow.ShadowIssue(ctx, e, forward)
	}

	// Memory-order violation: this store's address matches a younger load
	// that already executed with (possibly stale) memory data. Squash and
	// re-fetch everything younger than the store.
	if cls == pipeline.ClassStore && !e.HasFault {
		violated := false
		loads := ctx.sched.loads.refs
		for i := len(loads) - 1; i >= 0 && loads[i].seq > e.Seq; i-- {
			if ye := ctx.rob.BySlot(loads[i].slot); ye.State != pipeline.StateDispatched && ye.EffAddr == e.EffAddr {
				violated = true
				break
			}
		}
		if violated {
			ctx.stats.MemOrderViolations++
			ctx.squashYounger(e.Seq)
			ctx.fetchPC = e.PC + 1
			if c.tracer != nil {
				c.trace(Event{Context: ctx.id, Kind: EvSquash, PC: e.PC, Seq: e.Seq,
					Instr: ctx.prog.At(e.PC), Detail: "memory order violation"})
			}
		}
	}
	return true, 0
}

// execute computes an instruction's result and memory effects into e
// (Result, EffAddr, PhysAddr, WalkCycles, a pending fault, the branch
// outcome) and returns its latency. Functional effects on the
// cache/TLB/PWC state happen here (issue time); architectural effects
// happen at commit. forward, when non-nil, is the store-buffer entry a
// load forwards its data from; divLat is a divide's latency, the
// divider occupancy it was issued with.
func (c *Core) execute(ctx *Context, e *pipeline.Entry, forward *pipeline.Entry, divLat int) int {
	in := &e.Instr
	a, b := e.Src[0].Value, e.Src[1].Value
	lat := c.cfg.ALULat

	switch in.Op {
	case isa.OpRdtsc:
		e.Result = c.cycle
	case isa.OpRdrand:
		e.Result = c.rdrand()
	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpJmp:
		e.ActualPC = e.PC + 1
		if in.Taken(a, b) {
			e.ActualPC = in.Target
		}
		e.Mispredicted = e.ActualPC != e.PredictedPC
	case isa.OpLoad, isa.OpLoad32, isa.OpLoadF:
		e.EffAddr = a + uint64(in.Imm)
		res := c.translate(ctx, e.EffAddr, false)
		lat, e.WalkCycles = res.latency, res.walkCycles
		if res.faulted {
			e.HasFault, e.Fault = true, res.fault
			return lat
		}
		if res.pa+8 > c.phys.Size() {
			e.HasFault, e.Fault = true, mem.Fault{VA: e.EffAddr, Level: mem.PTE}
			return lat
		}
		e.PhysAddr = res.pa
		if forward != nil {
			// Store-to-load forwarding: data comes from the store buffer
			// at L1-hit cost, without touching the cache hierarchy.
			lat += c.cfg.Hierarchy.L1D.Latency
			e.Result = forward.Src[1].Value
			if in.Op == isa.OpLoad32 {
				e.Result = uint64(uint32(e.Result))
			}
			break
		}
		if c.cfg.InvisibleSpeculation {
			// InvisiSpec-style: the speculative load reads around the
			// cache without filling it; the fill happens at commit.
			plat, _ := c.hier.Probe(e.PhysAddr)
			lat += plat
		} else {
			lat += c.dataAccess(e.PhysAddr)
		}
		if in.Op == isa.OpLoad32 {
			e.Result = uint64(c.phys.Read32(e.PhysAddr))
		} else {
			e.Result = c.phys.Read64(e.PhysAddr)
		}
	case isa.OpStore, isa.OpStore32, isa.OpStoreF:
		e.EffAddr = a + uint64(in.Imm)
		res := c.translate(ctx, e.EffAddr, true)
		lat, e.WalkCycles = res.latency, res.walkCycles
		if res.faulted {
			e.HasFault, e.Fault = true, res.fault
			return lat
		}
		e.PhysAddr = res.pa
		if e.PhysAddr+8 > c.phys.Size() {
			e.HasFault, e.Fault = true, mem.Fault{VA: e.EffAddr, Level: mem.PTE, Write: true}
		}
	case isa.OpNop, isa.OpFence, isa.OpTxBegin, isa.OpTxEnd, isa.OpTxAbort, isa.OpHalt:
	default:
		// An ALU or FP op: the result is sim/isa's, the latency the
		// unit's. An undefined opcode is unreachable for loaded
		// programs: Context.LoadProgram runs static.Validate, which
		// rejects it before it can be fetched.
		var ok bool
		if e.Result, ok = in.Eval(a, b); !ok {
			panic(fmt.Sprintf("cpu: execute: unhandled op %s (program bypassed LoadProgram validation)", in.Op))
		}
		switch in.Op {
		case isa.OpMul, isa.OpFMul:
			lat = c.cfg.MulLat
		case isa.OpFAdd:
			lat = c.cfg.FAddLat
		case isa.OpDiv, isa.OpFDiv:
			lat = divLat
		}
	}
	if lat <= 0 {
		lat = 1
	}
	return lat + c.jitter()
}

func isSubnormal(f float64) bool {
	if f == 0 || math.IsNaN(f) || math.IsInf(f, 0) {
		return false
	}
	return math.Abs(f) < 2.2250738585072014e-308 // smallest normal float64
}

// ---------------------------------------------------------------------
// Fetch/dispatch stage
// ---------------------------------------------------------------------

func (c *Core) fetch() {
	for _, ctx := range c.contexts {
		if ctx.halted || ctx.fetchHalted || ctx.prog == nil || ctx.Stalled(c.cycle) {
			continue
		}
		for n := 0; n < c.cfg.FetchWidth; n++ {
			if ctx.rob.Full() || ctx.nFences > 0 {
				break
			}
			if ctx.serialize && ctx.rob.Len() > 0 {
				break // post-flush fence: one instruction at a time
			}
			if ctx.fetchPC < 0 || ctx.fetchPC >= len(ctx.dec) {
				ctx.fetchHalted = true
				break
			}
			in := &ctx.dec[ctx.fetchPC]
			e := c.dispatch(ctx, in, ctx.fetchPC)

			switch {
			case in.Op == isa.OpHalt:
				ctx.fetchHalted = true
				n = c.cfg.FetchWidth
			case in.Op == isa.OpJmp:
				e.PredictedPC = in.Target
				ctx.fetchPC = in.Target
			case in.Op.IsCondBranch():
				// Branches carry their target, so only the direction is
				// predicted (no BTB dependence for direct branches).
				taken := ctx.bp.PredictDirection(e.PC)
				if taken {
					e.PredictedPC = in.Target
				} else {
					e.PredictedPC = e.PC + 1
				}
				e.PredictedTaken = taken
				ctx.fetchPC = e.PredictedPC
			default:
				ctx.fetchPC++
			}
		}
	}
}

// dispatch allocates and enqueues a ROB entry for in at pc, capturing
// operand values eagerly: from the register file, or from a producer
// whose result is already final; operands still in flight are linked
// into the producer's waiter list for capture at its completion
// broadcast.
func (c *Core) dispatch(ctx *Context, in *pipeline.Decoded, pc int) *pipeline.Entry {
	c.seq++
	e := ctx.rob.Alloc()
	e.Seq = c.seq
	e.PC = pc
	e.Instr = *in
	e.State = pipeline.StateDispatched
	e.Context = ctx.id
	for i, r := range in.Src {
		if r == isa.NoReg {
			e.Src[i] = pipeline.Operand{Ready: true, Producer: pipeline.NoProducer}
			continue
		}
		if slot := ctx.rat[r]; slot != pipeline.NoProducer {
			prod := ctx.rob.BySlot(slot)
			if prod.State == pipeline.StateCompleted {
				// The producer's result is final; capture now, keeping the
				// link as provenance. (An issued-but-incomplete producer's
				// result exists too, but capturing it here would make the
				// consumer issuable before the completion broadcast —
				// operand readiness must track completion, as the ROB walk
				// this replaces did.)
				e.Src[i] = pipeline.Operand{Ready: true, Value: prod.Result, Producer: slot}
				if c.shadow != nil {
					e.PendShadow[i] = prod.Shadow
				}
			} else {
				e.Src[i] = pipeline.Operand{Producer: slot}
			}
		} else {
			e.Src[i] = pipeline.Operand{Ready: true, Value: ctx.regs[r], Producer: pipeline.NoProducer}
		}
	}
	if d := in.Dest; d != isa.NoReg {
		ctx.rat[d] = e.Slot
	}
	ctx.rob.Push(e)
	ctx.nDispatched++
	ctx.schedDispatch(e)
	if c.shadow != nil {
		c.shadow.ShadowDispatch(ctx, e)
	}
	ctx.wakeIssue() // a fresh entry may be issuable before the quiesce expiry
	if ctx.isFenceActing(in.Op) {
		ctx.nFences++
	}
	ctx.stats.Fetched++
	if c.tracer != nil {
		c.trace(Event{Context: ctx.id, Kind: EvFetch, PC: pc, Seq: e.Seq, Instr: ctx.prog.At(pc)})
	}
	return e
}
