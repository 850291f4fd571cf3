package cpu

import (
	"fmt"

	"microscope/analysis/static"
	"microscope/sim/isa"
	"microscope/sim/mem"
	"microscope/sim/pipeline"
)

// AbortReg is the integer register that receives the abort count when a
// transaction aborts (the simulated analogue of EAX holding the TSX abort
// status).
const AbortReg = isa.R15

// ContextStats aggregates per-context event counts.
type ContextStats struct {
	Fetched            uint64
	Retired            uint64
	Squashed           uint64
	PageFaults         uint64 // precise faults delivered (replays observed by the victim)
	TxAborts           uint64
	Mispredicts        uint64
	MemOrderViolations uint64
	StallCycles        uint64 // cycles spent in the (simulated) kernel fault handler
	// SkippedCycles counts simulated cycles the fast-forward engine
	// jumped over while this context had a program loaded (the cycles
	// were provably dead for every context; see Config.FastForward).
	SkippedCycles uint64
	// ReplayAlarms counts Jamais Vu replay-detector trips (see
	// Config.SquashThreshold and jamaisvu.go); always zero while the
	// detector is disabled.
	ReplayAlarms uint64
}

// Context is one SMT hardware context: architectural registers, a fetch
// engine with a branch predictor, and a private ROB partition. Execution
// ports, caches, TLBs and the page walker are shared core-level resources.
type Context struct {
	id   int
	core *Core

	as   *mem.AddressSpace
	prog *isa.Program

	regs [isa.NumRegs]uint64

	rob *pipeline.ROB
	rat [isa.NumRegs]*pipeline.Entry
	bp  *pipeline.Predictor

	fetchPC     int
	fetchHalted bool
	halted      bool
	stallUntil  uint64 // fetch/dispatch suppressed until this cycle
	// serialize implements Config.FenceAfterFlush: set after a pipeline
	// flush; while set, at most one instruction may be in flight.
	serialize bool

	// Transaction state (simplified TSX: registers and PC roll back on
	// abort; memory writes are not buffered — the replay experiments do
	// not depend on memory rollback).
	inTx         bool
	txCheckpoint [isa.NumRegs]uint64
	txAbortPC    int
	// txWriteSet records the physical cache lines written inside the
	// current transaction; evicting one aborts the transaction, the TSX
	// property §7.1 exploits ("will abort a transaction if dirty data is
	// evicted from the private cache, which can be easily controlled by
	// an attacker").
	txWriteSet map[mem.Addr]struct{}

	// Derived counters kept in sync with ROB contents to avoid O(ROB)
	// scans per cycle. Recomputed after squashes by recount.
	nDispatched int // entries in StateDispatched
	nIssued     int // entries in StateIssued
	nFences     int // unretired fence-acting entries

	// Next-event state for the complete-stage skip and the issue-scan
	// quiesce (and, through them, core-level fast-forward).
	//
	// nextCompleteAt is a lower bound on the earliest CompleteAt among
	// issued entries (exact after every complete-stage walk and recount;
	// only ever early after a mid-walk squash, never late). The complete
	// stage does no ROB walk before that cycle.
	//
	// issueSleepUntil is the earliest cycle at which an issue scan could
	// find work, given that the last full scan issued nothing: ready
	// entries blocked on the busy divider retry at its free cycle;
	// entries waiting on operands or on rdtsc-at-head are woken
	// explicitly (wakeIssue) by the completion, retirement, dispatch or
	// squash that unblocks them. Zero means "scan now".
	nextCompleteAt  uint64
	issueSleepUntil uint64

	// doneScratch is the reusable completion batch of the complete
	// stage; collecting into a fresh slice every cycle was a measurable
	// share of hot-loop allocations.
	doneScratch []*pipeline.Entry

	// sched is the event-driven scheduler state (ready lists, completion
	// heap, waiter links) derived from the ROB; see sched.go.
	sched schedState

	// Jamais Vu replay-detector state (Config.SquashThreshold; see
	// jamaisvu.go): fault-squash counts per PC, and the epoch index the
	// counts belong to (lazy epoch clearing).
	jvCounts map[int]uint32
	jvEpoch  uint64

	stats ContextStats
}

// neverCycle is the "no scheduled event" sentinel for nextCompleteAt and
// issueSleepUntil.
const neverCycle = ^uint64(0)

// wakeIssue forces the next issue stage to rescan this context's ROB.
// Call it whenever an event may have made a dispatched entry issuable:
// a completion (operands become ready), a retirement (rdtsc issues only
// at the ROB head), a dispatch, or a squash.
func (ctx *Context) wakeIssue() { ctx.issueSleepUntil = 0 }

// ID returns the context index within its core.
func (ctx *Context) ID() int { return ctx.id }

// SetAddressSpace binds the context to an address space (CR3 write).
func (ctx *Context) SetAddressSpace(as *mem.AddressSpace) { ctx.as = as }

// AddressSpace returns the bound address space.
func (ctx *Context) AddressSpace() *mem.AddressSpace { return ctx.as }

// LoadProgram validates p with the static analyzer's well-formedness
// pass and, on success, loads it and resets the fetch engine to entry.
// Rejected programs (invalid opcodes or operands, out-of-range branch
// targets, control flow that runs off the end, txabort without a
// txbegin) would otherwise surface as execute-stage panics deep in a
// simulation; validating here turns them into descriptive errors at the
// point the program enters the machine.
func (ctx *Context) LoadProgram(p *isa.Program, entry int) error {
	if err := static.Validate(p); err != nil {
		return fmt.Errorf("cpu: load program: %w", err)
	}
	if entry < 0 || entry >= p.Len() {
		return fmt.Errorf("cpu: entry %d outside program of %d instrs", entry, p.Len())
	}
	ctx.load(p, entry)
	return nil
}

// SetProgram is LoadProgram for programs known to be well-formed (e.g.
// emitted by isa.Builder straight from a victim constructor); it panics
// where LoadProgram returns an error.
func (ctx *Context) SetProgram(p *isa.Program, entry int) {
	if err := ctx.LoadProgram(p, entry); err != nil {
		panic(err)
	}
}

func (ctx *Context) load(p *isa.Program, entry int) {
	// Maintain the core's halted/loaded context counters (Core.Halted is
	// O(1) off them).
	if ctx.prog == nil {
		ctx.core.nLoaded++
	} else if ctx.halted {
		ctx.core.nHalted--
	}
	ctx.prog = p
	ctx.jvReset()
	ctx.fetchPC = entry
	ctx.fetchHalted = false
	ctx.halted = false
	if s := ctx.core.shadow; s != nil {
		for _, e := range ctx.rob.Entries() {
			s.ShadowSquash(ctx, e)
		}
	}
	ctx.rob.SquashAll()
	ctx.clearRAT()
	ctx.recount()
}

// Program returns the loaded program.
func (ctx *Context) Program() *isa.Program { return ctx.prog }

// Reg returns the architectural value of r.
func (ctx *Context) Reg(r isa.Reg) uint64 { return ctx.regs[r] }

// SetReg sets the architectural value of r. Only meaningful while the
// context is idle (between runs); in-flight instructions hold their own
// operand copies.
func (ctx *Context) SetReg(r isa.Reg, v uint64) { ctx.regs[r] = v }

// Halted reports whether the context has retired a halt.
func (ctx *Context) Halted() bool { return ctx.halted }

// Stalled reports whether the context is inside the simulated kernel
// fault handler at the given cycle.
func (ctx *Context) Stalled(cycle uint64) bool { return cycle < ctx.stallUntil }

// InTx reports whether the context is inside a transaction.
func (ctx *Context) InTx() bool { return ctx.inTx }

// Stats returns the accumulated event counts.
func (ctx *Context) Stats() ContextStats { return ctx.stats }

// Predictor exposes the context's branch predictor (the enclave runtime
// flushes it at the boundary; the adversary primes it).
func (ctx *Context) Predictor() *pipeline.Predictor { return ctx.bp }

// ROBEntries exposes the in-flight ROB entries, oldest first, as a
// read-only view of the backing slice (diagnostics and the shadow-taint
// tracker; see pipeline.ROB.Entries for the mutation caveats).
func (ctx *Context) ROBEntries() []*pipeline.Entry { return ctx.rob.Entries() }

// PC returns the current fetch program counter.
func (ctx *Context) PC() int { return ctx.fetchPC }

func (ctx *Context) clearRAT() {
	for i := range ctx.rat {
		ctx.rat[i] = nil
	}
}

// rebuildRAT reconstructs the register-alias table from the surviving ROB
// contents after a partial squash.
func (ctx *Context) rebuildRAT() {
	ctx.clearRAT()
	for _, e := range ctx.rob.Entries() {
		if d := e.Instr.Dest(); d != isa.NoReg {
			ctx.rat[d] = e
		}
	}
}

// squashAll flushes the context's whole pipeline (precise exception).
func (ctx *Context) squashAll() {
	if s := ctx.core.shadow; s != nil {
		// Before truncation: each entry still holds its pre-squash state,
		// so the tracker can tell executed (transient footprint) entries
		// from never-issued ones.
		for _, e := range ctx.rob.Entries() {
			s.ShadowSquash(ctx, e)
		}
	}
	ctx.stats.Squashed += uint64(ctx.rob.SquashAll())
	ctx.clearRAT()
	ctx.fetchHalted = false
	ctx.recount()
}

// squashYounger flushes everything younger than seq (branch mispredict).
func (ctx *Context) squashYounger(seq uint64) {
	if s := ctx.core.shadow; s != nil {
		for _, e := range ctx.rob.Entries() {
			if e.Seq > seq {
				s.ShadowSquash(ctx, e)
			}
		}
	}
	ctx.stats.Squashed += uint64(ctx.rob.SquashYounger(seq))
	ctx.rebuildRAT()
	ctx.fetchHalted = false
	ctx.recount()
}

// isFenceActing reports whether op blocks younger dispatch until it
// retires (OpFence always; OpRdrand when the core is configured with the
// Intel fence, §7.2).
func (ctx *Context) isFenceActing(op isa.Op) bool {
	return op == isa.OpFence || (op == isa.OpRdrand && ctx.core.cfg.FencedRdrand)
}

// recount recomputes the derived ROB counters, next-event state and the
// scheduler's wakeup structures after a squash (or snapshot restore).
func (ctx *Context) recount() {
	ctx.nDispatched, ctx.nIssued, ctx.nFences = 0, 0, 0
	ctx.nextCompleteAt = neverCycle
	for _, e := range ctx.rob.Entries() {
		switch e.State {
		case pipeline.StateDispatched:
			ctx.nDispatched++
		case pipeline.StateIssued:
			ctx.nIssued++
			if e.CompleteAt < ctx.nextCompleteAt {
				ctx.nextCompleteAt = e.CompleteAt
			}
		}
		if ctx.isFenceActing(e.Instr.Op) {
			ctx.nFences++
		}
	}
	ctx.schedRebuild()
	ctx.wakeIssue()
}
