// Package pipeline provides the passive structures of the simulated
// out-of-order core: the reorder buffer, the execution-port set with a
// non-pipelined divider, and the branch predictor. The cycle engine that
// drives them lives in sim/cpu.
//
// The reorder buffer is the heart of a microarchitectural replay attack:
// instructions younger than a page-faulting load execute speculatively
// while the fault waits to reach the ROB head, and are then squashed and
// re-executed — once per replay (paper §2.2, §4.1).
package pipeline

import (
	"fmt"

	"microscope/sim/mem"
)

// EntryState tracks an instruction's progress through the ROB.
type EntryState int

// Lifecycle states of a ROB entry.
const (
	StateDispatched EntryState = iota // waiting for operands or a port
	StateIssued                       // executing on a functional unit
	StateCompleted                    // result available
	StateFaulted                      // completed with a pending exception
	StateSquashed                     // removed by a squash; kept for debugging
	StateRetired                      // committed
)

// String returns the state name.
func (s EntryState) String() string {
	switch s {
	case StateDispatched:
		return "dispatched"
	case StateIssued:
		return "issued"
	case StateCompleted:
		return "completed"
	case StateFaulted:
		return "faulted"
	case StateSquashed:
		return "squashed"
	case StateRetired:
		return "retired"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Operand is one source operand of a ROB entry. Ready is authoritative:
// when set, Value holds the captured data. Producer is the slab slot of
// the renaming entry the operand was sourced from at dispatch
// (NoProducer for operands read from the architectural register file).
// It is kept as provenance after the value is captured, so consumers
// (the shadow-taint tracker) can tell a renamed operand from an
// architectural one — but once Ready is set the slot must not be read,
// because the slab may have recycled it for a younger instruction.
type Operand struct {
	Ready    bool
	Value    uint64 // valid when Ready (float operands carry IEEE-754 bits)
	Producer int32  // producer's slab slot at dispatch; provenance only once Ready
}

// NoProducer is the Producer of an operand read from the architectural
// register file, and the rename-table value of a register no in-flight
// entry renames.
const NoProducer int32 = -1

// Entry is one in-flight instruction. Entries live in their ROB's slab
// and are identified by a stable Slot for the lifetime of one dynamic
// instruction; Seq is the forever-unique dispatch identity (slot reuse
// means a retained (Slot, Seq) pair can be validated: the slot belongs
// to the same dynamic instruction iff the seqs still match).
//
// An Entry is a plain value: it holds no pointer, string or interface.
// Its instruction is the Decoded record, operands name their producers
// by slot, and a pending exception is a mem.Fault value. So the garbage
// collector never scans the slab, and a store into an entry takes no
// write barrier.
type Entry struct {
	Seq     uint64 // global dispatch order, used for age comparisons
	PC      int
	Instr   Decoded
	State   EntryState
	Context int
	Slot    int32 // slab index, stable for the entry's ROB lifetime

	Src [2]Operand

	// NPending counts source operands still waiting on a producer. The
	// cycle engine's wakeup lists move the entry to its ready queue when
	// it reaches zero.
	NPending int8

	// Result holds the destination value once completed (float results as
	// IEEE-754 bits).
	Result uint64

	// CompleteAt is the cycle the instruction finishes executing (valid
	// once issued).
	CompleteAt uint64

	// Branch resolution.
	PredictedTaken bool
	PredictedPC    int
	ActualPC       int
	Mispredicted   bool

	// Memory access bookkeeping.
	EffAddr    uint64    // virtual address
	PhysAddr   uint64    // translation result, valid unless HasFault
	HasFault   bool      // a precise exception is pending: Fault
	Fault      mem.Fault // the pending page fault, valid when HasFault
	WalkCycles int       // page-walk duration observed by this access (0 = TLB hit)

	// Shadow-taint state, maintained by an attached cpu.ShadowTracker
	// (sim/sanitizer) together with the cycle engine. All zero while no
	// tracker is attached; the cycle engine itself never reads these
	// fields, so they cannot perturb timing or results.
	//
	// SrcShadow holds the taint mask of each source operand: captured
	// from the architectural shadow registers at dispatch for
	// register-file operands, and folded from PendShadow at issue for
	// renamed ones (the shadow analogue of operand capture).
	// PendShadow is the engine-side handoff for renamed operands: when
	// the engine captures an operand value from its producer (at dispatch
	// if the producer has completed, else at the completion broadcast),
	// it also captures the producer's final Shadow here; the sanitizer
	// folds it into SrcShadow at issue, preserving the issue-time taint
	// visibility the tracker's contract promises.
	// Shadow is the result's taint mask, final once the entry issues.
	// CtrlShadow is implicit-flow taint: the union of the taints of
	// older tainted branches whose control-dependent region contains
	// this entry's PC.
	SrcShadow  [2]uint64
	PendShadow [2]uint64
	Shadow     uint64
	CtrlShadow uint64
}

// ROB is one hardware context's reorder buffer: a FIFO of in-flight
// instructions in program order. (SMT cores statically partition the
// physical ROB; modelling one ROB per context matches that and keeps
// squashes context-local, as on the paper's Xeon.)
//
// Entry storage is a fixed slab of capacity Entry values with a
// free-list: dispatch recycles the slot of a retired or squashed
// instruction instead of heap-allocating, and all in-flight entries stay
// within one contiguous allocation (the hot stages walk them with no
// pointer chasing beyond the program-order index). The slab, the window
// buffer and the free-list are allocated by Reserve, so a context that
// never runs a program costs only the ROB header.
type ROB struct {
	slab []Entry
	free []int32
	// entries is a window into buf (2×cap): PopHead advances the window
	// instead of shifting, and Push slides it back to the front only when
	// it reaches the end of buf — amortized O(1) with zero steady-state
	// allocation, where a plain entries[1:] re-slice kept discarding
	// capacity and sent every refill through the allocator.
	buf     []*Entry
	entries []*Entry
	cap     int
}

// NewROB returns an empty ROB with the given capacity. It allocates no
// entry storage; Reserve does.
func NewROB(capacity int) *ROB {
	if capacity <= 0 {
		panic(fmt.Sprintf("pipeline: ROB capacity %d", capacity))
	}
	return &ROB{cap: capacity}
}

// Cap returns the capacity.
func (r *ROB) Cap() int { return r.cap }

// Len returns the number of in-flight entries.
func (r *ROB) Len() int { return len(r.entries) }

// Full reports whether dispatch must stall.
func (r *ROB) Full() bool { return len(r.entries) >= r.cap }

// Head returns the oldest entry, or nil when empty.
func (r *ROB) Head() *Entry {
	if len(r.entries) == 0 {
		return nil
	}
	return r.entries[0]
}

// BySlot returns the entry occupying slab slot i. The caller must
// validate it still belongs to the expected dynamic instruction (compare
// Seq) — slots are recycled.
func (r *ROB) BySlot(i int32) *Entry { return &r.slab[i] }

// Reserve allocates the entry storage (the slab, the window buffer and
// the free-list) if the ROB has none yet. The cycle engine reserves a
// context's ROB when a program arrives on it. Alloc does not check for
// storage: it runs on every dispatch, and the check would stop the
// compiler from inlining it.
func (r *ROB) Reserve() {
	if r.slab != nil {
		return
	}
	r.slab = make([]Entry, r.cap)
	r.free = make([]int32, 0, r.cap)
	r.buf = make([]*Entry, 2*r.cap)
	r.Reset()
}

// Alloc takes a free slot from the slab and returns it zeroed (Slot
// preserved) for the caller to fill and Push. It panics when the ROB is
// full or was never reserved; callers must check Full first.
func (r *ROB) Alloc() *Entry {
	n := len(r.free)
	if n == 0 {
		panic("pipeline: alloc from a full or unreserved ROB")
	}
	slot := r.free[n-1]
	r.free = r.free[:n-1]
	e := &r.slab[slot]
	*e = Entry{Slot: slot}
	return e
}

// Push appends a dispatched entry obtained from Alloc. It panics when
// full; callers must check Full first (dispatch stalls on a full ROB).
func (r *ROB) Push(e *Entry) {
	if r.Full() {
		panic("pipeline: push to full ROB")
	}
	if len(r.entries) == cap(r.entries) {
		// Window reached the end of buf: slide it back to the front. The
		// regions cannot overlap (the window holds at most cap entries,
		// the buffer 2×cap).
		n := copy(r.buf, r.entries)
		r.entries = r.buf[:n]
	}
	r.entries = append(r.entries, e)
}

// PopHead removes and returns the oldest entry (retirement). The slot is
// recycled: the returned pointer stays valid only until the next Alloc.
func (r *ROB) PopHead() *Entry {
	e := r.entries[0]
	r.entries = r.entries[1:]
	r.free = append(r.free, e.Slot)
	return e
}

// SquashAll removes every entry (pipeline flush on a fault), marking each
// squashed, and returns the count. Slots are recycled; the squashed
// entries keep their fields until the next Alloc (callers iterating a
// pre-squash Entries() snapshot see them StateSquashed, which every
// stage's filters already skip).
func (r *ROB) SquashAll() int {
	n := len(r.entries)
	for _, e := range r.entries {
		e.State = StateSquashed
		r.free = append(r.free, e.Slot)
	}
	r.entries = r.entries[:0]
	return n
}

// SquashYounger removes all entries strictly younger than seq (branch
// misprediction recovery), marking each squashed, and returns the count.
func (r *ROB) SquashYounger(seq uint64) int {
	keep := len(r.entries)
	for i, e := range r.entries {
		if e.Seq > seq {
			keep = i
			break
		}
	}
	n := 0
	for _, e := range r.entries[keep:] {
		e.State = StateSquashed
		r.free = append(r.free, e.Slot)
		n++
	}
	r.entries = r.entries[:keep]
	return n
}

// Reset empties the ROB and refills the slab free-list (snapshot
// restore). The free-list is LIFO, so slots go on in reverse and the
// next Allocs take them from 0 up: slot assignment is deterministic, and
// a restore relies on it.
func (r *ROB) Reset() {
	r.entries = r.buf[:0]
	if r.slab == nil {
		return // not reserved: Reserve fills the free-list
	}
	r.free = r.free[:0]
	for i := r.cap - 1; i >= 0; i-- {
		r.free = append(r.free, int32(i))
	}
}

// Entries returns the in-flight entries, oldest first, as a read-only
// view of the ROB's backing slice. A squash during iteration truncates
// the ROB but leaves the removed entries marked StateSquashed in the
// slab, so a caller that keeps ranging the slice it got before the
// squash sees them in a state that its filters must skip.
func (r *ROB) Entries() []*Entry { return r.entries }
