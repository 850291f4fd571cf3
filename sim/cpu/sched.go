package cpu

import (
	"sort"

	"microscope/sim/isa"
	"microscope/sim/pipeline"
)

// The event-driven scheduler: per-context wakeup and selection state that
// replaces the issue/complete stages' O(ROB) scans.
//
//   - Per-slot waiter lists wire each in-flight producer to the operands
//     waiting on it; the completion broadcast captures the result (and its
//     shadow taint) into the consumers and counts down Entry.NPending.
//   - Per-port-class ready lists hold exactly the dispatched entries
//     whose operands are all captured, in seq order; the issue stage
//     merges the list fronts instead of scanning the ROB. A list is
//     parked for the rest of a pass when its front fails (structural
//     failure is class-uniform), and without a try when its front could
//     only fail: a timer read that is not the ROB head, or a divide
//     while the divider is busy.
//   - Load and store queues hold every in-flight load and store in seq
//     order, so store-to-load forwarding and the memory-order check
//     visit memory ops only.
//   - A completion min-heap keyed (CompleteAt, Seq) replaces the
//     per-cycle walk for due completions and yields the exact
//     nextCompleteAt the fast-forward engine needs.
//
// All of this state is derived from the ROB and is rebuilt from scratch
// by Context.recount after every squash or snapshot restore. Entries are
// referenced as (slot, seq) pairs: slots recycle, so a retained reference
// is valid only while the seqs still match. The ready lists and the
// load/store queues stay exact: an entry leaves them only by issuing from
// a ready list's front or retiring from a queue's front, and every other
// exit (squash, restore) rebuilds them. Only a completion-heap node can
// go stale (its entry squashed, or orphaned by a mid-batch rebuild); it
// is dropped at the next encounter.
//
// Each structure gets its storage the first time it is written: a ready
// or queue list on its first insert, the waiter links on the first
// operand linked to a producer, and the heap grows by append from empty.
// Missing storage reads as empty, so an idle context's scheduler costs
// nothing.
type schedState struct {
	// ready[cls] is the ready list of port class cls. The extra list
	// ready[rdtscList] holds ready RDTSC entries, which issue only at the
	// ROB head (serialized timer reads). That failure is not
	// class-uniform, so on the ALU list a timer read waiting for the head
	// would park every ALU op behind it; on a list of its own it parks
	// only the timer reads. RDTSC has no source operands, so its entries
	// always arrive straight from dispatch, in seq order.
	ready [rdtscList + 1]refList
	heap  []compNode

	// loads and stores hold the in-flight memory ops, oldest first.
	loads, stores refList

	// waiterHead[slot] is the first waiter node of the producer in that
	// slot (-1 none); a node encodes (consumer slot)*2 + operand index,
	// and waitNext links nodes. Lists are consumed whole at broadcast and
	// rebuilt whole at recount, so no stale node ever survives a squash.
	waiterHead []int32
	waitNext   []int32

	// size is the ROB capacity, the length of a list's buffer and of
	// the waiter links.
	size int

	// gen increments on every rebuild; an issue pass that observes it
	// change knows a mid-pass squash replaced its lists.
	gen uint64
}

// rdtscList is the index of the RDTSC ready list in schedState.ready,
// after the port classes' lists.
const rdtscList = int(pipeline.NumPortClasses)

// slotRef references an in-flight entry by slab slot; stale once the
// slot's seq no longer matches. Slot-based (pointer-free) on purpose:
// the lists are appended, binary-inserted and popped every cycle, and
// with a *Entry inside every one of those writes would run the GC write
// barrier — a double-digit share of issue time before the switch.
type slotRef struct {
	seq  uint64
	slot int32
}

// compNode is one completion-heap node; stale once the entry is no
// longer the issued instruction the node was pushed for. Pointer-free
// for the same reason as slotRef.
type compNode struct {
	at   uint64
	seq  uint64
	slot int32
}

// refList is a seq-ordered list of slot refs: a window into a buffer of
// the ROB's capacity. Popping the front advances the window, and an
// insert that finds the window at the end of the buffer first slides it
// back to the front. A list never holds more refs than the ROB holds
// entries, and an insert adds an entry not yet on it, so the slide always
// frees room: nothing allocates after the first insert, which allocates
// the buffer, and a pop costs O(1) where copying the list down would
// cost its length.
type refList struct {
	buf  []slotRef
	refs []slotRef
}

// insert adds e in seq order. Dispatch order is seq order, so an insert
// at dispatch appends; a wakeup of an older entry binary-inserts. The
// first insert allocates the buffer, of the ROB's capacity size.
func (l *refList) insert(e *pipeline.Entry, size int) {
	if len(l.refs) == cap(l.refs) {
		if l.buf == nil {
			l.buf = make([]slotRef, size)
		}
		l.refs = l.buf[:copy(l.buf, l.refs)]
	}
	n := len(l.refs)
	l.refs = append(l.refs, slotRef{seq: e.Seq, slot: e.Slot})
	if n > 0 && l.refs[n-1].seq > e.Seq {
		i := sort.Search(n, func(i int) bool { return l.refs[i].seq > e.Seq })
		copy(l.refs[i+1:], l.refs[i:n])
		l.refs[i] = slotRef{seq: e.Seq, slot: e.Slot}
	}
}

func (l *refList) pop()   { l.refs = l.refs[1:] }
func (l *refList) reset() { l.refs = l.buf[:0] }

// link puts waiter node on the list of the producer in slot p,
// allocating the waiter links on first use.
func (s *schedState) link(p, node int32) {
	if s.waiterHead == nil {
		s.waiterHead = make([]int32, s.size)
		s.waitNext = make([]int32, 2*s.size)
		for i := range s.waiterHead {
			s.waiterHead[i] = -1
		}
	}
	s.waitNext[node] = s.waiterHead[p]
	s.waiterHead[p] = node
}

func heapLess(a, b compNode) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func (s *schedState) heapPush(n compNode) {
	h := append(s.heap, n)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !heapLess(h[i], h[p]) {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	s.heap = h
}

func (s *schedState) heapPop() {
	h := s.heap
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && heapLess(h[l], h[m]) {
			m = l
		}
		if r < n && heapLess(h[r], h[m]) {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	s.heap = h
}

// schedDispatch links a freshly dispatched entry into the wakeup state:
// waiter nodes for operands still pending on a producer, or straight
// onto its class ready list when everything was captured at dispatch;
// and a memory op onto the back of its queue.
func (ctx *Context) schedDispatch(e *pipeline.Entry) {
	s := &ctx.sched
	s.queueMemOp(e)
	n := int8(0)
	for i := range e.Src {
		if e.Src[i].Ready {
			continue
		}
		s.link(e.Src[i].Producer, e.Slot*2+int32(i))
		n++
	}
	e.NPending = n
	if n == 0 {
		ctx.readyInsert(e)
	}
}

// queueMemOp appends a load or store to the back of its queue.
func (s *schedState) queueMemOp(e *pipeline.Entry) {
	switch e.Instr.Class {
	case pipeline.ClassLoad:
		s.loads.insert(e, s.size)
	case pipeline.ClassStore:
		s.stores.insert(e, s.size)
	}
}

// popMemOp pops the retiring ROB head e off the front of its queue.
func (s *schedState) popMemOp(e *pipeline.Entry) {
	switch e.Instr.Class {
	case pipeline.ClassLoad:
		s.loads.pop()
	case pipeline.ClassStore:
		s.stores.pop()
	}
}

// readyInsert places e on its ready list.
func (ctx *Context) readyInsert(e *pipeline.Entry) {
	l := int(e.Instr.Class)
	if e.Instr.Op == isa.OpRdtsc {
		l = rdtscList
	}
	ctx.sched.ready[l].insert(e, ctx.sched.size)
}

// broadcast delivers a completed producer's result to every waiting
// operand, capturing it into the consumer. When a shadow tracker is
// attached the producer's final taint rides along in PendShadow (folded
// into SrcShadow at the consumer's issue, so taint visibility timing is
// unchanged). Consumers whose last pending operand arrives move to their
// ready list.
//
// The list is consumed whole. A node can only be stale here if its
// consumer slot was recycled without an intervening squash — impossible,
// since a pending consumer can neither retire nor issue — so the
// validation is pure insurance.
func (ctx *Context) broadcast(p *pipeline.Entry) {
	s := &ctx.sched
	if s.waiterHead == nil {
		return // no operand has ever waited on a producer
	}
	node := s.waiterHead[p.Slot]
	if node < 0 {
		return
	}
	s.waiterHead[p.Slot] = -1
	shadow := ctx.core.shadow != nil
	for node >= 0 {
		next := s.waitNext[node]
		e := ctx.rob.BySlot(node >> 1)
		i := node & 1
		if e.State == pipeline.StateDispatched && !e.Src[i].Ready && e.Src[i].Producer == p.Slot {
			e.Src[i].Ready = true
			e.Src[i].Value = p.Result
			if shadow {
				e.PendShadow[i] |= p.Shadow
			}
			e.NPending--
			if e.NPending == 0 {
				ctx.readyInsert(e)
			}
		}
		node = next
	}
}

// schedRebuild reconstructs the scheduler state from the surviving ROB
// contents (squash recovery and snapshot restore), bumping gen so an
// in-progress issue pass knows its cursors died. Operands that were
// waiting on a producer that has already completed — possible only in a
// restored image, since a live broadcast fires at the completion itself —
// are captured directly rather than re-linked, because a completed
// producer will never broadcast again.
func (ctx *Context) schedRebuild() {
	s := &ctx.sched
	s.gen++
	s.heap = s.heap[:0]
	for i := range s.ready {
		s.ready[i].reset()
	}
	s.loads.reset()
	s.stores.reset()
	for i := range s.waiterHead {
		s.waiterHead[i] = -1
	}
	shadow := ctx.core.shadow != nil
	for _, e := range ctx.rob.Entries() {
		s.queueMemOp(e)
		switch e.State {
		case pipeline.StateDispatched:
			n := int8(0)
			for i := range e.Src {
				if e.Src[i].Ready {
					continue
				}
				p := ctx.rob.BySlot(e.Src[i].Producer)
				if p.State == pipeline.StateCompleted || p.State == pipeline.StateRetired {
					e.Src[i].Ready = true
					e.Src[i].Value = p.Result
					if shadow {
						e.PendShadow[i] |= p.Shadow
					}
					continue
				}
				s.link(p.Slot, e.Slot*2+int32(i))
				n++
			}
			e.NPending = n
			if n == 0 {
				ctx.readyInsert(e)
			}
		case pipeline.StateIssued:
			s.heapPush(compNode{at: e.CompleteAt, seq: e.Seq, slot: e.Slot})
		}
	}
}
