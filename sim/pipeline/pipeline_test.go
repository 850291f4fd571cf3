package pipeline

import (
	"reflect"
	"testing"

	"microscope/sim/isa"
)

// alloc dispatches a fresh entry into r the way the cycle engine does:
// slab Alloc, fill, Push. The engine reserves the ROB when a program
// arrives; alloc reserves it before the first entry.
func alloc(r *ROB, seq uint64, op isa.Op) *Entry {
	r.Reserve()
	e := r.Alloc()
	e.Seq = seq
	e.Instr = Decode(isa.Instr{Op: op})
	e.State = StateDispatched
	r.Push(e)
	return e
}

func TestROBFIFO(t *testing.T) {
	r := NewROB(4)
	for i := uint64(0); i < 4; i++ {
		alloc(r, i, isa.OpNop)
	}
	if !r.Full() {
		t.Error("ROB not full after cap pushes")
	}
	if r.Head().Seq != 0 {
		t.Errorf("head seq = %d", r.Head().Seq)
	}
	e := r.PopHead()
	if e.Seq != 0 || r.Len() != 3 {
		t.Errorf("pop = %d, len = %d", e.Seq, r.Len())
	}
}

func TestROBAllocFullPanics(t *testing.T) {
	r := NewROB(1)
	alloc(r, 0, isa.OpNop)
	defer func() {
		if recover() == nil {
			t.Error("alloc from full ROB did not panic")
		}
	}()
	r.Alloc()
}

func TestROBSquashAll(t *testing.T) {
	r := NewROB(4)
	es := []*Entry{alloc(r, 0, isa.OpNop), alloc(r, 1, isa.OpNop)}
	if n := r.SquashAll(); n != 2 {
		t.Errorf("SquashAll = %d", n)
	}
	if r.Len() != 0 {
		t.Error("entries survive SquashAll")
	}
	for _, e := range es {
		if e.State != StateSquashed {
			t.Errorf("entry %d state = %s", e.Seq, e.State)
		}
	}
}

func TestROBSquashYounger(t *testing.T) {
	r := NewROB(8)
	var es []*Entry
	for i := uint64(0); i < 5; i++ {
		es = append(es, alloc(r, i, isa.OpNop))
	}
	if n := r.SquashYounger(2); n != 2 {
		t.Errorf("SquashYounger = %d, want 2", n)
	}
	if r.Len() != 3 {
		t.Errorf("len = %d, want 3", r.Len())
	}
	if es[3].State != StateSquashed || es[4].State != StateSquashed {
		t.Error("younger entries not marked squashed")
	}
	if es[2].State == StateSquashed {
		t.Error("entry at seq boundary squashed")
	}
}

func TestROBSlotRecycling(t *testing.T) {
	r := NewROB(2)
	a := alloc(r, 1, isa.OpNop)
	b := alloc(r, 2, isa.OpNop)
	if a.Slot == b.Slot {
		t.Fatalf("distinct entries share slot %d", a.Slot)
	}
	aSlot := a.Slot
	a.State = StateCompleted
	r.PopHead()
	c := alloc(r, 3, isa.OpNop)
	if c.Slot != aSlot {
		t.Errorf("recycled slot = %d, want %d", c.Slot, aSlot)
	}
	if c.Seq != 3 || c.State != StateDispatched {
		t.Error("recycled slot not reset")
	}
	if got := r.BySlot(c.Slot); got != c {
		t.Error("BySlot does not address the slab")
	}
	// Squash recycles too: both slots free again after SquashAll.
	r.SquashAll()
	d := r.Alloc()
	e := r.Alloc()
	if d.Slot == e.Slot {
		t.Error("squash did not recycle distinct slots")
	}
}

// A ROB holds no entry storage until it is reserved; until then every
// read, squash and reset sees it empty, and Alloc panics. A restore into
// the reserved ROB numbers its slots from 0.
func TestROBReserve(t *testing.T) {
	r := NewROB(4)
	if err := r.BeginReplace(0); err != nil {
		t.Fatal(err)
	}
	r.Reset()
	if n := r.SquashAll() + r.SquashYounger(0); n != 0 {
		t.Errorf("squashes of an empty ROB removed %d entries", n)
	}
	if r.Head() != nil || r.Len() != 0 || r.Full() || len(r.Entries()) != 0 {
		t.Errorf("unreserved ROB: head %v, len %d, full %t, %d entries", r.Head(), r.Len(), r.Full(), len(r.Entries()))
	}
	if r.slab != nil || r.buf != nil || r.free != nil {
		t.Fatal("an unreserved ROB holds storage")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("alloc from an unreserved ROB did not panic")
			}
		}()
		r.Alloc()
	}()
	r.Reserve()
	if err := r.BeginReplace(2); err != nil {
		t.Fatal(err)
	}
	for i := int32(0); i < 2; i++ {
		e := r.Alloc()
		r.Push(e)
		if e.Slot != i {
			t.Errorf("restored entry %d took slot %d", i, e.Slot)
		}
	}
	if len(r.slab) != 4 || r.Len() != 2 {
		t.Errorf("after a restore of two entries: slab %d, len %d", len(r.slab), r.Len())
	}
}

func TestROBResetRefillsFreeList(t *testing.T) {
	r := NewROB(3)
	alloc(r, 1, isa.OpNop)
	alloc(r, 2, isa.OpNop)
	if err := r.BeginReplace(3); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 3; i++ {
		// A restore names producers by ROB index: entry i takes slot i.
		if e := alloc(r, 10+i, isa.OpNop); e.Slot != int32(i) {
			t.Errorf("restored entry %d took slot %d", i, e.Slot)
		}
	}
	if !r.Full() || r.Head().Seq != 10 {
		t.Errorf("after replace: len=%d head=%v", r.Len(), r.Head())
	}
	if err := r.BeginReplace(4); err == nil {
		t.Error("BeginReplace over capacity did not error")
	}
}

func TestPortsForClasses(t *testing.T) {
	if p := classPorts[ClassOf(isa.OpDiv)]; len(p) != 1 || p[0] != PortDiv {
		t.Errorf("div ports = %v", p)
	}
	if p := classPorts[ClassOf(isa.OpFDiv)]; len(p) != 1 || p[0] != PortDiv {
		t.Errorf("fdiv ports = %v", p)
	}
	if p := classPorts[ClassOf(isa.OpLoad)]; len(p) != 2 {
		t.Errorf("load ports = %v", p)
	}
	if p := classPorts[ClassOf(isa.OpAdd)]; len(p) != 2 || p[0] != PortALU0 {
		t.Errorf("alu ports = %v", p)
	}
	if p := classPorts[ClassOf(isa.OpFMul)]; len(p) != 1 || p[0] != PortMul {
		t.Errorf("fmul ports = %v", p)
	}
	if p := classPorts[ClassOf(isa.OpBeq)]; len(p) != 2 || p[0] != PortALU1 {
		t.Errorf("branch ports = %v", p)
	}
	for cls, ports := range classPorts {
		if len(ports) == 0 {
			t.Errorf("class %d has no port", cls)
		}
	}
}

func TestPortSetPerCycleSlots(t *testing.T) {
	var ps PortSet
	ps.NewCycle(1)
	if _, ok := ps.TryIssue(ClassStore, 1); !ok {
		t.Fatal("first store issue failed")
	}
	if _, ok := ps.TryIssue(ClassStore, 1); ok {
		t.Error("second store issued on single store port")
	}
	// Two loads per cycle on two ports, third fails.
	if _, ok := ps.TryIssue(ClassLoad, 1); !ok {
		t.Error("load0 failed")
	}
	if _, ok := ps.TryIssue(ClassLoad, 1); !ok {
		t.Error("load1 failed")
	}
	if _, ok := ps.TryIssue(ClassLoad, 1); ok {
		t.Error("third load issued")
	}
	ps.NewCycle(2)
	if _, ok := ps.TryIssue(ClassStore, 1); !ok {
		t.Error("store slot not recycled next cycle")
	}
}

func TestDividerNonPipelined(t *testing.T) {
	var ps PortSet
	ps.NewCycle(10)
	if _, ok := ps.TryIssue(ClassDiv, 24); !ok {
		t.Fatal("first div failed")
	}
	if !ps.DivBusy() {
		t.Error("divider not busy after issue")
	}
	// Busy for the full 24 cycles: issue at 33 fails, at 34 succeeds.
	ps.NewCycle(33)
	if _, ok := ps.TryIssue(ClassDiv, 24); ok {
		t.Error("div issued while unit busy (should contend)")
	}
	if at := ps.RetryAt(ClassDiv); at != 34 {
		t.Errorf("div RetryAt = %d, want the divider-free cycle 34", at)
	}
	if at := ps.RetryAt(ClassALU); at != 34 {
		t.Errorf("alu RetryAt = %d, want the next cycle 34", at)
	}
	ps.NewCycle(34)
	if _, ok := ps.TryIssue(ClassDiv, 24); !ok {
		t.Error("div failed after unit freed")
	}
	if ps.DivBusyCycles != 48 {
		t.Errorf("DivBusyCycles = %d, want 48", ps.DivBusyCycles)
	}
}

func TestMulIsPipelined(t *testing.T) {
	var ps PortSet
	ps.NewCycle(1)
	if _, ok := ps.TryIssue(ClassMul, 3); !ok {
		t.Fatal("mul issue failed")
	}
	ps.NewCycle(2)
	if _, ok := ps.TryIssue(ClassMul, 3); !ok {
		t.Error("mul not pipelined: back-to-back issue failed")
	}
}

func TestPredictorLearnsLoop(t *testing.T) {
	bp := NewPredictor(8)
	pc, target := 5, 2
	// Initially predicted not-taken (cold counters + no BTB).
	if taken, tgt := bp.Predict(pc); taken || tgt != pc+1 {
		t.Errorf("cold predict = %t, %d", taken, tgt)
	}
	for range 3 {
		bp.Update(pc, true, target)
	}
	taken, tgt := bp.Predict(pc)
	if !taken || tgt != target {
		t.Errorf("trained predict = %t, %d; want true, %d", taken, tgt, target)
	}
	// Train not-taken again; counter decays.
	for range 4 {
		bp.Update(pc, false, 0)
	}
	if taken, _ := bp.Predict(pc); taken {
		t.Error("predictor did not decay to not-taken")
	}
}

func TestPredictorFlush(t *testing.T) {
	bp := NewPredictor(8)
	bp.Prime(5, true, 2)
	if taken, _ := bp.Predict(5); !taken {
		t.Fatal("prime failed")
	}
	bp.Flush()
	if taken, tgt := bp.Predict(5); taken || tgt != 6 {
		t.Error("flush did not reset predictor")
	}
}

func TestPredictorBTBCollisionFallsBack(t *testing.T) {
	bp := NewPredictor(2) // 4 entries: pc 1 and 5 collide
	bp.Prime(1, true, 9)
	// pc 5 maps to the same slot but has a different pc tag: fall back to
	// not-taken even though the counter is saturated.
	if taken, tgt := bp.Predict(5); taken || tgt != 6 {
		t.Errorf("collided predict = %t,%d; want false,6", taken, tgt)
	}
}

// An untouched predictor holds no tables, and predicts, flushes,
// snapshots and restores as a zeroed one does. Restoring a zero image
// leaves the tables unallocated; any other image allocates them.
func TestUntouchedPredictorMatchesZeroed(t *testing.T) {
	cold, zeroed := NewPredictor(4), NewPredictor(4)
	zeroed.Prime(3, true, 9)
	zeroed.Flush()
	cold.Flush()
	for pc := 0; pc < 64; pc++ {
		ct, cg := cold.Predict(pc)
		zt, zg := zeroed.Predict(pc)
		if ct != zt || cg != zg || cold.PredictDirection(pc) != zeroed.PredictDirection(pc) {
			t.Errorf("pc %d: untouched predicts %t,%d, zeroed %t,%d", pc, ct, cg, zt, zg)
		}
	}
	if cold.counters != nil || cold.btb != nil {
		t.Fatal("predictions or a flush allocated the tables")
	}
	if !reflect.DeepEqual(cold.Snapshot(), zeroed.Snapshot()) {
		t.Error("untouched and zeroed predictors snapshot differently")
	}

	r := NewPredictor(4)
	if err := r.Restore(zeroed.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if r.counters != nil {
		t.Error("restoring a zero image allocated the tables")
	}
	trained := NewPredictor(4)
	trained.Prime(3, true, 9)
	if err := r.Restore(trained.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if taken, tgt := r.Predict(3); !taken || tgt != 9 {
		t.Errorf("restored trained image predicts %t,%d; want true,9", taken, tgt)
	}
	if err := NewPredictor(3).Restore(zeroed.Snapshot()); err == nil {
		t.Error("a 16-entry image restored into an 8-entry predictor")
	}
}

func TestEntryStateString(t *testing.T) {
	states := []EntryState{StateDispatched, StateIssued, StateCompleted, StateFaulted, StateSquashed, StateRetired}
	for _, s := range states {
		if s.String() == "" {
			t.Errorf("state %d has empty name", s)
		}
	}
}
