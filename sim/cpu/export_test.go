package cpu

import "fmt"

// SchedChecker compares a core's live scheduler lists with what
// schedRebuild derives from the ROB, for the scheduler invariant test.
type SchedChecker struct {
	core    *Core
	scratch schedState
}

// NewSchedChecker returns a checker for c.
func NewSchedChecker(c *Core) *SchedChecker {
	return &SchedChecker{core: c, scratch: schedState{size: c.cfg.ROBSize}}
}

// Check rebuilds every context's scheduler state into scratch storage
// and reports the first difference from the live state: a ready list,
// the load or store queue, or an entry's count of pending operands. The
// live lists, waiter links and heap are left as they were.
func (k *SchedChecker) Check() error {
	for _, ctx := range k.core.contexts {
		entries := ctx.rob.Entries()
		pending := make([]int8, len(entries))
		for i, e := range entries {
			pending[i] = e.NPending
		}
		live := ctx.sched
		ctx.sched = k.scratch
		ctx.schedRebuild()
		k.scratch, ctx.sched = ctx.sched, live

		for i, e := range entries {
			if e.NPending != pending[i] {
				return fmt.Errorf("cycle %d context %d: seq %d has %d pending operands, a rebuild counts %d",
					k.core.cycle, ctx.id, e.Seq, pending[i], e.NPending)
			}
		}
		for l := range live.ready {
			if err := sameRefs(live.ready[l].refs, k.scratch.ready[l].refs); err != nil {
				return fmt.Errorf("cycle %d context %d: ready list %d: %v", k.core.cycle, ctx.id, l, err)
			}
		}
		if err := sameRefs(live.loads.refs, k.scratch.loads.refs); err != nil {
			return fmt.Errorf("cycle %d context %d: load queue: %v", k.core.cycle, ctx.id, err)
		}
		if err := sameRefs(live.stores.refs, k.scratch.stores.refs); err != nil {
			return fmt.Errorf("cycle %d context %d: store queue: %v", k.core.cycle, ctx.id, err)
		}
	}
	return nil
}

func sameRefs(live, derived []slotRef) error {
	if len(live) != len(derived) {
		return fmt.Errorf("live %v, rebuilt %v", live, derived)
	}
	for i := range live {
		if live[i] != derived[i] {
			return fmt.Errorf("live %v, rebuilt %v", live, derived)
		}
	}
	return nil
}
