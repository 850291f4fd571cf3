package cpu

// Jamais Vu-style replay detection (Config.SquashThreshold): hardware
// counts, per PC, how many times the instruction at that PC has been
// flushed from the pipeline by a fault without ever retiring, and flags
// the context when one PC's count reaches the threshold. The signature
// of a microarchitectural replay attack is exactly that shape — the
// replay handle is squashed by the same fault again and again while the
// victim makes no architectural progress — whereas benign demand paging
// faults once (maybe twice) per page at a PC that then retires and
// clears its counter.
//
// Two clearing rules bound the counters' lifetime:
//
//   - retirement: when a PC retires, its counter is deleted (jvRetire).
//     A loop body that faults on every iteration still retires between
//     faults, so it never accumulates.
//   - epochs: when Config.SquashEpoch > 0 and the cycle counter crosses
//     an epoch boundary, the whole table clears. The clear is lazy —
//     applied at the next counted fault, from the epoch index derived
//     from the current cycle — so it is purely event-driven and
//     bit-identical under fast-forward (no per-cycle work exists to
//     skip).

// jvFault counts a fault-squash of the instruction at pc and raises a
// replay alarm when the count reaches the configured threshold. Called
// at every precise fault delivery (deliverFault) and at every
// in-transaction fault that aborts to the abort handler instead of
// trapping — the T-SGX-style self-replay the detector must also see.
func (c *Core) jvFault(ctx *Context, pc int) {
	n := c.cfg.SquashThreshold
	if n <= 0 {
		return
	}
	if ep := c.cfg.SquashEpoch; ep > 0 {
		if e := c.cycle / ep; e != ctx.jvEpoch {
			ctx.jvEpoch = e
			clear(ctx.jvCounts)
		}
	}
	if ctx.jvCounts == nil {
		ctx.jvCounts = make(map[int]uint32)
	}
	ctx.jvCounts[pc]++
	if ctx.jvCounts[pc] == uint32(n) {
		// Exactly-at-threshold so a sustained replay raises one alarm
		// per trip, not one per further squash.
		ctx.stats.ReplayAlarms++
	}
}

// jvRetire clears the retired PC's squash counter: re-execution that
// reaches retirement is forward progress, not a replay.
func (c *Core) jvRetire(ctx *Context, pc int) {
	if c.cfg.SquashThreshold > 0 && len(ctx.jvCounts) > 0 {
		delete(ctx.jvCounts, pc)
	}
}

// jvReset drops all detector state (program replacement: PCs name
// different instructions now).
func (ctx *Context) jvReset() {
	ctx.jvCounts = nil
	ctx.jvEpoch = 0
}
