package cpu

import "microscope/sim/pipeline"

// NumEventKinds is the number of tracer EventKind values. Tooling that
// must be total over event kinds (the sanitizer's classification table,
// its totality test) iterates EventKind(0)..EventKind(NumEventKinds-1).
const NumEventKinds = int(EvTxAbort) + 1

// ShadowTracker receives taint-propagation callbacks from the cycle
// engine. sim/sanitizer implements it; the core only calls it and never
// depends on what it computes, so an attached tracker cannot change
// timing, results, or the trace-event stream. Every call site is guarded
// by a nil check, preserving the zero-overhead-when-off property the
// no-alloc and trace-hash differentials pin down.
//
// Callback timing mirrors the tracer events exactly:
//
//   - ShadowDispatch fires after the entry is pushed into the ROB, with
//     Src operands (and hence rename producers) captured.
//   - ShadowIssue fires after execute: Result, Fault, EffAddr, PhysAddr
//     and WalkCycles are set. forward is the store-buffer entry a load
//     forwarded from (nil otherwise), so store-to-load forwarding can
//     propagate the store's data taint.
//   - ShadowFaultResolved fires when a pending fault is rescinded by the
//     mid-walk PTE race (recheckFault): the entry's Result was re-read
//     from memory and its taint must be re-derived.
//   - ShadowRetire fires at commit, before architectural effects; this
//     is where architectural shadow registers and shadow memory update
//     (transient stores never reach shadow memory).
//   - ShadowSquash fires once per squashed entry, before the ROB is
//     truncated (the entry still holds its pre-squash state); pending
//     transmit events of that entry finalize as transient.
//   - ShadowTxAbort fires after a transaction rollback restored the
//     architectural registers, so shadow registers roll back too.
type ShadowTracker interface {
	ShadowDispatch(ctx *Context, e *pipeline.Entry)
	ShadowIssue(ctx *Context, e *pipeline.Entry, forward *pipeline.Entry)
	ShadowFaultResolved(ctx *Context, e *pipeline.Entry)
	ShadowRetire(ctx *Context, e *pipeline.Entry)
	ShadowSquash(ctx *Context, e *pipeline.Entry)
	ShadowTxAbort(ctx *Context)
}

// SetShadow attaches a shadow-taint tracker (nil detaches).
func (c *Core) SetShadow(s ShadowTracker) { c.shadow = s }

// ShadowTracker returns the attached tracker, or nil.
func (c *Core) ShadowTracker() ShadowTracker { return c.shadow }
