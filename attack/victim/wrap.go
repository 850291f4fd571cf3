// Program surgery for the defense suite: transactional wrapping (T-SGX
// and the §7.1 TSX replay handle share it) and page-touch prefaces
// (pf-oblivious scheduling). Both transforms are append-only — original
// instruction indices are untouched, so every branch target and every
// Mark stays valid without remapping. Halts are rewritten in place to
// jump into an appended epilogue; the new code (prologue, epilogue,
// abort handler) lives past the original end and the Layout's Entry
// points into it.
package victim

import (
	"fmt"

	"microscope/sim/isa"
)

// WrapTx returns a copy of the layout whose program runs inside a TSX
// transaction: TxBegin at entry, TxEnd before every halt, and an abort
// handler that retries the transaction until the abort budget is spent.
//
// The handler thresholds on isa.AbortReg (R15), which the core loads
// with the cumulative abort count at every abort — the T-SGX idiom. On
// exhaustion, haltOnExhaust selects the policy:
//
//   - true (T-SGX defense): halt. The enclave refuses to keep feeding
//     replay windows to a fault-pinning attacker; detection is the
//     abort count itself.
//   - false (§7.1 attacker handle): fall back to running the body
//     non-transactionally so the victim still completes. Each abort up
//     to the budget re-executed the body from TxBegin — one replay
//     window per abort, no page fault ever delivered.
//
// R15 is clobbered (it is the architecture's abort register); no
// builtin victim reads R15 before writing it.
func WrapTx(l *Layout, budget int64, haltOnExhaust bool) (*Layout, error) {
	if budget <= 0 {
		return nil, fmt.Errorf("victim: WrapTx budget %d, want > 0", budget)
	}
	n := len(l.Prog.Instrs)
	instrs := make([]isa.Instr, n, n+7)
	copy(instrs, l.Prog.Instrs)

	const (
		offEnd     = 0 // +n: txend
		offHalt    = 1 // +n: halt
		offBegin   = 2 // +n: txbegin -> handler (entry and retry point)
		offBody    = 3 // +n: jmp original entry
		offHandler = 4 // +n: addimm r15, r15, -budget
		offRetry   = 5 // +n: blt r15, r0 -> txbegin
		offExhaust = 6 // +n: halt | jmp original entry
	)

	// In-place: every halt becomes a jump to the txend epilogue.
	for i := range instrs {
		if instrs[i].Op == isa.OpHalt {
			instrs[i] = isa.Instr{Op: isa.OpJmp, Target: n + offEnd, Label: "tx.end"}
		}
	}
	exhaust := isa.Instr{Op: isa.OpJmp, Target: l.Entry, Label: "tx.body"}
	if haltOnExhaust {
		exhaust = isa.Instr{Op: isa.OpHalt}
	}
	instrs = append(instrs,
		isa.Instr{Op: isa.OpTxEnd}, // tx.end
		isa.Instr{Op: isa.OpHalt},  // tx.halt
		isa.Instr{Op: isa.OpTxBegin, Target: n + offHandler, Label: "tx.handler"}, // tx.begin
		isa.Instr{Op: isa.OpJmp, Target: l.Entry, Label: "tx.body"},               // -> body
		isa.Instr{Op: isa.OpAddImm, Rd: isa.R15, Rs1: isa.R15, Imm: -budget},      // tx.handler
		isa.Instr{Op: isa.OpBlt, Rs1: isa.R15, Rs2: isa.R0, Target: n + offBegin, Label: "tx.begin"},
		exhaust,
	)

	labels := make(map[string]int, len(l.Prog.Labels)+4)
	for name, idx := range l.Prog.Labels {
		labels[name] = idx
	}
	labels["tx.end"] = n + offEnd
	labels["tx.begin"] = n + offBegin
	labels["tx.body"] = l.Entry
	labels["tx.handler"] = n + offHandler

	marks := make(map[string]int, len(l.Marks)+1)
	for name, idx := range l.Marks {
		marks[name] = idx
	}
	marks["tx.begin"] = n + offBegin

	out := *l
	out.Name = l.Name + "+tx"
	out.Prog = &isa.Program{Instrs: instrs, Labels: labels}
	out.Entry = n + offBegin
	out.Marks = marks
	if err := out.Prog.Validate(); err != nil {
		return nil, fmt.Errorf("victim: WrapTx(%s): %w", l.Name, err)
	}
	return &out, nil
}

// WithPreface returns a copy of the layout whose program first touches
// the base page of every data region, then zeroes the scratch register
// and falls through to the original entry. A pf-oblivious runtime
// pre-touches its working set so the attacker's cleared present bit is
// consumed by a preface load — a window that carries no secret-
// dependent transients — instead of by the victim's real access.
//
// R15 is the scratch register, restored to zero before the body.
func WithPreface(l *Layout) *Layout {
	n := len(l.Prog.Instrs)
	instrs := make([]isa.Instr, n, n+2*len(l.Regions)+2)
	copy(instrs, l.Prog.Instrs)

	entry := len(instrs)
	for _, r := range l.Regions {
		instrs = append(instrs,
			isa.Instr{Op: isa.OpMovImm, Rd: isa.R15, Imm: int64(r.VA)},
			isa.Instr{Op: isa.OpLoad, Rd: isa.R15, Rs1: isa.R15},
		)
	}
	instrs = append(instrs,
		isa.Instr{Op: isa.OpMovImm, Rd: isa.R15, Imm: 0},
		isa.Instr{Op: isa.OpJmp, Target: l.Entry, Label: "preface.body"},
	)

	labels := make(map[string]int, len(l.Prog.Labels)+2)
	for name, idx := range l.Prog.Labels {
		labels[name] = idx
	}
	labels["preface"] = entry
	labels["preface.body"] = l.Entry

	out := *l
	out.Name = l.Name + "+preface"
	out.Prog = &isa.Program{Instrs: instrs, Labels: labels}
	out.Entry = entry
	return &out
}
