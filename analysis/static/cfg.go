package static

import (
	"fmt"
	"slices"

	"microscope/sim/isa"
)

// Pass 1: control-flow graph construction and well-formedness.

// Block is a basic block: instructions [Start, End) with no internal
// control transfer, and Succs naming successor blocks.
type Block struct {
	Start, End int
	Succs      []int
}

// CFG is the instruction- and block-level control-flow graph of a
// program.
type CFG struct {
	Prog *isa.Program
	// Blocks in ascending Start order; Blocks[0].Start == 0.
	Blocks []Block
	// BlockOf maps an instruction index to its block index.
	BlockOf []int
	// succ holds every instruction's successors back to back;
	// instruction i's are succ[succOff[i]:succOff[i+1]].
	succ    []int
	succOff []int
}

// InstrSuccs returns the instruction-level successors of index i.
// OpTxAbort falls through (outside a transaction it retires as a no-op)
// and is over-approximated as jumping to any txbegin abort handler in
// the program. The slice is computed once by BuildCFG and shared:
// callers must not modify it.
func (g *CFG) InstrSuccs(i int) []int {
	lo, hi := g.succOff[i], g.succOff[i+1]
	return g.succ[lo:hi:hi]
}

// appendSuccs appends the instruction-level successors of index i to
// dst. txTargets are the abort-handler targets of every OpTxBegin, the
// over-approximated abort edges of OpTxAbort, which also falls through.
func appendSuccs(dst []int, p *isa.Program, i int, txTargets []int) []int {
	in := p.Instrs[i]
	switch {
	case in.Op == isa.OpHalt:
		return dst
	case in.Op == isa.OpJmp:
		return append(dst, in.Target)
	case in.Op.IsCondBranch(), in.Op == isa.OpTxBegin:
		if in.Target == i+1 {
			return append(dst, i+1)
		}
		return append(dst, i+1, in.Target)
	case in.Op == isa.OpTxAbort:
		return append(append(dst, i+1), txTargets...)
	default:
		return append(dst, i+1)
	}
}

// Validate checks that p is well formed for execution: every instruction
// passes the ISA-level checks (defined opcode, register classes, in-range
// targets), control cannot fall off the end of the program, and txabort
// has an abort handler to roll back to. sim/cpu runs this at program
// load, turning what used to be execute-time panics into descriptive
// errors.
func Validate(p *isa.Program) error {
	if p == nil {
		return fmt.Errorf("static: nil program")
	}
	if p.Len() == 0 {
		return fmt.Errorf("static: empty program")
	}
	if err := p.Validate(); err != nil {
		return err
	}
	txTargets := txBeginTargets(p)
	var succs []int
	for i := range p.Instrs {
		if p.Instrs[i].Op == isa.OpTxAbort && len(txTargets) == 0 {
			return fmt.Errorf("static: instr %d (%s): txabort with no txbegin abort handler in program",
				i, p.Instrs[i])
		}
		succs = appendSuccs(succs[:0], p, i, txTargets)
		for _, s := range succs {
			if s >= p.Len() {
				return fmt.Errorf("static: instr %d (%s): control falls off the end of the program (missing halt or jmp)",
					i, p.Instrs[i])
			}
		}
	}
	return nil
}

func txBeginTargets(p *isa.Program) []int {
	var ts []int
	for _, in := range p.Instrs {
		if in.Op == isa.OpTxBegin {
			ts = append(ts, in.Target)
		}
	}
	return ts
}

// BuildCFG validates p and partitions it into basic blocks.
func BuildCFG(p *isa.Program) (*CFG, error) {
	if err := Validate(p); err != nil {
		return nil, err
	}
	n := p.Len()
	txTargets := txBeginTargets(p)

	// Leaders: entry, every control-transfer target, and every
	// instruction following a control transfer.
	leader := make([]bool, n)
	leader[0] = true
	for i, in := range p.Instrs {
		switch {
		case in.Op.IsBranch(), in.Op == isa.OpTxBegin, in.Op == isa.OpTxAbort, in.Op == isa.OpHalt:
			if i+1 < n {
				leader[i+1] = true
			}
		}
		if in.Op.IsBranch() || in.Op == isa.OpTxBegin {
			leader[in.Target] = true
		}
	}
	for _, t := range txTargets {
		leader[t] = true
	}

	g := &CFG{Prog: p, BlockOf: make([]int, n), succ: make([]int, 0, 2*n), succOff: make([]int, n+1)}
	for i := range p.Instrs {
		g.succ = appendSuccs(g.succ, p, i, txTargets)
		g.succOff[i+1] = len(g.succ)
	}
	for i := 0; i < n; i++ {
		if leader[i] {
			g.Blocks = append(g.Blocks, Block{Start: i})
		}
		g.BlockOf[i] = len(g.Blocks) - 1
	}
	for b := range g.Blocks {
		if b+1 < len(g.Blocks) {
			g.Blocks[b].End = g.Blocks[b+1].Start
		} else {
			g.Blocks[b].End = n
		}
		for _, s := range g.InstrSuccs(g.Blocks[b].End - 1) {
			sb := g.BlockOf[s]
			if !slices.Contains(g.Blocks[b].Succs, sb) {
				g.Blocks[b].Succs = append(g.Blocks[b].Succs, sb)
			}
		}
	}
	return g, nil
}

// BranchRegion is the control-dependent region of one conditional
// branch: the instructions reachable from exactly one of its two
// successors (symmetric difference — the post-dominated join is
// reachable from both and excluded). This is the same region
// construction the taint pass uses for implicit flows; sim/sanitizer
// consumes it so the dynamic sanitizer's implicit-taint windows agree
// with the static pass instruction for instruction.
type BranchRegion struct {
	// PC is the branch's instruction index.
	PC int
	// Region[i] reports whether instruction i is control-dependent on
	// the branch.
	Region []bool
}

// BranchRegions returns the control-dependent region of every
// two-successor conditional branch in the program, in ascending PC
// order. Branches whose successors coincide (target == fallthrough)
// have no region and are omitted.
func (g *CFG) BranchRegions() []BranchRegion {
	var out []BranchRegion
	for i, in := range g.Prog.Instrs {
		if !in.Op.IsCondBranch() {
			continue
		}
		succs := g.InstrSuccs(i)
		if len(succs) < 2 {
			continue
		}
		r1, r2 := g.reachableFrom(succs[0]), g.reachableFrom(succs[1])
		region := make([]bool, g.Prog.Len())
		for j := range region {
			region[j] = r1[j] != r2[j]
		}
		out = append(out, BranchRegion{PC: i, Region: region})
	}
	return out
}

// reachableFrom returns the instruction set reachable from start
// (inclusive) by following instruction-level successors.
func (g *CFG) reachableFrom(start int) []bool {
	seen := make([]bool, g.Prog.Len())
	stack := []int{start}
	seen[start] = true
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.InstrSuccs(i) {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}
