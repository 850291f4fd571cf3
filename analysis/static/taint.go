package static

import "microscope/sim/isa"

// Pass 2: forward taint dataflow with lightweight constant/provenance
// propagation, to a fixpoint over the CFG.
//
// Each register carries two abstract facts:
//
//   - taint: the value is derived from declared secrets (explicitly
//     through dataflow, or implicitly by being written under a
//     secret-dependent branch);
//   - an abstract value: vExact (a known 64-bit constant — victims build
//     data-page bases with MovImm, so most addresses resolve), vBased (a
//     known base plus an unknown additive offset — a table base indexed
//     by a runtime value), or vUnknown.
//
// The abstract value is what lets the analyzer decide whether a load
// reads secret memory (its address lands in a Secrets.Mems range) and
// whether a memory access is a usable replay handle (address independent
// of secrets).

type valKind uint8

const (
	vUnknown valKind = iota
	vExact           // value is exactly v
	vBased           // value is v plus an unknown offset (same data page in practice)
)

type absVal struct {
	kind valKind
	v    uint64
}

func exactVal(v uint64) absVal { return absVal{kind: vExact, v: v} }

// regState is the dataflow fact at a program point.
type regState struct {
	taint uint32 // bitmask over the 32 architectural registers
	vals  [isa.NumRegs]absVal
}

func regBit(r isa.Reg) uint32 {
	return 1 << uint(r)
}

func (st *regState) tainted(r isa.Reg) bool {
	if !r.Valid() {
		return false
	}
	return st.taint&regBit(r) != 0
}

func (st *regState) val(r isa.Reg) absVal {
	if !r.Valid() {
		return absVal{}
	}
	return st.vals[r]
}

func (st *regState) set(r isa.Reg, v absVal, tainted bool) {
	if !r.Valid() {
		return
	}
	st.vals[r] = v
	if tainted {
		st.taint |= regBit(r)
	} else {
		st.taint &^= regBit(r)
	}
}

// mergeInto joins src into dst (set union for taint, lattice meet for
// values) and reports whether dst changed.
func mergeInto(dst *regState, src *regState) bool {
	changed := false
	if dst.taint|src.taint != dst.taint {
		dst.taint |= src.taint
		changed = true
	}
	for i := range dst.vals {
		m := meetVal(dst.vals[i], src.vals[i])
		if m != dst.vals[i] {
			dst.vals[i] = m
			changed = true
		}
	}
	return changed
}

func meetVal(a, b absVal) absVal {
	switch {
	case a == b:
		return a
	case a.kind == vUnknown || b.kind == vUnknown:
		return absVal{}
	case a.v == b.v:
		// Same base, different precision: keep the weaker claim.
		return absVal{kind: vBased, v: a.v}
	default:
		return absVal{}
	}
}

// addVals models pointer arithmetic: adding a known offset preserves
// exactness; adding an unknown offset to a known base keeps the base as
// provenance (vBased). Two distinct bases, or no base at all, is unknown.
func addVals(a, b absVal) absVal {
	switch {
	case a.kind == vExact && b.kind == vExact:
		return exactVal(a.v + b.v)
	case a.kind != vUnknown && b.kind == vExact:
		return absVal{kind: vBased, v: a.v + b.v}
	case a.kind == vExact && b.kind != vUnknown:
		return absVal{kind: vBased, v: a.v + b.v}
	case a.kind != vUnknown && b.kind == vUnknown:
		return absVal{kind: vBased, v: a.v}
	case a.kind == vUnknown && b.kind != vUnknown:
		return absVal{kind: vBased, v: b.v}
	default:
		return absVal{}
	}
}

// step applies one instruction's transfer function to st. ctrlDep marks
// instructions control-dependent on a secret branch: their destinations
// are tainted regardless of operands (implicit flow).
func step(st *regState, in isa.Instr, ctrlDep bool, sec Secrets, cfg Config) {
	d := in.Dest()
	if d == isa.NoReg {
		return // stores, branches, fences, tx markers: no register effect
	}
	// Taint flows from every source; the value folds to a constant
	// when every source is one. An unused source slot (NoReg) reads as
	// an untainted unknown.
	src := in.Sources()
	a, b := st.val(src[0]), st.val(src[1])
	t := st.tainted(src[0]) || st.tainted(src[1])
	exact := (src[0] == isa.NoReg || a.kind == vExact) && (src[1] == isa.NoReg || b.kind == vExact)

	var v absVal // zero value: unknown
	switch in.Op {
	case isa.OpMov, isa.OpFMov:
		v = a // a copy keeps the source's provenance
	case isa.OpAdd:
		v = addVals(a, b)
	case isa.OpAddImm:
		v = addVals(a, exactVal(uint64(in.Imm)))
	case isa.OpSub:
		// A known offset below a known base keeps the base as
		// provenance, exact when the base is.
		if a.kind != vUnknown && b.kind == vExact {
			v = absVal{kind: a.kind, v: a.v - b.v}
		}
	case isa.OpFAdd, isa.OpFMul, isa.OpFDiv:
		// Float bit patterns are not tracked; taint still flows.
	case isa.OpLoad, isa.OpLoad32, isa.OpLoadF:
		// Secret-indexed loads yield secret-derived values (t from the
		// base register), and so does a load of declared secret memory.
		if a.kind != vUnknown && sec.memTainted(a.v+uint64(in.Imm)) {
			t = true
		}
	case isa.OpRdrand:
		t = cfg.TaintRdrand
	default:
		// The remaining ALU ops fold through sim/isa; rdtsc is
		// nondeterministic but public.
		if exact {
			if r, ok := in.Eval(a.v, b.v); ok {
				v = exactVal(r)
			}
		}
	}
	if ctrlDep {
		t = true // implicit flow: written under a secret-dependent branch
	}
	if sec.regSecret(d) {
		t = true // declared secret-home register: writes stay secret
	}
	st.set(d, v, t)
}

// taintInfo is the result of pass 2, consumed by the classifier.
type taintInfo struct {
	// in[i] is the dataflow fact immediately before instruction i.
	// Unreachable instructions keep the zero state.
	in []regState
	// ctrl[i] marks instructions control-dependent on a tainted branch.
	ctrl []bool
	// reached[i] marks instructions reachable from the entry.
	reached []bool
	sec     Secrets
	cfg     Config
}

// dataflow runs the register fixpoint for a fixed control-dependence set
// and returns the per-instruction in-states plus the reachability set.
func dataflow(g *CFG, sec Secrets, cfg Config, ctrl []bool) ([]regState, []bool) {
	entry := regState{}
	for _, r := range sec.Regs {
		if r.Valid() {
			entry.taint |= regBit(r)
		}
	}
	blockIn := make([]regState, len(g.Blocks))
	seen := make([]bool, len(g.Blocks))
	blockIn[0], seen[0] = entry, true
	work := []int{0}
	for len(work) > 0 {
		bi := work[0]
		work = work[1:]
		st := blockIn[bi]
		blk := g.Blocks[bi]
		for i := blk.Start; i < blk.End; i++ {
			step(&st, g.Prog.Instrs[i], ctrl[i], sec, cfg)
		}
		for _, sb := range blk.Succs {
			if !seen[sb] {
				seen[sb], blockIn[sb] = true, st
				work = append(work, sb)
			} else if mergeInto(&blockIn[sb], &st) {
				work = append(work, sb)
			}
		}
	}
	in := make([]regState, g.Prog.Len())
	reached := make([]bool, g.Prog.Len())
	for bi := range g.Blocks {
		if !seen[bi] {
			continue
		}
		st := blockIn[bi]
		blk := g.Blocks[bi]
		for i := blk.Start; i < blk.End; i++ {
			in[i], reached[i] = st, true
			step(&st, g.Prog.Instrs[i], ctrl[i], sec, cfg)
		}
	}
	return in, reached
}

// taint iterates the register fixpoint and the control-dependence
// computation to a joint fixpoint: branches found tainted widen the
// control-dependent region, which (through implicit flow) can taint
// further branches. Both sets only grow, so this terminates.
func taint(g *CFG, sec Secrets, cfg Config) *taintInfo {
	n := g.Prog.Len()
	ctrl := make([]bool, n)
	var in []regState
	var reached []bool
	for iter := 0; iter <= n; iter++ {
		in, reached = dataflow(g, sec, cfg, ctrl)
		changed := false
		for i, instr := range g.Prog.Instrs {
			if !reached[i] || !instr.Op.IsCondBranch() {
				continue
			}
			if !in[i].tainted(instr.Rs1) && !in[i].tainted(instr.Rs2) {
				continue
			}
			succs := g.InstrSuccs(i)
			if len(succs) < 2 {
				continue
			}
			// Control-dependent region: instructions reachable from one
			// successor but not the other (symmetric difference; the
			// post-dominated join is reachable from both and excluded).
			r1, r2 := g.reachableFrom(succs[0]), g.reachableFrom(succs[1])
			for j := 0; j < n; j++ {
				if r1[j] != r2[j] && !ctrl[j] {
					ctrl[j] = true
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return &taintInfo{in: in, ctrl: ctrl, reached: reached, sec: sec, cfg: cfg}
}
