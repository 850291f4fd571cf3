package verify

import (
	"fmt"
	"sort"

	"microscope/analysis/sidechan"
	"microscope/analysis/static"
	"microscope/sim/cpu"
	"microscope/sim/isa"
	"microscope/sim/mem"
)

// The path-sensitive abstract interpretation.
//
// The domain is relational in the simplest useful sense: every register
// and memory word carries BOTH its concrete value (the layout's initial
// image interpreted exactly, with the same sim/isa semantics the core
// executes: Instr.Eval, Instr.Taken, RandNext) and a taint mask over
// secret atoms. Concrete values make addresses and branch outcomes
// decidable — no widening, no alias blowup — while the masks record
// which secret inputs each value is a function of.
// Path sensitivity enters at secret-dependent conditional branches:
// both successors are explored (up to Config.MaxPaths), and inside the
// branch's control-dependence region every write additionally absorbs
// the branch condition's atoms (implicit flow). The control-dependence
// region of a branch is the symmetric difference of the instruction
// sets reachable from its two successors — analysis/static's
// CFG.BranchRegions, the regions its taint pass and sim/sanitizer use,
// here applied per path.
//
// Squash shadows are tracked dynamically: executing a replay handle (a
// memory access with an attacker-predictable, untainted address, or a
// txbegin) opens a shadow covering the next ROB-window dynamic
// instructions; a fence closes every open shadow, because a fence in a
// faulting handle's shadow never retires and therefore blocks all
// younger dispatch. A "site" is a channel-bearing instruction (memory
// access, divide, rdrand) executed inside an open shadow with tainted
// operands or a tainted path condition.

// Atom is one independently assignable secret input: a declared secret
// register, an 8-byte-aligned word of declared secret memory, or the
// RDRAND stream.
type Atom struct {
	// Kind is "reg", "mem" or "rand".
	Kind string `json:"kind"`
	// Reg is set for kind "reg".
	Reg isa.Reg `json:"reg,omitempty"`
	// Addr is the word-aligned virtual address for kind "mem".
	Addr mem.Addr `json:"addr,omitempty"`
}

// String renders the atom for text reports.
func (a Atom) String() string {
	switch a.Kind {
	case "reg":
		return fmt.Sprintf("reg:%s", a.Reg)
	case "mem":
		return fmt.Sprintf("mem:%#x", a.Addr)
	}
	return a.Kind
}

// overflowBit collapses atoms past the 64-bit mask capacity; a site
// carrying it depends on "some further secret" without saying which.
const overflowBit = 63

// atomTable interns atoms into mask bit positions.
type atomTable struct {
	atoms []Atom
	index map[Atom]int
}

func newAtomTable() *atomTable {
	return &atomTable{index: make(map[Atom]int)}
}

// mask returns the taint bit for a, interning it if new.
func (t *atomTable) mask(a Atom) uint64 {
	i, ok := t.index[a]
	if !ok {
		i = len(t.atoms)
		if i >= overflowBit {
			i = overflowBit
		} else {
			t.atoms = append(t.atoms, a)
		}
		t.index[a] = i
	}
	return 1 << uint(i)
}

// resolve expands a mask back into its atoms.
func (t *atomTable) resolve(mask uint64) []Atom {
	var out []Atom
	for i, a := range t.atoms {
		if mask&(1<<uint(i)) != 0 {
			out = append(out, a)
		}
	}
	if mask&(1<<overflowBit) != 0 {
		out = append(out, Atom{Kind: "overflow"})
	}
	return out
}

// openShadow is one armed replay handle's remaining squash window.
type openShadow struct {
	handlePC int
	left     int
}

// pathState is the abstract machine state of one explored path.
type pathState struct {
	pc    int
	steps int
	regs  [isa.NumRegs]uint64
	regT  [isa.NumRegs]uint64
	memV  map[mem.Addr]byte   // overlay over the layout image
	memT  map[mem.Addr]uint64 // word-aligned taint overlay
	// decisions maps cond-branch pc -> accumulated condition taint of
	// forks taken there; pathTaint(pc) ORs the entries whose
	// control-dependence region contains pc.
	decisions map[int]uint64
	shadows   []openShadow
	rng       uint64
	inTx      bool
	ckptV     [isa.NumRegs]uint64
	ckptT     [isa.NumRegs]uint64
	abortPC   int
	txAborts  uint64
}

func (st *pathState) clone() *pathState {
	c := *st
	c.memV = make(map[mem.Addr]byte, len(st.memV))
	for k, v := range st.memV {
		c.memV[k] = v
	}
	c.memT = make(map[mem.Addr]uint64, len(st.memT))
	for k, v := range st.memT {
		c.memT[k] = v
	}
	c.decisions = make(map[int]uint64, len(st.decisions))
	for k, v := range st.decisions {
		c.decisions[k] = v
	}
	c.shadows = append([]openShadow(nil), st.shadows...)
	return &c
}

// siteKey dedups site observations across paths.
type siteKey struct {
	pc int
	ch sidechan.Channel
}

type siteAcc struct {
	atoms    uint64
	implicit bool // false once any explicit (data-taint) observation lands
	handle   int
	distance int
}

// explorer runs the exploration and accumulates sites.
type explorer struct {
	sub    *Subject
	cfg    Config
	prog   *isa.Program
	atoms  *atomTable
	region map[int][]bool

	base     map[mem.Addr]byte // the layout's initial memory image
	regAtoms map[isa.Reg]uint64
	randMask uint64

	sites map[siteKey]*siteAcc
	// hotOps maps channel-bearing pcs executed with tainted operands
	// (shadowed or not — normal mispredict shadows transiently expose
	// them too), and taintedBranches the cond branches whose condition
	// ever carried taint. Both feed the repair planner.
	taintedBranches map[int]bool
	hotOps          map[int]uint64

	paths    int
	steps    int
	complete bool
	bailout  string

	// handleVA is the auto-derived replay-handle address: the first
	// untainted load the baseline path executes.
	handleVA mem.Addr
}

// explore runs the abstract interpretation over the subject.
func explore(sub *Subject, cfg Config) (*explorer, error) {
	prog := sub.Layout.Prog
	if prog == nil || prog.Len() == 0 {
		return nil, fmt.Errorf("verify: subject %q has no program", sub.Layout.Name)
	}
	g, err := static.BuildCFG(prog)
	if err != nil {
		return nil, fmt.Errorf("verify: %v", err)
	}
	region := make(map[int][]bool)
	for _, r := range g.BranchRegions() {
		region[r.PC] = r.Region
	}
	ex := &explorer{
		sub:             sub,
		cfg:             cfg,
		prog:            prog,
		atoms:           newAtomTable(),
		region:          region,
		base:            make(map[mem.Addr]byte),
		regAtoms:        make(map[isa.Reg]uint64),
		sites:           make(map[siteKey]*siteAcc),
		taintedBranches: make(map[int]bool),
		hotOps:          make(map[int]uint64),
		complete:        true,
		handleVA:        sub.Handle,
	}
	for _, r := range sub.Layout.Regions {
		for i, b := range r.Init {
			if b != 0 {
				ex.base[r.VA+mem.Addr(i)] = b
			}
		}
	}
	// Eager atoms for the declared secret-home registers, in declaration
	// order so bit positions are stable.
	for _, r := range sub.Secrets.Regs {
		ex.regAtoms[r] = ex.atoms.mask(Atom{Kind: "reg", Reg: r})
	}

	init := &pathState{
		pc:        sub.Layout.Entry,
		memV:      make(map[mem.Addr]byte),
		memT:      make(map[mem.Addr]uint64),
		decisions: make(map[int]uint64),
		rng:       isa.RandState(cpu.DefaultConfig().RandSeed),
		abortPC:   -1,
	}
	for r, m := range ex.regAtoms {
		init.regT[r] = m
	}

	stack := []*pathState{init}
	for len(stack) > 0 {
		st := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		ex.paths++
		if ex.paths > cfg.MaxPaths {
			ex.incomplete("path budget exhausted")
			break
		}
		ex.runPath(st, &stack)
		if ex.steps > cfg.MaxTotalSteps {
			ex.incomplete("total step budget exhausted")
			break
		}
	}
	return ex, nil
}

func (ex *explorer) incomplete(why string) {
	ex.complete = false
	if ex.bailout == "" {
		ex.bailout = why
	}
}

// runPath interprets st until it halts or exhausts its budget, pushing
// forked states onto the stack.
func (ex *explorer) runPath(st *pathState, stack *[]*pathState) {
	for {
		if st.pc < 0 || st.pc >= ex.prog.Len() {
			return
		}
		if st.steps >= ex.cfg.MaxStepsPerPath {
			ex.incomplete("per-path step budget exhausted")
			return
		}
		if ex.steps >= ex.cfg.MaxTotalSteps {
			ex.incomplete("total step budget exhausted")
			return
		}
		st.steps++
		ex.steps++
		if halt := ex.step(st, stack); halt {
			return
		}
	}
}

// pathTaint ORs the decision taints whose control-dependence region
// contains pc.
func (ex *explorer) pathTaint(st *pathState, pc int) uint64 {
	var t uint64
	for bpc, bt := range st.decisions {
		if r := ex.region[bpc]; r != nil && r[pc] {
			t |= bt
		}
	}
	return t
}

// step executes one instruction; it returns true when the path ends.
func (ex *explorer) step(st *pathState, stack *[]*pathState) bool {
	in := ex.prog.Instrs[st.pc]
	pathT := ex.pathTaint(st, st.pc)
	// Only the registers the op reads: an unused operand slot may hold
	// isa.NoReg, which indexes no register (the core reads it as 0).
	var a, b, aT, bT uint64
	srcs := in.Sources()
	if r := srcs[0]; r != isa.NoReg {
		a, aT = st.regs[r], st.regT[r]
	}
	if r := srcs[1]; r != isa.NoReg {
		b, bT = st.regs[r], st.regT[r]
	}

	ex.observe(st, in, pathT)

	// Shadow bookkeeping: age the open shadows, then open a new one for
	// a handle so it covers the NEXT window instructions, and let a
	// fence close everything (a shadowed fence never retires, so nothing
	// younger ever issues).
	advanceShadows := func(opened bool) {
		live := st.shadows[:0]
		for _, s := range st.shadows {
			if s.left--; s.left > 0 {
				live = append(live, s)
			}
		}
		st.shadows = live
		if opened {
			st.shadows = append(st.shadows, openShadow{handlePC: st.pc, left: shadowWindow(ex.cfg.Static)})
		}
	}
	if in.Op == isa.OpFence {
		st.shadows = st.shadows[:0]
	} else {
		advanceShadows(ex.isHandle(in, aT))
	}

	next := st.pc + 1
	set := func(d isa.Reg, v, t uint64) {
		t |= pathT
		if m, ok := ex.regAtoms[d]; ok {
			// Declared secret-home register: writes stay secret (the
			// materialized immediate IS the secret constant) — mirrors
			// analysis/static's regSecret rule.
			t |= m
		}
		st.regs[d] = v
		st.regT[d] = t
	}

	switch in.Op {
	case isa.OpNop, isa.OpFence:
	case isa.OpHalt:
		return true
	case isa.OpLoad, isa.OpLoadF:
		v, t := ex.loadMem(st, a+uint64(in.Imm), 8)
		set(in.Rd, v, t|aT)
	case isa.OpLoad32:
		v, t := ex.loadMem(st, a+uint64(in.Imm), 4)
		set(in.Rd, v, t|aT)
	case isa.OpStore, isa.OpStoreF:
		ex.storeMem(st, a+uint64(in.Imm), b, 8, bT|aT|pathT)
	case isa.OpStore32:
		ex.storeMem(st, a+uint64(in.Imm), b, 4, bT|aT|pathT)
	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge:
		next = ex.branch(st, stack, in.Taken(a, b), aT|bT, in.Target)
	case isa.OpJmp:
		next = in.Target
	case isa.OpRdtsc:
		set(in.Rd, uint64(st.steps), 0)
	case isa.OpRdrand:
		var v, t uint64
		st.rng, v = isa.RandNext(st.rng)
		if ex.cfg.Static.TaintRdrand {
			if ex.randMask == 0 {
				ex.randMask = ex.atoms.mask(Atom{Kind: "rand"})
			}
			t = ex.randMask
		}
		set(in.Rd, v, t)
	case isa.OpTxBegin:
		st.inTx = true
		st.ckptV = st.regs
		st.ckptT = st.regT
		st.abortPC = in.Target
	case isa.OpTxEnd:
		st.inTx = false
	case isa.OpTxAbort:
		if st.inTx {
			st.txAborts++
			st.regs = st.ckptV
			st.regT = st.ckptT
			st.regs[isa.AbortReg] = st.txAborts
			st.regT[isa.AbortReg] = 0
			st.inTx = false
			next = st.abortPC
		}
	default:
		// An ALU or FP op: its value from sim/isa, its taint the union
		// of its sources'. BuildCFG guarantees defined opcodes; an op
		// Eval does not compute is a new op the verifier does not
		// model yet.
		v, ok := in.Eval(a, b)
		if !ok {
			ex.incomplete(fmt.Sprintf("unmodeled op %s at pc %d", in.Op, st.pc))
			return true
		}
		var t uint64
		for _, r := range in.Sources() {
			if r != isa.NoReg {
				t |= st.regT[r]
			}
		}
		set(in.Rd, v, t)
	}
	st.pc = next
	return false
}

// branch resolves a conditional: untainted conditions follow the
// concrete outcome; tainted ones record the decision and fork the other
// successor.
func (ex *explorer) branch(st *pathState, stack *[]*pathState, taken bool, condT uint64, target int) int {
	concrete, other := st.pc+1, target
	if taken {
		concrete, other = target, st.pc+1
	}
	if condT == 0 || concrete == other {
		return concrete
	}
	ex.taintedBranches[st.pc] = true
	st.decisions[st.pc] |= condT
	if ex.paths+len(*stack) < ex.cfg.MaxPaths {
		fork := st.clone()
		fork.pc = other
		*stack = append(*stack, fork)
	} else {
		ex.incomplete("path budget exhausted")
	}
	return concrete
}

// isHandle reports whether in is a replay handle: an attacker-
// predictable (untainted-address) memory access, or a txbegin.
func (ex *explorer) isHandle(in isa.Instr, addrT uint64) bool {
	if in.Op == isa.OpTxBegin {
		return true
	}
	return in.Op.IsMem() && addrT == 0
}

// observe records a site if in executes inside an open shadow with a
// secret-dependent effect on its channel.
func (ex *explorer) observe(st *pathState, in isa.Instr, pathT uint64) {
	// Auto-derive the replay handle from the first untainted load.
	if ex.handleVA == 0 && in.Op.IsLoad() && st.regT[in.Rs1] == 0 {
		ex.handleVA = st.regs[in.Rs1] + uint64(in.Imm)
	}
	ch := sidechan.OpChannel(in.Op)
	if ch == sidechan.ChanNone {
		return
	}
	var dataT uint64
	switch {
	case in.Op.IsMem():
		dataT = st.regT[in.Rs1] // the address selects the cache set
	case in.Op == isa.OpDiv || in.Op == isa.OpFDiv:
		dataT = st.regT[in.Rs1] | st.regT[in.Rs2]
	case in.Op == isa.OpRdrand:
		if ex.cfg.Static.TaintRdrand {
			if ex.randMask == 0 {
				ex.randMask = ex.atoms.mask(Atom{Kind: "rand"})
			}
			dataT = ex.randMask
		}
	}
	if dataT != 0 {
		// Hot regardless of replay shadows: an ordinary mispredict
		// shadow can expose the op transiently too, so the repair
		// planner fences it either way.
		ex.hotOps[st.pc] |= dataT
	}
	if len(st.shadows) == 0 || (dataT == 0 && pathT == 0) {
		return
	}
	sh := st.shadows[0]
	k := siteKey{pc: st.pc, ch: ch}
	acc, ok := ex.sites[k]
	if !ok {
		acc = &siteAcc{
			implicit: dataT == 0,
			handle:   sh.handlePC,
			distance: shadowWindow(ex.cfg.Static) - sh.left + 1,
		}
		ex.sites[k] = acc
	}
	acc.atoms |= dataT | pathT
	if dataT != 0 {
		acc.implicit = false
	}
}

// loadMem reads size bytes little-endian, returning value and taint.
func (ex *explorer) loadMem(st *pathState, addr mem.Addr, size int) (uint64, uint64) {
	var v uint64
	for i := 0; i < size; i++ {
		var byteV byte
		if ov, ok := st.memV[addr+mem.Addr(i)]; ok {
			byteV = ov
		} else {
			byteV = ex.base[addr+mem.Addr(i)]
		}
		v |= uint64(byteV) << (8 * uint(i))
	}
	return v, ex.memTaint(st, addr, size)
}

// memTaint unions the taint of the words overlapping [addr, addr+size).
func (ex *explorer) memTaint(st *pathState, addr mem.Addr, size int) uint64 {
	var t uint64
	for w := addr &^ 7; w < addr+mem.Addr(size); w += 8 {
		if ov, ok := st.memT[w]; ok {
			t |= ov
		} else {
			t |= ex.secretWordMask(w)
		}
	}
	return t
}

// secretWordMask interns (lazily) an atom for a declared-secret word.
func (ex *explorer) secretWordMask(w mem.Addr) uint64 {
	for _, m := range ex.sub.Secrets.Mems {
		if m.Contains(w) {
			return ex.atoms.mask(Atom{Kind: "mem", Addr: w})
		}
	}
	return 0
}

// shadowWindow resolves the configured ROB window.
func shadowWindow(c static.Config) int {
	if c.ROBWindow > 0 {
		return c.ROBWindow
	}
	return static.DefaultROBWindow
}

// storeMem writes size bytes little-endian with the given taint.
func (ex *explorer) storeMem(st *pathState, addr mem.Addr, v uint64, size int, t uint64) {
	for i := 0; i < size; i++ {
		st.memV[addr+mem.Addr(i)] = byte(v >> (8 * uint(i)))
	}
	for w := addr &^ 7; w < addr+mem.Addr(size); w += 8 {
		if size == 8 && addr == w {
			// Full aligned overwrite: the old taint (including a secret
			// atom) is gone.
			st.memT[w] = t
		} else {
			st.memT[w] = t | ex.memTaintWord(st, w)
		}
	}
}

func (ex *explorer) memTaintWord(st *pathState, w mem.Addr) uint64 {
	if ov, ok := st.memT[w]; ok {
		return ov
	}
	return ex.secretWordMask(w)
}

// siteList renders the accumulated sites deterministically, iterating
// the site keys in sorted (pc, channel) order.
func (ex *explorer) siteList() []Site {
	keys := make([]siteKey, 0, len(ex.sites))
	for k := range ex.sites {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].pc != keys[j].pc {
			return keys[i].pc < keys[j].pc
		}
		return keys[i].ch < keys[j].ch
	})
	out := make([]Site, 0, len(keys))
	for _, k := range keys {
		acc := ex.sites[k]
		out = append(out, Site{
			PC:       k.pc,
			Instr:    fmt.Sprintf("%v", ex.prog.Instrs[k.pc]),
			Channel:  k.ch,
			Handle:   acc.handle,
			Distance: acc.distance,
			Implicit: acc.implicit,
			Atoms:    ex.atoms.resolve(acc.atoms),
		})
	}
	return out
}
