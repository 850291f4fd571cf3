package verify

import (
	"fmt"
	"strings"

	"microscope/attack/microscope"
	"microscope/attack/victim"
	"microscope/sim/cpu"
	"microscope/sim/isa"
	"microscope/sim/kernel"
	"microscope/sim/mem"
	"microscope/sim/trace"
)

// Assignment is one concrete valuation of the secret atoms. The empty
// assignment is the baseline: the layout's own initial image.
type Assignment struct {
	Regs []RegVal `json:"regs,omitempty"`
	Mems []MemVal `json:"mems,omitempty"`
	// Seed replaces the core's RDRAND seed when SeedSet.
	Seed    uint64 `json:"seed,omitempty"`
	SeedSet bool   `json:"seedSet,omitempty"`
}

// RegVal assigns a declared secret-home register. Because such a
// register's secret is materialized as an immediate in the program text
// (e.g. modexp's exponent), the runner both sets the architectural
// register and patches every MovImm/FLoadImm writing it.
type RegVal struct {
	Reg isa.Reg `json:"reg"`
	Val uint64  `json:"val"`
}

// MemVal assigns one 8-byte-aligned word of secret memory.
type MemVal struct {
	Addr mem.Addr `json:"addr"`
	Val  uint64   `json:"val"`
}

// key canonicalizes the assignment for run memoization.
func (a Assignment) key() string {
	var sb strings.Builder
	for _, rv := range a.Regs {
		fmt.Fprintf(&sb, "r%d=%#x;", rv.Reg, rv.Val)
	}
	for _, mv := range a.Mems {
		fmt.Fprintf(&sb, "m%#x=%#x;", mv.Addr, mv.Val)
	}
	if a.SeedSet {
		fmt.Fprintf(&sb, "s=%#x;", a.Seed)
	}
	return sb.String()
}

// runner drives full replay-attack runs of the subject under concrete
// secret assignments and projects their transient footprints.
type runner struct {
	sub      *Subject
	cfg      Config
	ex       *explorer
	handleVA mem.Addr
	memo     map[string]trace.Projections
}

func newRunner(sub *Subject, cfg Config, ex *explorer) *runner {
	h := sub.Handle
	if h == 0 && ex != nil {
		h = ex.handleVA
	}
	return &runner{sub: sub, cfg: cfg, ex: ex, handleVA: h, memo: make(map[string]trace.Projections)}
}

// run returns the transient projections of one full replay-attack run
// under the assignment, memoized on the assignment.
func (r *runner) run(asg Assignment) (trace.Projections, error) {
	k := asg.key()
	if p, ok := r.memo[k]; ok {
		return p, nil
	}
	p, err := r.runOne(asg)
	if err == nil {
		r.memo[k] = p
	}
	return p, err
}

// runOne assembles a fresh platform (a copy of experiments.NewRig, which
// this package cannot call: attack/experiments imports analysis/verify),
// installs the subject with the assignment applied, arms the MicroScope
// module on the replay handle, and runs to completion.
func (r *runner) runOne(asg Assignment) (trace.Projections, error) {
	if r.handleVA == 0 {
		return trace.Projections{}, fmt.Errorf("verify: no replay handle known for %q", r.sub.Layout.Name)
	}
	ccfg := cpu.DefaultConfig()
	if asg.SeedSet {
		ccfg.RandSeed = asg.Seed
	}
	phys := mem.NewPhysMem(victim.PlatformMemBytes)
	core := cpu.NewCore(ccfg, phys)
	k := kernel.New(kernel.DefaultConfig(), phys, core)
	m := microscope.NewModule(k)
	vp, err := k.NewProcess("victim")
	if err != nil {
		return trace.Projections{}, err
	}
	k.Schedule(0, vp)

	lay := r.sub.Layout
	if len(asg.Regs) > 0 {
		patched := *lay
		patched.Prog = patchSecretImms(lay.Prog, asg.Regs)
		lay = &patched
	}
	if err := lay.Install(k, vp); err != nil {
		return trace.Projections{}, err
	}
	for _, mv := range asg.Mems {
		var b [8]byte
		for i := range b {
			b[i] = byte(mv.Val >> (8 * uint(i)))
		}
		if err := k.WriteVirt(vp, mv.Addr, b[:]); err != nil {
			return trace.Projections{}, err
		}
	}

	rcp := &microscope.Recipe{
		Name:           "verify-" + lay.Name,
		Victim:         vp,
		Handle:         r.handleVA,
		HandlerLatency: r.cfg.HandlerLatency,
		MaxReplays:     r.cfg.Replays,
	}
	if err := m.Install(rcp); err != nil {
		return trace.Projections{}, err
	}

	rec := trace.NewRecorder()
	core.SetTracer(rec)
	lay.Start(k, 0)
	for _, rv := range asg.Regs {
		core.Context(0).SetReg(rv.Reg, rv.Val)
	}
	core.Run(r.cfg.MaxCycles)
	if !core.Halted() {
		return trace.Projections{}, fmt.Errorf("verify: run of %q exceeded %d cycles (victim at pc=%d)",
			lay.Name, r.cfg.MaxCycles, core.Context(0).PC())
	}
	return trace.ProjectTransient(rec.Events()), nil
}

// PatchProgram returns a copy of p with every immediate-load of an
// assigned secret-home register rewritten to the assigned value — the
// same program transformation the verifier's dynamic runs apply, so
// external replayers (the SpecSan cross-validation in
// attack/experiments) execute the exact program a witness was found on.
func (a Assignment) PatchProgram(p *isa.Program) *isa.Program {
	return patchSecretImms(p, a.Regs)
}

// patchSecretImms rewrites every immediate-load of an assigned secret-
// home register to the assigned value.
func patchSecretImms(p *isa.Program, regs []RegVal) *isa.Program {
	vals := make(map[isa.Reg]uint64, len(regs))
	for _, rv := range regs {
		vals[rv.Reg] = rv.Val
	}
	out := &isa.Program{Instrs: append([]isa.Instr(nil), p.Instrs...), Labels: p.Labels}
	for i, in := range out.Instrs {
		if in.Op != isa.OpMovImm && in.Op != isa.OpFLoadImm {
			continue
		}
		if v, ok := vals[in.Rd]; ok {
			out.Instrs[i].Imm = int64(v)
		}
	}
	return out
}
