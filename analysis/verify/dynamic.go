package verify

import (
	"encoding/binary"
	"fmt"
	"strings"

	"microscope/attack/microscope"
	"microscope/attack/platform"
	"microscope/attack/victim"
	"microscope/sim/cpu"
	"microscope/sim/isa"
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

// runOne boots a fresh platform with the assignment applied, arms the
// MicroScope module on the replay handle, and runs to completion.
func (r *runner) runOne(asg Assignment) (trace.Projections, error) {
	if r.handleVA == 0 {
		return trace.Projections{}, fmt.Errorf("verify: no replay handle known for %q", r.sub.Layout.Name)
	}
	rig, lay, err := asg.Boot(r.sub.Layout)
	if err != nil {
		return trace.Projections{}, err
	}
	rcp := &microscope.Recipe{
		Name:           "verify-" + lay.Name,
		Victim:         rig.Victim,
		Handle:         r.handleVA,
		HandlerLatency: r.cfg.HandlerLatency,
		MaxReplays:     r.cfg.Replays,
	}
	if err := rig.Module.Install(rcp); err != nil {
		return trace.Projections{}, err
	}

	rec := trace.NewRecorder()
	rig.Core.SetTracer(rec)
	asg.Start(rig, lay)
	if err := rig.Run(r.cfg.MaxCycles); err != nil {
		return trace.Projections{}, fmt.Errorf("verify: run of %q: %w", lay.Name, err)
	}
	return trace.ProjectTransient(rec.Events()), nil
}

// Boot boots a fresh platform and applies the assignment up to the
// start of the run: RDRAND seed, patched secret immediates, installed
// layout, secret memory words. It returns the installed (patched)
// layout; the caller arms the module, then calls Start. The verifier
// and the SpecSan replay of a witness both set up their runs this way.
func (a Assignment) Boot(lay *victim.Layout) (*platform.Rig, *victim.Layout, error) {
	cfg := cpu.DefaultConfig()
	if a.SeedSet {
		cfg.RandSeed = a.Seed
	}
	rig, err := platform.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	if len(a.Regs) > 0 {
		patched := *lay
		patched.Prog = patchSecretImms(lay.Prog, a.Regs)
		lay = &patched
	}
	if err := rig.InstallVictim(lay); err != nil {
		return nil, nil, err
	}
	for _, mv := range a.Mems {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], mv.Val)
		if err := rig.Kernel.WriteVirt(rig.Victim, mv.Addr, b[:]); err != nil {
			return nil, nil, err
		}
	}
	return rig, lay, nil
}

// Start starts the layout Boot returned on the victim context and sets
// the assigned secret registers.
func (a Assignment) Start(rig *platform.Rig, lay *victim.Layout) {
	lay.Start(rig.Kernel, 0)
	for _, rv := range a.Regs {
		rig.Core.Context(0).SetReg(rv.Reg, rv.Val)
	}
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
