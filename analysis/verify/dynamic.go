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
// secret assignments and projects their transient footprints. It boots
// the baseline assignment once, checkpoints it, and forks every run
// from that checkpoint: the program enters the machine only at
// Layout.Start, so one installed image serves every assignment.
type runner struct {
	sub      *Subject
	cfg      Config
	ex       *explorer
	handleVA mem.Addr
	memo     map[string]trace.Projections

	rig  *platform.Rig        // nil until the first run
	cp   *platform.Checkpoint // the booted baseline, before any run
	proj trace.Projector
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

// runOne restores the installed platform, applies the assignment, and
// replays the subject to completion under the Projector.
func (r *runner) runOne(asg Assignment) (trace.Projections, error) {
	if r.handleVA == 0 {
		return trace.Projections{}, fmt.Errorf("verify: no replay handle known for %q", r.sub.Layout.Name)
	}
	if r.rig == nil {
		rig, _, err := Assignment{}.Boot(r.sub.Layout)
		if err != nil {
			return trace.Projections{}, err
		}
		cp, err := rig.Checkpoint()
		if err != nil {
			return trace.Projections{}, err
		}
		rig.Core.SetTracer(&r.proj)
		r.rig, r.cp = rig, cp
	} else if err := r.rig.Restore(r.cp); err != nil {
		return trace.Projections{}, err
	}
	lay, err := asg.apply(r.rig, r.sub.Layout)
	if err != nil {
		return trace.Projections{}, err
	}
	r.proj.Reset()
	if err := r.replay(r.rig, lay, asg); err != nil {
		return trace.Projections{}, err
	}
	return r.proj.Projections(), nil
}

// replay arms the MicroScope module on the replay handle, starts the
// applied layout and runs to completion.
func (r *runner) replay(rig *platform.Rig, lay *victim.Layout, asg Assignment) error {
	rcp := &microscope.Recipe{
		Name:           "verify-" + lay.Name,
		Victim:         rig.Victim,
		Handle:         r.handleVA,
		HandlerLatency: r.cfg.HandlerLatency,
		MaxReplays:     r.cfg.Replays,
	}
	if err := rig.Module.Install(rcp); err != nil {
		return err
	}
	if err := asg.Start(rig, lay); err != nil {
		return err
	}
	if err := rig.Run(r.cfg.MaxCycles); err != nil {
		return fmt.Errorf("verify: run of %q: %w", lay.Name, err)
	}
	return nil
}

// Boot boots a fresh platform under the assignment's RDRAND seed,
// installs the layout and applies the assignment. It returns the layout
// to start; the caller arms the module, then calls Start. SpecSan's
// replay of a witness sets up its run this way. The verifier boots the
// baseline once and forks its runs from it (runner.runOne), through the
// same apply.
func (a Assignment) Boot(lay *victim.Layout) (*platform.Rig, *victim.Layout, error) {
	cfg := cpu.DefaultConfig()
	cfg.RandSeed = a.seed()
	rig, err := platform.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := rig.InstallVictim(lay); err != nil {
		return nil, nil, err
	}
	lay, err = a.apply(rig, lay)
	if err != nil {
		return nil, nil, err
	}
	return rig, lay, nil
}

// seed is the RDRAND seed a run of the assignment uses: its own, or
// the default, so that no run inherits another run's seed.
func (a Assignment) seed() uint64 {
	if a.SeedSet {
		return a.Seed
	}
	return cpu.DefaultConfig().RandSeed
}

// apply applies the assignment to a rig holding lay's installed memory
// image and not yet started: it seeds RDRAND, writes the secret memory
// words, and returns lay with its secret immediates patched (the
// program enters the machine only at Start).
func (a Assignment) apply(rig *platform.Rig, lay *victim.Layout) (*victim.Layout, error) {
	rig.Core.SetRandSeed(a.seed())
	if len(a.Regs) > 0 {
		patched := *lay
		patched.Prog = patchSecretImms(lay.Prog, a.Regs)
		lay = &patched
	}
	for _, mv := range a.Mems {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], mv.Val)
		if err := rig.Kernel.WriteVirt(rig.Victim, mv.Addr, b[:]); err != nil {
			return nil, err
		}
	}
	return lay, nil
}

// Start starts the layout Boot or apply returned on the victim context
// and sets the assigned secret registers. A program or entry the core
// rejects (see cpu.Context.LoadProgram) is an error, not a panic: a
// user's victim script can hold one.
func (a Assignment) Start(rig *platform.Rig, lay *victim.Layout) error {
	ctx := rig.Core.Context(0)
	if err := ctx.LoadProgram(lay.Prog, lay.Entry); err != nil {
		return err
	}
	for _, rv := range a.Regs {
		ctx.SetReg(rv.Reg, rv.Val)
	}
	return nil
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
