// Package static is a multi-pass static analyzer for isa.Program values:
// it triages victim programs for MicroScope replay vulnerabilities
// *before* any simulation runs.
//
// The paper's §6 generalization is that any instruction whose address
// translation the OS can page-fault is a replay handle, and any
// instruction executing in its ROB squash-shadow with a secret-dependent
// resource footprint is leakable. Follow-up defenses (Sakalis et al.'s
// selective delay, Bălucea & Irofti's fence insertion) make this
// classification statically; this package builds the equivalent scanner
// for the simulated ISA in three passes:
//
//  1. CFG construction (cfg.go) — basic blocks from branch / jump /
//     txbegin targets, with a well-formedness Validate that rejects
//     out-of-range targets, malformed operands, and control flow that
//     runs off the end of the program.
//  2. Taint dataflow (taint.go) — a forward fixpoint over the CFG.
//     Sources are declared secret registers and memory ranges (from
//     attack/victim layouts) plus RDRAND results; taint propagates
//     through register dataflow, through loads whose address is secret
//     or points into secret memory, and through implicit flows
//     (destinations written under a secret-dependent branch). A
//     lightweight constant propagation resolves the MovImm-built base
//     addresses victims use, so loads from secret pages are recognized.
//  3. Replay-window classification (findings.go) — every faultable
//     memory access (and txbegin region) is a potential replay handle;
//     instructions within Config.ROBWindow fetched instructions of a
//     handle are in its squash shadow. Each shadowed instruction with a
//     secret-dependent footprint becomes a Finding, labelled with the
//     analysis/sidechan channel class the dynamic attacks use: cache-set
//     for tainted addresses, port contention for divides, latency for
//     subnormal-capable FP divides, random-replay for RDRAND.
//
// The analysis is intraprocedural (the ISA has no calls) and
// over-approximate: taint never shrinks, control dependence is computed
// from reachability, and stores do not untaint memory. See
// docs/static-analysis.md for the limits.
package static

import (
	"fmt"

	"microscope/sim/isa"
)

// DefaultROBWindow matches cpu.DefaultConfig().ROBSize: the deepest a
// younger instruction can sit in the handle's squash shadow. (The value
// is duplicated rather than imported so sim/cpu can depend on this
// package for load-time validation without an import cycle; the
// cross-validation test asserts the two stay equal.)
const DefaultROBWindow = 192

// Config parameterizes an analysis run.
type Config struct {
	// ROBWindow is the squash-shadow depth in fetched instructions,
	// normally the core's ROB size. Zero means DefaultROBWindow.
	ROBWindow int
	// TaintRdrand treats RDRAND results as secrets (their integrity is
	// what the §7.2 bias attack violates). Default on.
	TaintRdrand bool
}

// DefaultConfig returns the configuration matching the default core.
func DefaultConfig() Config {
	return Config{ROBWindow: DefaultROBWindow, TaintRdrand: true}
}

func (c Config) window() int {
	if c.ROBWindow <= 0 {
		return DefaultROBWindow
	}
	return c.ROBWindow
}

// MemRange is a half-open virtual address range [Lo, Hi).
type MemRange struct {
	Lo, Hi uint64
}

// Contains reports whether the 8-byte access at addr overlaps the range.
func (r MemRange) Contains(addr uint64) bool {
	return addr+8 > r.Lo && addr < r.Hi
}

// Secrets declares the analysis taint sources.
type Secrets struct {
	// Regs are registers that hold secret data for the whole program
	// (e.g. the modexp exponent, materialized as an immediate into R5).
	// They are tainted at entry and re-tainted on every write — the
	// register is the secret's architectural home, so whatever the
	// program parks there is treated as secret.
	Regs []isa.Reg
	// Mems are virtual address ranges holding secret data; loads with a
	// resolvable address inside one of them yield tainted values.
	Mems []MemRange
}

func (s Secrets) regSecret(r isa.Reg) bool {
	for _, sr := range s.Regs {
		if sr == r {
			return true
		}
	}
	return false
}

func (s Secrets) memTainted(addr uint64) bool {
	for _, m := range s.Mems {
		if m.Contains(addr) {
			return true
		}
	}
	return false
}

// Analyze runs all three passes over p once and returns the report:
// the handle-scoped findings and every transmit point. It fails only on
// malformed programs (the Validate errors); an analyzable program
// always yields a report, possibly with zero findings.
func Analyze(name string, p *isa.Program, sec Secrets, cfg Config) (*Report, error) {
	g, err := BuildCFG(p)
	if err != nil {
		return nil, fmt.Errorf("static: %s: %w", name, err)
	}
	ti := taint(g, sec, cfg)
	r := &Report{
		Program: name,
		Instrs:  p.Len(),
		Window:  cfg.window(),
	}
	r.Findings, r.Points = findings(g, ti, cfg)
	r.Sort()
	return r, nil
}
