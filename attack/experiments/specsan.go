package experiments

// SpecSan three-way cross-validation: run a victim under the MicroScope
// module with the cycle-accurate taint sanitizer (sim/sanitizer)
// attached, then reconcile its dynamic transmit findings against the
// static scanner (analysis/static) finding-by-finding. The third leg —
// the abstract verifier's simulator-checked witnesses
// (analysis/verify) — is joined by the caller: every LEAKY witness
// channel must appear among the sanitizer's findings (see
// specsan_test.go and the cmd/mscan -sanitize mode).

import (
	"fmt"

	"microscope/analysis/static"
	"microscope/analysis/verify"
	"microscope/attack/microscope"
	"microscope/attack/victim"
	"microscope/sim/sanitizer"
)

// SanTarget is one built-in victim the sanitizer gate sweeps: a layout
// constructor plus the layout symbol of the replay handle the MicroScope
// recipe arms. The handle must be an access the secret transmitter does
// NOT data-depend on (dependent work never issues under the handle's
// fault): aes arms its pre-loop stack slot rather than the key schedule,
// singlesecret its count page. cmd/mscan's -victim table delegates here
// so the CLI, the cross-validation tests and the fuzz corpus agree on
// one set of targets.
type SanTarget struct {
	Name   string
	Handle string
	Build  func() (*victim.Layout, error)
}

// SanTargets returns every built-in victim with its replay-handle
// symbol.
func SanTargets() []SanTarget {
	return []SanTarget{
		{"aes", "stack", func() (*victim.Layout, error) {
			v, err := victim.NewAESVictim([]byte("0123456789abcdef"), []byte("fedcba9876543210"))
			if err != nil {
				return nil, err
			}
			return v.Layout, nil
		}},
		{"modexp", "handle", func() (*victim.Layout, error) {
			v, err := victim.NewModExpVictim(5, 0xb, 97, 4)
			if err != nil {
				return nil, err
			}
			return v.Layout, nil
		}},
		{"singlesecret", "count", func() (*victim.Layout, error) {
			return victim.SingleSecret(3, true), nil
		}},
		{"controlflow", "handle", func() (*victim.Layout, error) {
			return victim.ControlFlowSecret(true), nil
		}},
		{"loopsecret", "handle", func() (*victim.Layout, error) {
			return victim.LoopSecret([]byte{3, 1, 4, 1, 5}), nil
		}},
		{"rdrand", "handle", func() (*victim.Layout, error) {
			return victim.RdrandBias(), nil
		}},
		{"ctcontrol", "handle", func() (*victim.Layout, error) {
			return victim.ConstantTime(), nil
		}},
	}
}

// FindSanTarget looks a target up by name.
func FindSanTarget(name string) (SanTarget, error) {
	for _, t := range SanTargets() {
		if t.Name == name {
			return t, nil
		}
	}
	return SanTarget{}, fmt.Errorf("experiments: unknown sanitizer target %q", name)
}

// SpecSanConfig parameterizes one sanitized replay run.
type SpecSanConfig struct {
	// Static configures the taint fixpoint both the scanner and the
	// reconciliation use; Static.TaintRdrand also selects the
	// sanitizer's RDRAND mode so the two analyses agree by
	// construction.
	Static static.Config
	// Replays is the module's MaxReplays (release threshold).
	Replays int
	// HandlerLatency is the simulated fault-handler time per replay.
	HandlerLatency uint64
	// MaxCycles bounds the run.
	MaxCycles uint64
	// Assignment is applied exactly like a verifier witness run's (by
	// verify.Assignment.Boot and Start), so a witness assignment can be
	// replayed under the sanitizer. Nil means the zero (baseline) one.
	Assignment *verify.Assignment
}

// DefaultSpecSanConfig mirrors the verifier's dynamic-run parameters.
func DefaultSpecSanConfig() SpecSanConfig {
	v := verify.DefaultConfig()
	return SpecSanConfig{
		Static:         static.DefaultConfig(),
		Replays:        v.Replays,
		HandlerLatency: v.HandlerLatency,
		MaxCycles:      v.MaxCycles,
	}
}

// SpecSanResult bundles the three analysis legs of one sanitized run.
type SpecSanResult struct {
	Target string
	// Sanitizer is the attached shadow engine, post-Flush: events are
	// final and replay-attributed.
	Sanitizer *sanitizer.Sanitizer
	// Findings aggregates the sanitizer's transmit events per (pc,
	// channel, flow).
	Findings []sanitizer.Finding
	// Report is the static scanner's handle-scoped report.
	Report *static.Report
	// Points is the unscoped static transmitter classification backing
	// the reconciliation.
	Points []static.TransmitPoint
	// Reconciliation classifies every static/dynamic discrepancy.
	Reconciliation *sanitizer.Reconciliation
	// Windows are the replay windows recovered from the module
	// timeline.
	Windows []sanitizer.ReplayWindow
	// Replays is the module's handle-fault count.
	Replays int
}

// ReplayWindows converts a MicroScope module timeline into the cycle
// windows the sanitizer attributes transmit events to: each handle
// fault opens replay iteration N (closing iteration N-1), and the
// release — or the end of time — closes the last one. Pivoted recipes
// interleave per-recipe faults; later windows win on overlap, so the
// innermost (most recent) recipe claims the cycle, matching the module's
// own TraceAnnotations.
func ReplayWindows(tl []microscope.TimelineEvent) []sanitizer.ReplayWindow {
	var ws []sanitizer.ReplayWindow
	open := make(map[string]int)  // recipe -> index into ws
	count := make(map[string]int) // recipe -> iterations seen
	for _, ev := range tl {
		switch ev.Kind {
		case microscope.EvHandleFault:
			if i, ok := open[ev.Recipe]; ok {
				ws[i].End = ev.Cycle
			}
			count[ev.Recipe]++
			open[ev.Recipe] = len(ws)
			ws = append(ws, sanitizer.ReplayWindow{
				Recipe: ev.Recipe,
				N:      count[ev.Recipe],
				Start:  ev.Cycle,
				End:    ^uint64(0),
			})
		case microscope.EvRelease:
			if i, ok := open[ev.Recipe]; ok {
				ws[i].End = ev.Cycle
				delete(open, ev.Recipe)
			}
		}
	}
	return ws
}

// RunSpecSan assembles a rig, attaches a sanitizer seeded from the
// layout's secret declaration, arms the MicroScope module on the
// target's replay handle, runs to completion and reconciles the
// sanitizer's findings against the static scanner. The returned result
// holds all three views; callers decide what gates.
func RunSpecSan(t SanTarget, cfg SpecSanConfig) (*SpecSanResult, error) {
	lay, err := t.Build()
	if err != nil {
		return nil, err
	}
	return RunSpecSanLayout(t.Name, lay, t.Handle, cfg)
}

// RunSpecSanLayout is RunSpecSan for an arbitrary layout (fuzzed
// mutants, -asm input).
func RunSpecSanLayout(name string, lay *victim.Layout, handleSym string, cfg SpecSanConfig) (*SpecSanResult, error) {
	var asg verify.Assignment
	if cfg.Assignment != nil {
		asg = *cfg.Assignment
	}
	rig, lay, err := asg.Boot(lay)
	if err != nil {
		return nil, err
	}

	// Seed the shadow state from the same taint-source declaration the
	// static scanner consumes: secret-home registers and the bytes of
	// every secret region (mapped eagerly by Boot).
	san := sanitizer.New(rig.Core, sanitizer.Config{TaintRdrand: cfg.Static.TaintRdrand})
	for _, r := range lay.SecretRegs {
		san.SeedReg(0, r, r.String())
	}
	for i, name := range lay.SecretRegions {
		rng := lay.SecretMems()[i]
		if err := san.SeedMemory(rig.Victim.AddressSpace(), rng[0], rng[1], name); err != nil {
			return nil, fmt.Errorf("experiments: seeding %q: %w", name, err)
		}
	}
	rig.Core.SetShadow(san)

	handleVA, ok := lay.Symbols[handleSym]
	if !ok {
		return nil, fmt.Errorf("experiments: layout %q has no handle symbol %q", lay.Name, handleSym)
	}
	rcp := &microscope.Recipe{
		Name:           "specsan-" + lay.Name,
		Victim:         rig.Victim,
		Handle:         handleVA,
		HandlerLatency: cfg.HandlerLatency,
		MaxReplays:     cfg.Replays,
	}
	if err := rig.Module.Install(rcp); err != nil {
		return nil, err
	}

	asg.Start(rig, lay)
	if err := rig.Run(cfg.MaxCycles); err != nil {
		return nil, err
	}
	san.Flush()
	windows := ReplayWindows(rig.Module.Timeline())
	san.AttributeReplays(windows)

	sec := static.Secrets{Regs: lay.SecretRegs}
	for _, r := range lay.SecretMems() {
		sec.Mems = append(sec.Mems, static.MemRange{Lo: r[0], Hi: r[1]})
	}
	rep, err := static.Analyze(lay.Name, lay.Prog, sec, cfg.Static)
	if err != nil {
		return nil, err
	}
	pts, err := static.TransmitPoints(lay.Prog, sec, cfg.Static)
	if err != nil {
		return nil, err
	}

	return &SpecSanResult{
		Target:         name,
		Sanitizer:      san,
		Findings:       san.Findings(),
		Report:         rep,
		Points:         pts,
		Reconciliation: san.Reconcile(rep, pts, 0),
		Windows:        windows,
		Replays:        rcp.Replays(),
	}, nil
}

// Channels returns the set of leak channels among the result's dynamic
// findings, the projection the witness-coverage check compares against
// verify's per-witness channel.
func (r *SpecSanResult) Channels() map[string]bool {
	out := make(map[string]bool)
	for _, f := range r.Findings {
		out[f.Channel.String()] = true
	}
	return out
}
