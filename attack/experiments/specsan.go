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
	"microscope/attack/platform"
	"microscope/attack/victim"
	"microscope/sim/mem"
	"microscope/sim/sanitizer"
)

// SanTarget is one built-in victim the sanitizer gate sweeps: a layout
// constructor plus the layout symbol of the replay handle the MicroScope
// recipe arms. The handle must be an access the secret transmitter does
// NOT data-depend on (dependent work never issues under the handle's
// fault): aes arms its pre-loop stack slot rather than the key schedule,
// singlesecret its count page. cmd/mscan's -victim table delegates here
// so the CLI, the cross-validation tests, the fuzz corpus and the
// defense tournament agree on one set of targets.
type SanTarget struct {
	Name   string
	Handle string
	Build  func() (*victim.Layout, error)
	// probe is the channel the tournament's attacker samples.
	probe probe
}

// SanTargets returns every built-in victim with its replay-handle
// symbol and its tournament probe.
func SanTargets() []SanTarget {
	return []SanTarget{
		{"aes", "stack", func() (*victim.Layout, error) {
			v, err := victim.NewAESVictim([]byte("0123456789abcdef"), []byte("fedcba9876543210"))
			if err != nil {
				return nil, err
			}
			return v.Layout, nil
		}, probe{probeCache, "td0"}},
		{"modexp", "handle", func() (*victim.Layout, error) {
			v, err := victim.NewModExpVictim(5, 0xb, 97, 4)
			if err != nil {
				return nil, err
			}
			return v.Layout, nil
		}, probe{probeCache, "probe"}},
		{"singlesecret", "count", func() (*victim.Layout, error) {
			return victim.SingleSecret(3, true), nil
		}, probe{kind: probePort}},
		{"controlflow", "handle", func() (*victim.Layout, error) {
			return victim.ControlFlowSecret(true), nil
		}, probe{kind: probePort}},
		{"loopsecret", "handle", func() (*victim.Layout, error) {
			return victim.LoopSecret([]byte{3, 1, 4, 1, 5}), nil
		}, probe{probeCache, "probe"}},
		{"rdrand", "handle", func() (*victim.Layout, error) {
			return victim.RdrandBias(), nil
		}, probe{probeCache, "array"}},
		{"ctcontrol", "handle", func() (*victim.Layout, error) {
			return victim.ConstantTime(), nil
		}, probe{kind: probeNone}},
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
	// Report is the static scanner's report: the handle-scoped findings
	// and the unscoped transmit points backing the reconciliation.
	Report *static.Report
	// Reconciliation classifies every static/dynamic discrepancy.
	Reconciliation *sanitizer.Reconciliation
	// Windows are the replay windows recovered from the module
	// timeline.
	Windows []sanitizer.ReplayWindow
	// Replays is the module's handle-fault count.
	Replays int
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

// maxSecretPages bounds the secret pages SpecSan seeds. Its shadow
// memory takes 8 bytes per secret byte, so 2,048 pages of secrets take
// as much host memory as the platform's whole physical memory.
const maxSecretPages = victim.PlatformMemBytes / mem.PageSize / 8

// AttachSanitizer creates a SpecSan shadow engine with cfg, seeds it
// from the same taint-source declaration the static scanner consumes
// (the layout's secret-home registers in context 0 and the bytes of
// every secret region, which the rig must have installed) and attaches
// it to the rig's core. Secret regions spanning more than
// maxSecretPages pages in all are an error naming the region that
// crosses the bound, returned before anything is seeded.
func AttachSanitizer(rig *platform.Rig, lay *victim.Layout, cfg sanitizer.Config) (*sanitizer.Sanitizer, error) {
	mems := lay.SecretMems()
	pages := uint64(0)
	for i, rng := range mems {
		pages += (rng[1] - mem.PageBase(rng[0]) + mem.PageSize - 1) / mem.PageSize
		if pages > maxSecretPages {
			return nil, fmt.Errorf("experiments: seeding %q: secrets span %d pages, more than the %d whose shadow (8 bytes per byte) fits in the platform's %d MB of physical memory",
				lay.SecretRegions[i], pages, maxSecretPages, victim.PlatformMemBytes>>20)
		}
	}
	san := sanitizer.New(rig.Core, cfg)
	for _, r := range lay.SecretRegs {
		san.SeedReg(0, r, r.String())
	}
	for i, rng := range mems {
		name := lay.SecretRegions[i]
		if err := san.SeedMemory(rig.Victim.AddressSpace(), rng[0], rng[1], name); err != nil {
			return nil, fmt.Errorf("experiments: seeding %q: %w", name, err)
		}
	}
	rig.Core.SetShadow(san)
	return san, nil
}

// RunSpecSanLayout is RunSpecSan for an arbitrary layout (fuzzed
// mutants, victim scripts).
func RunSpecSanLayout(name string, lay *victim.Layout, handleSym string, cfg SpecSanConfig) (*SpecSanResult, error) {
	var asg verify.Assignment
	if cfg.Assignment != nil {
		asg = *cfg.Assignment
	}
	rig, lay, err := asg.Boot(lay)
	if err != nil {
		return nil, err
	}
	san, err := AttachSanitizer(rig, lay, sanitizer.Config{TaintRdrand: cfg.Static.TaintRdrand})
	if err != nil {
		return nil, err
	}

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

	if err := asg.Start(rig, lay); err != nil {
		return nil, err
	}
	if err := rig.Run(cfg.MaxCycles); err != nil {
		return nil, err
	}
	san.Flush()
	windows := rig.Module.ReplayWindows()
	san.AttributeReplays(windows)

	rep, err := static.Analyze(lay.Name, lay.Prog, verify.NewSubject(lay).Secrets, cfg.Static)
	if err != nil {
		return nil, err
	}

	fs := san.Findings()
	return &SpecSanResult{
		Target:         name,
		Sanitizer:      san,
		Findings:       fs,
		Report:         rep,
		Reconciliation: san.Reconcile(rep, fs, 0),
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
