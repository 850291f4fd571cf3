// Package verify is the constant-time verifier: it classifies a victim
// program as PROVEN-SAFE, LEAKY (with a simulator-checked witness), or
// UNKNOWN with respect to MicroScope replay attacks.
//
// Where analysis/static is a may-leak scanner (sound but
// over-approximate: a finding means "possibly leaks"), this package
// decides. It runs a path-sensitive abstract interpretation over the
// program — concrete values relationally paired with taint provenance
// over secret atoms, forking on secret-dependent branches up to a
// configurable path/step bound — and then validates its answer against
// the cycle-level simulator:
//
//   - Every LEAKY verdict ships a witness: two concrete secret
//     assignments whose full replay-attack runs (under the MicroScope
//     module, faulting and replaying the victim's handle) produce
//     different transient channel projections (sim/trace.Projector) on
//     the leak channel the analysis claimed. The leak is not a
//     possibility; it has been observed. Every run forks from one
//     checkpoint of the installed subject (dynamic.go).
//   - Every PROVEN-SAFE verdict ships a certificate: an N-trial
//     randomized secret differential in which every trial's transient
//     cache, divider-port and divide-latency projections are identical
//     to the baseline. The abstract argument ("no secret-dependent
//     footprint reaches a squash shadow") is cross-checked dynamically;
//     if the differential ever diverges, the dynamic evidence wins and
//     the verdict is LEAKY.
//   - When the exploration exhausts its path or step budget before
//     covering the program and no witness is found, the verdict is
//     UNKNOWN — never a silent downgrade to "safe".
//
// The repair pass (repair.go) proposes fence insertion points in the
// spirit of Sakalis et al.'s delay-on-speculation: a fence before every
// leaking instruction and at both successors of every secret-dependent
// branch inside a squash shadow, iterated until the abstract pass finds
// no further sites. The repaired program goes back through the full
// verifier, so a successful repair ends in PROVEN-SAFE, witnessed by its
// own differential certificate.
package verify

import (
	"fmt"

	"microscope/analysis/sidechan"
	"microscope/analysis/static"
	"microscope/attack/victim"
	"microscope/sim/mem"
	"microscope/sim/trace"
)

// Verdict classifies a program.
type Verdict int

// Verdicts.
const (
	// Unknown: the exploration hit a resource bound before covering the
	// program, or a static site could not be dynamically confirmed.
	Unknown Verdict = iota
	// ProvenSafe: the abstract pass found no secret-dependent footprint
	// in any squash shadow AND the randomized differential held.
	ProvenSafe
	// Leaky: two concrete secret assignments were run through the
	// simulator and their transient channel projections diverge.
	Leaky
)

// String returns the report label.
func (v Verdict) String() string {
	switch v {
	case ProvenSafe:
		return "PROVEN-SAFE"
	case Leaky:
		return "LEAKY"
	case Unknown:
		return "UNKNOWN"
	}
	// Out-of-range values (a corrupted report) read as the weakest claim.
	return "UNKNOWN"
}

// MarshalText renders the verdict for JSON reports.
func (v Verdict) MarshalText() ([]byte, error) { return []byte(v.String()), nil }

// UnmarshalText parses a report label, so JSON reports round-trip.
func (v *Verdict) UnmarshalText(b []byte) error {
	switch string(b) {
	case "PROVEN-SAFE":
		*v = ProvenSafe
	case "LEAKY":
		*v = Leaky
	case "UNKNOWN":
		*v = Unknown
	default:
		return fmt.Errorf("verify: unknown verdict %q", b)
	}
	return nil
}

// Subject is one program under verification: a victim layout (program
// plus memory image) and its secret declaration.
type Subject struct {
	// Layout carries the program, entry point and data regions. The
	// verifier only reads it (dynamic runs install copies).
	Layout *victim.Layout
	// Secrets is the taint-source declaration. NewSubject derives it
	// from the layout's SecretRegions/SecretRegs.
	Secrets static.Secrets
	// Handle is the replay-handle address the dynamic runs arm. The
	// abstract pass quantifies over every possible handle; only the
	// dynamic witness/differential needs one concrete choice. Zero means
	// auto-derive: the layout's "handle" symbol if it has one, else the
	// first attacker-predictable load the exploration executes (best
	// effort — a load the transmitter data-depends on makes a useless
	// handle, since dependent work never issues under its fault).
	Handle mem.Addr
}

// NewSubject wraps a layout with its own secret declaration and, when
// the layout names one, its conventional replay handle.
func NewSubject(l *victim.Layout) *Subject {
	var sec static.Secrets
	sec.Regs = append(sec.Regs, l.SecretRegs...)
	for _, m := range l.SecretMems() {
		sec.Mems = append(sec.Mems, static.MemRange{Lo: m[0], Hi: m[1]})
	}
	sub := &Subject{Layout: l, Secrets: sec}
	if h, ok := l.Symbols["handle"]; ok {
		sub.Handle = h
	}
	return sub
}

// Config bounds the verifier.
type Config struct {
	// Static supplies the squash-shadow window and RDRAND taint policy.
	Static static.Config

	// MaxPaths bounds the number of explored paths, MaxStepsPerPath the
	// executed instructions on one path, and MaxTotalSteps the grand
	// total. Exhausting any of them makes the exploration incomplete
	// (verdict at best LEAKY, never PROVEN-SAFE).
	MaxPaths        int
	MaxStepsPerPath int
	MaxTotalSteps   int

	// Trials is the randomized-differential count backing PROVEN-SAFE.
	Trials int
	// MaxWitnessPairs bounds the candidate assignment pairs simulated
	// while searching for a LEAKY witness.
	MaxWitnessPairs int

	// Replays, HandlerLatency and MaxCycles parameterize each dynamic
	// run's replay recipe and budget.
	Replays        int
	HandlerLatency uint64
	MaxCycles      uint64

	// Seed drives the deterministic randomized differential.
	Seed int64
}

// DefaultConfig returns the bounds used by cmd/mscan and the golden
// verdicts.
func DefaultConfig() Config {
	return Config{
		Static:          static.DefaultConfig(),
		MaxPaths:        256,
		MaxStepsPerPath: 50_000,
		MaxTotalSteps:   500_000,
		Trials:          32,
		MaxWitnessPairs: 16,
		Replays:         6,
		HandlerLatency:  20_000,
		MaxCycles:       5_000_000,
		Seed:            0x5eed,
	}
}

// Site is one secret-dependent instruction the abstract pass found
// inside a squash shadow.
type Site struct {
	// PC is the instruction index, Instr its disassembly.
	PC    int    `json:"pc"`
	Instr string `json:"instr"`
	// Channel is the claimed leak channel (analysis/sidechan taxonomy).
	Channel sidechan.Channel `json:"channel"`
	// Handle/Distance locate the covering replay handle.
	Handle   int `json:"handle"`
	Distance int `json:"distance"`
	// Implicit marks sites reached only through a secret-dependent
	// branch (control flow), not through data taint on their operands.
	Implicit bool `json:"implicit,omitempty"`
	// Atoms is the set of secret atoms the site depends on.
	Atoms []Atom `json:"atoms"`
}

// Witness is the dynamic evidence behind a LEAKY verdict.
type Witness struct {
	// SitePC is the claimed site (-1 when the divergence was found by
	// the randomized differential rather than site-guided search).
	SitePC int `json:"sitePC"`
	// Channel is the channel whose projection diverges.
	Channel sidechan.Channel `json:"channel"`
	// A and B are the two secret assignments; ProjA/ProjB their runs'
	// transient projections.
	A     Assignment        `json:"a"`
	B     Assignment        `json:"b"`
	ProjA trace.Projections `json:"projA"`
	ProjB trace.Projections `json:"projB"`
}

// Certificate is the dynamic evidence behind a PROVEN-SAFE verdict.
type Certificate struct {
	// Trials is the number of randomized secret assignments run; every
	// one produced projections equal to Baseline.
	Trials   int               `json:"trials"`
	Baseline trace.Projections `json:"baseline"`
}

// Result is one verification outcome.
type Result struct {
	Program string  `json:"program"`
	Verdict Verdict `json:"verdict"`
	// Reason explains UNKNOWN verdicts and annotates the others.
	Reason string `json:"reason"`
	// Paths/Steps/Complete describe the abstract exploration.
	Paths    int  `json:"paths"`
	Steps    int  `json:"steps"`
	Complete bool `json:"complete"`
	// Sites are the abstract findings (empty for PROVEN-SAFE).
	Sites []Site `json:"sites,omitempty"`
	// Witness is set on LEAKY, Certificate on PROVEN-SAFE.
	Witness     *Witness     `json:"witness,omitempty"`
	Certificate *Certificate `json:"certificate,omitempty"`
}

// Verify classifies the subject. It returns an error only for malformed
// programs; resource exhaustion and simulation trouble yield an UNKNOWN
// result instead.
func Verify(sub *Subject, cfg Config) (*Result, error) {
	ex, err := explore(sub, cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Program:  sub.Layout.Name,
		Paths:    ex.paths,
		Steps:    ex.steps,
		Complete: ex.complete,
		Sites:    ex.siteList(),
	}
	r := newRunner(sub, cfg, ex)

	if len(res.Sites) == 0 && ex.complete {
		cert, wit, err := r.differential(cfg.Trials)
		switch {
		case err != nil:
			res.Verdict = Unknown
			res.Reason = fmt.Sprintf("no abstract sites, but the differential failed to run: %v", err)
		case wit != nil:
			// The dynamic evidence outranks the abstract claim.
			res.Verdict = Leaky
			res.Witness = wit
			res.Reason = "abstract pass found no sites, but the randomized differential diverged (analysis gap; the dynamic evidence wins)"
		default:
			res.Verdict = ProvenSafe
			res.Certificate = cert
			res.Reason = fmt.Sprintf("no secret-dependent footprint in any squash shadow; %d-trial randomized differential identical on all channels", cert.Trials)
		}
		return res, nil
	}

	wit, werr := r.searchWitness(res.Sites)
	switch {
	case wit != nil:
		res.Verdict = Leaky
		res.Witness = wit
		res.Reason = fmt.Sprintf("witness pair diverges on the %s channel at pc %d", wit.Channel, wit.SitePC)
	case !ex.complete:
		res.Verdict = Unknown
		res.Reason = "exploration incomplete (" + ex.bailout + ") and no witness found within budget"
	default:
		res.Verdict = Unknown
		res.Reason = "abstract sites found but not dynamically confirmed within the witness budget"
		if werr != nil {
			res.Reason += ": " + werr.Error()
		}
	}
	return res, nil
}

// channelDigest picks the projection digest an attacker on ch observes.
// ChanRandom maps to the cache digest: replay-biased randomness is only
// observable through the downstream transmitter's cache footprint.
func channelDigest(p trace.Projections, ch sidechan.Channel) uint64 {
	switch ch {
	case sidechan.ChanPort:
		return p.Port
	case sidechan.ChanLatency:
		return p.Latency
	default:
		return p.Cache
	}
}

// divergingChannel returns the first channel whose digests differ, in
// cache, port, latency order.
func divergingChannel(a, b trace.Projections) (sidechan.Channel, bool) {
	switch {
	case a.Cache != b.Cache:
		return sidechan.ChanCacheSet, true
	case a.Port != b.Port:
		return sidechan.ChanPort, true
	case a.Latency != b.Latency:
		return sidechan.ChanLatency, true
	}
	return sidechan.ChanNone, false
}
