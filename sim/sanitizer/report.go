package sanitizer

import (
	"fmt"
	"sort"
	"strings"

	"microscope/analysis/sidechan"
	"microscope/analysis/static"
	"microscope/sim/isa"
)

// Finding is a dynamic finding: one (context, PC, channel, flow) site
// that transmitted at least once, aggregated over its dynamic
// instances.
type Finding struct {
	Context  int              `json:"context"`
	PC       int              `json:"pc"`
	Instr    string           `json:"instr"`
	Op       isa.Op           `json:"-"`
	Channel  sidechan.Channel `json:"channel"`
	Implicit bool             `json:"implicit,omitempty"`
	// Count is the number of dynamic transmit instances; Transient of
	// those, how many were squashed (the replay-shadow instances the
	// paper's attacker observes).
	Count     int `json:"count"`
	Transient int `json:"transient"`
	// Taint is the union atom mask across instances.
	Taint uint64 `json:"taint"`
	// Replays is the number of distinct replay iterations that
	// re-observed this site (0 when replay attribution was not run or
	// the site transmitted outside any window).
	Replays int `json:"replays,omitempty"`
}

// Findings aggregates the recorded transmit events per static program
// point, in canonical (context, PC, channel) order. The result is never
// nil, so a run without events encodes as an empty JSON list.
func (s *Sanitizer) Findings() []Finding {
	type site struct {
		ctx, pc  int
		ch       sidechan.Channel
		implicit bool
	}
	type siteReplay struct {
		site
		replay int
	}
	index := make(map[site]int)
	replayed := make(map[siteReplay]bool)
	out := []Finding{}
	for _, ev := range s.events {
		k := site{ev.Context, ev.PC, ev.Channel, ev.Implicit}
		i, ok := index[k]
		if !ok {
			i = len(out)
			index[k] = i
			out = append(out, Finding{
				Context:  ev.Context,
				PC:       ev.PC,
				Instr:    ev.Instr.String(),
				Op:       ev.Instr.Op,
				Channel:  ev.Channel,
				Implicit: ev.Implicit,
			})
		}
		f := &out[i]
		f.Count++
		if ev.Transient {
			f.Transient++
		}
		f.Taint |= ev.Taint
		if sr := (siteReplay{k, ev.Replay}); ev.Replay >= 0 && !replayed[sr] {
			replayed[sr] = true
			f.Replays++
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Context != b.Context {
			return a.Context < b.Context
		}
		if a.PC != b.PC {
			return a.PC < b.PC
		}
		if a.Channel != b.Channel {
			return a.Channel < b.Channel
		}
		return !a.Implicit && b.Implicit
	})
	return out
}

// ReconcileClass machine-classifies one static/dynamic discrepancy (or
// agreement) in the three-way cross-validation.
type ReconcileClass int

// Reconciliation classes. Everything except Unexplained is an
// understood, machine-explained relationship between the static
// over-approximation and the dynamic observation.
const (
	// Confirmed: static finding with a dynamic transmit on the same
	// channel at the same PC.
	Confirmed ReconcileClass = iota
	// ChannelMismatch: both analyses flag the PC but over different
	// channels (e.g. static's explicit class vs a dynamically implicit
	// flow) — flagged for review, still a disagreement.
	ChannelMismatch
	// RetiredOnly: the PC transmitted dynamically but only
	// architecturally — no instance was squashed, so no replay shadow
	// amplified it in this run (static's ROB-window reach is an
	// over-approximation of what the schedule actually squashed).
	RetiredOnly
	// NeverExecuted: the statically flagged PC never issued — the run's
	// concrete inputs never steered execution there (static is path-
	// insensitive).
	NeverExecuted
	// NeverTransient: the PC issued and transmitted zero times, and no
	// instance was ever squashed: it was reached but never sat in a
	// replay shadow in this schedule.
	NeverTransient
	// UntaintedOperands: the PC issued, but its operands never carried
	// taint dynamically — the static taint over-approximated (e.g. a
	// join of paths only one of which is secret-derived).
	UntaintedOperands
	// NoDynamicTransmit: reached with tainted operands, yet the
	// classifier never fired — the taint reached the PC but not the
	// footprint-forming operand (static flags the op, dynamic blames
	// operands individually).
	NoDynamicTransmit
	// SecondaryChannel: the dynamic channel is the physically entailed
	// companion of a channel static flags on the same instruction (an FP
	// divide's subnormal-latency signature alongside its divider-port
	// occupancy) — an understood taxonomy-granularity difference, not a
	// disagreement.
	SecondaryChannel
	// OutOfShadow: the static taint pass agrees the PC transmits (it is
	// a static.TransmitPoint on the same channel) but no replay handle's
	// squash shadow covers it, so it is not replayable and the static
	// report deliberately omits it.
	OutOfShadow
	// Unexplained: a dynamic finding with no static counterpart at its
	// PC. Static is designed to over-approximate dynamic, so any event
	// in this class is a bug in one of the analyses — the gate fails on
	// it.
	Unexplained
)

// String returns the class label.
func (c ReconcileClass) String() string {
	switch c {
	case Confirmed:
		return "confirmed"
	case ChannelMismatch:
		return "channel-mismatch"
	case RetiredOnly:
		return "retired-only"
	case NeverExecuted:
		return "never-executed"
	case NeverTransient:
		return "never-transient"
	case UntaintedOperands:
		return "untainted-operands"
	case NoDynamicTransmit:
		return "no-dynamic-transmit"
	case SecondaryChannel:
		return "secondary-channel"
	case OutOfShadow:
		return "out-of-shadow"
	case Unexplained:
		return "UNEXPLAINED"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// MarshalText renders the class label for JSON reports.
func (c ReconcileClass) MarshalText() ([]byte, error) { return []byte(c.String()), nil }

// UnmarshalText parses a class label, inverting MarshalText.
func (c *ReconcileClass) UnmarshalText(b []byte) error {
	for v := Confirmed; v <= Unexplained; v++ {
		if v.String() == string(b) {
			*c = v
			return nil
		}
	}
	return fmt.Errorf("sanitizer: unknown reconcile class %q", b)
}

// ReconcileEntry is the verdict for one program point that at least one
// analysis flagged.
type ReconcileEntry struct {
	PC      int             `json:"pc"`
	Instr   string          `json:"instr"`
	Class   ReconcileClass  `json:"class"`
	Static  *static.Finding `json:"static,omitempty"`
	Dynamic *Finding        `json:"dynamic,omitempty"`
	Detail  string          `json:"detail"`
}

// Reconciliation is the full static-vs-dynamic cross-check for one
// context's run.
type Reconciliation struct {
	Entries []ReconcileEntry `json:"entries"`
}

// Unexplained returns the entries in the Unexplained class — the
// cross-validation gate requires this to be empty.
func (r *Reconciliation) Unexplained() []ReconcileEntry {
	var out []ReconcileEntry
	for _, e := range r.Entries {
		if e.Class == Unexplained {
			out = append(out, e)
		}
	}
	return out
}

// Counts tallies entries per class, keyed by class label.
func (r *Reconciliation) Counts() map[string]int {
	m := make(map[string]int)
	for _, e := range r.Entries {
		m[e.Class.String()]++
	}
	return m
}

// Text renders the reconciliation as a stable human-readable table.
func (r *Reconciliation) Text() string {
	var b strings.Builder
	for _, e := range r.Entries {
		fmt.Fprintf(&b, "pc=%-4d %-20s %-19s %s\n", e.PC, e.Instr, e.Class, e.Detail)
	}
	return b.String()
}

// Reconcile cross-validates a static report against the sanitizer's
// dynamic findings fs (as Findings returns them) for one context,
// classifying every program point either analysis flagged. The
// report's unscoped transmit points (static.Report.Points) back the
// OutOfShadow class.
//
// The invariant checked: the static taint pass over-approximates
// dynamic transmits, so every dynamic finding must have a static
// transmit point on its channel (handle-shadowed → a Finding →
// Confirmed; unshadowed → OutOfShadow), while each static-only finding
// must be explained by a concrete dynamic reason (never executed,
// never transient, operands never tainted, ...). Anything else is
// Unexplained and fails the cross-validation gate.
func (s *Sanitizer) Reconcile(rep *static.Report, fs []Finding, ctxID int) *Reconciliation {
	dyn := make(map[int][]Finding)
	for _, f := range fs {
		if f.Context == ctxID {
			dyn[f.PC] = append(dyn[f.PC], f)
		}
	}
	stat := make(map[int][]static.Finding)
	var pcs []int
	seen := make(map[int]bool)
	for i := range rep.Findings {
		f := rep.Findings[i]
		stat[f.Index] = append(stat[f.Index], f)
		if !seen[f.Index] {
			seen[f.Index] = true
			pcs = append(pcs, f.Index)
		}
	}
	for pc := range dyn {
		if !seen[pc] {
			seen[pc] = true
			pcs = append(pcs, pc)
		}
	}
	sort.Ints(pcs)

	rec := &Reconciliation{Entries: []ReconcileEntry{}}
	for _, pc := range pcs {
		sfs, dfs := stat[pc], dyn[pc]
		switch {
		case len(sfs) > 0 && len(dfs) > 0:
			rec.Entries = append(rec.Entries, s.matchChannels(pc, sfs, dfs)...)
		case len(dfs) > 0: // dynamic-only: out-of-shadow or the gate-failing class
			for i := range dfs {
				df := dfs[i]
				e := ReconcileEntry{PC: pc, Instr: df.Instr, Dynamic: &df}
				if pt, ok := pointAt(rep.Points, pc, df.Channel, df.Op); ok && !pt.Shadowed {
					e.Class = OutOfShadow
					e.Detail = fmt.Sprintf("static agrees pc transmits over %s but no replay handle's squash shadow covers it", df.Channel)
				} else {
					e.Class = Unexplained
					e.Detail = fmt.Sprintf("dynamic %s transmit with no static finding at this pc", df.Channel)
				}
				rec.Entries = append(rec.Entries, e)
			}
		default: // static-only: explain from the dynamic execution stats
			for i := range sfs {
				sf := sfs[i]
				e := ReconcileEntry{PC: pc, Instr: sf.Instr, Static: &sf}
				e.Class, e.Detail = s.explainStaticOnly(ctxID, pc)
				rec.Entries = append(rec.Entries, e)
			}
		}
	}
	return rec
}

// pointAt finds the unscoped transmit point at pc with the given
// channel, accepting a point whose channel the dynamic channel is the
// known secondary observable of (FP-divide latency alongside port).
func pointAt(pts []static.TransmitPoint, pc int, ch sidechan.Channel, op isa.Op) (static.TransmitPoint, bool) {
	for _, pt := range pts {
		if pt.Index != pc {
			continue
		}
		if pt.Channel == ch {
			return pt, true
		}
		if sec, ok := secondaryChannel(op, pt.Channel); ok && sec == ch {
			return pt, true
		}
	}
	return static.TransmitPoint{}, false
}

// matchChannels pairs static and dynamic findings at one PC by channel.
func (s *Sanitizer) matchChannels(pc int, sfs []static.Finding, dfs []Finding) []ReconcileEntry {
	var out []ReconcileEntry
	usedDyn := make([]bool, len(dfs))
	for i := range sfs {
		sf := sfs[i]
		matched := -1
		for j := range dfs {
			if !usedDyn[j] && dfs[j].Channel == sf.Channel {
				matched = j
				break
			}
		}
		if matched >= 0 {
			usedDyn[matched] = true
			df := dfs[matched]
			e := ReconcileEntry{PC: pc, Instr: sf.Instr, Static: &sf, Dynamic: &df}
			if df.Transient > 0 {
				e.Class = Confirmed
				e.Detail = fmt.Sprintf("%s transmit observed transiently %d/%d instances", df.Channel, df.Transient, df.Count)
			} else {
				e.Class = RetiredOnly
				e.Detail = fmt.Sprintf("%s transmit observed, but only architecturally (%d instances, none squashed)", df.Channel, df.Count)
			}
			out = append(out, e)
			continue
		}
		// Same PC flagged by both, channels differ.
		df := dfs[0]
		out = append(out, ReconcileEntry{
			PC: pc, Instr: sf.Instr, Class: ChannelMismatch, Static: &sf, Dynamic: &df,
			Detail: fmt.Sprintf("static %s vs dynamic %s", sf.Channel, df.Channel),
		})
	}
	for j := range dfs {
		if usedDyn[j] {
			continue
		}
		df := dfs[j]
		e := ReconcileEntry{
			PC: pc, Instr: df.Instr, Class: ChannelMismatch, Dynamic: &df,
			// A dynamic channel with no static channel at a PC static DID
			// flag: still a mismatch, not unexplained — the PC is known to
			// the static pass.
			Detail: fmt.Sprintf("dynamic %s channel unmatched by static channels at this pc", df.Channel),
		}
		for i := range sfs {
			if sec, ok := secondaryChannel(df.Op, sfs[i].Channel); ok && sec == df.Channel {
				e.Class = SecondaryChannel
				e.Static = &sfs[i]
				e.Detail = fmt.Sprintf("%s signature accompanying the statically flagged %s transmit on the same instruction", df.Channel, sfs[i].Channel)
				break
			}
		}
		out = append(out, e)
	}
	return out
}

// explainStaticOnly classifies why a statically flagged PC produced no
// dynamic transmit, from the per-PC execution counters.
func (s *Sanitizer) explainStaticOnly(ctxID, pc int) (ReconcileClass, string) {
	st := s.stats[pcKey{Ctx: ctxID, PC: pc}]
	switch {
	case st == nil || st.Issued == 0:
		return NeverExecuted, "pc never issued in this run (path not taken under these inputs)"
	case st.Tainted == 0:
		return UntaintedOperands, fmt.Sprintf("pc issued %d times but operands never carried taint (static taint over-approximates)", st.Issued)
	case st.Transient == 0:
		return NeverTransient, fmt.Sprintf("pc issued %d times, never squashed: no replay shadow covered it in this schedule", st.Issued)
	default:
		return NoDynamicTransmit, fmt.Sprintf("pc issued %d times (transient %d, taint seen) without a footprint-forming tainted operand", st.Issued, st.Transient)
	}
}
