package static

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"microscope/analysis/sidechan"
)

// Finding is one replay-leakable instruction: a program point with a
// secret-dependent resource footprint inside some replay handle's squash
// shadow.
type Finding struct {
	// Index is the instruction index of the leaking instruction; Instr
	// is its disassembly.
	Index int    `json:"index"`
	Instr string `json:"instr"`
	// Channel is the leak-channel class (analysis/sidechan taxonomy).
	Channel sidechan.Channel `json:"channel"`
	// Severity ranks the finding.
	Severity Severity `json:"severity"`
	// Handle is the nearest covering replay handle and Distance how many
	// fetched instructions separate them (1..window).
	Handle      int    `json:"handle"`
	HandleInstr string `json:"handle_instr"`
	Distance    int    `json:"distance"`
	// Reason explains the classification.
	Reason string `json:"reason"`
}

// Report is the scanner output for one program.
type Report struct {
	Program  string    `json:"program"`
	Instrs   int       `json:"instrs"`
	Window   int       `json:"window"`
	Findings []Finding `json:"findings"`
	// Points is every transmit point, shadowed or not, in instruction
	// order: the findings before the shadow filter. The sanitizer's
	// reconciliation reads it; the scan's JSON leaves it out.
	Points []TransmitPoint `json:"-"`
}

// HasFindings reports whether the scan surfaced anything.
func (r *Report) HasFindings() bool { return len(r.Findings) > 0 }

// Sort orders the findings canonically: by instruction index, then
// channel, then descending severity, then covering handle. Analyze
// calls it before returning, so reports — and their JSON and text
// encodings — are byte-stable regardless of how the analysis passes
// enumerate findings.
func (r *Report) Sort() {
	sort.SliceStable(r.Findings, func(i, j int) bool {
		a, b := r.Findings[i], r.Findings[j]
		switch {
		case a.Index != b.Index:
			return a.Index < b.Index
		case a.Channel != b.Channel:
			return a.Channel < b.Channel
		case a.Severity != b.Severity:
			return a.Severity > b.Severity
		}
		return a.Handle < b.Handle
	})
}

// FindingsAt returns the findings anchored at instruction index i.
func (r *Report) FindingsAt(i int) []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Index == i {
			out = append(out, f)
		}
	}
	return out
}

// ChannelCounts tallies findings per channel class, indexed by channel.
func (r *Report) ChannelCounts() [sidechan.NumChannels]int {
	var counts [sidechan.NumChannels]int
	for _, f := range r.Findings {
		if int(f.Channel) < len(counts) {
			counts[f.Channel]++
		}
	}
	return counts
}

// JSON renders the report as indented JSON. A report without findings
// encodes them as [], not null.
func (r *Report) JSON() ([]byte, error) {
	doc := *r
	if doc.Findings == nil {
		doc.Findings = []Finding{}
	}
	return json.MarshalIndent(&doc, "", "  ")
}

// Text renders the report for terminals: a header, one entry per
// finding, and a per-channel summary. Output is deterministic (findings
// are emitted in instruction order).
func (r *Report) Text() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "program %s: %d instrs, ROB window %d\n", r.Program, r.Instrs, r.Window)
	if !r.HasFindings() {
		sb.WriteString("no replay-leakable instructions found\n")
		return sb.String()
	}
	fmt.Fprintf(&sb, "%d replay-leakable instruction(s):\n", len(r.Findings))
	for _, f := range r.Findings {
		fmt.Fprintf(&sb, "  @%-4d %-24s %-15s %-6s handle @%d (%s) +%d\n",
			f.Index, f.Instr, f.Channel, f.Severity, f.Handle, f.HandleInstr, f.Distance)
		fmt.Fprintf(&sb, "        %s\n", f.Reason)
	}
	counts := r.ChannelCounts()
	sb.WriteString("summary:")
	for c, n := range counts {
		if n > 0 {
			fmt.Fprintf(&sb, " %s=%d", sidechan.Channel(c), n)
		}
	}
	sb.WriteString("\n")
	return sb.String()
}
