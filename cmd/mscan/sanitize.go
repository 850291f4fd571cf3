package main

// The -sanitize mode: run the victim under the MicroScope module with
// the SpecSan shadow-taint sanitizer (sim/sanitizer) attached, and
// report the dynamic transmit findings reconciled finding-by-finding
// against the static scan — the dynamic two thirds of the three-way
// cross-validation (the abstract third is -prove).

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"microscope/attack/experiments"
	"microscope/sim/sanitizer"
)

// sanitizeOutput is the JSON document of one -sanitize run.
type sanitizeOutput struct {
	Target  string `json:"target"`
	Replays int    `json:"replays"`
	Windows int    `json:"windows"`
	// Findings are the sanitizer's dynamic findings; Static the scanner's
	// handle-scoped findings the reconciliation matched them against.
	Findings       []sanitizer.Finding       `json:"findings"`
	Reconciliation *sanitizer.Reconciliation `json:"reconciliation"`
	Counts         map[string]int            `json:"counts"`
}

// runSanitize executes one sanitized replay run against a builtin
// victim or a victim script. Exit codes under -fail mirror the scanner:
// transient dynamic findings exit 1 (a leak was observed in a replay
// shadow), and any unexplained static/dynamic disagreement exits 2 (the
// cross-validation itself is broken — neither analysis can be trusted
// until reconciled).
func runSanitize(o options, in input, out io.Writer) (int, error) {
	cfg := experiments.DefaultSpecSanConfig()
	if o.rob > 0 {
		cfg.Static.ROBWindow = o.rob
	}
	cfg.Static.TaintRdrand = !o.noRdrand
	res, err := experiments.RunSpecSanLayout(in.name, in.lay, in.handle, cfg)
	if err != nil {
		return exitUsage, err
	}

	doc := &sanitizeOutput{
		Target:         res.Target,
		Replays:        res.Replays,
		Windows:        len(res.Windows),
		Findings:       res.Findings,
		Reconciliation: res.Reconciliation,
		Counts:         res.Reconciliation.Counts(),
	}
	if o.json {
		enc, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return exitUsage, err
		}
		fmt.Fprintf(out, "%s\n", enc)
	} else {
		renderSanitize(out, doc)
	}

	if o.fail {
		if len(res.Reconciliation.Unexplained()) > 0 {
			return exitUnknown, nil
		}
		for _, f := range res.Findings {
			if f.Transient > 0 {
				return exitLeaky, nil
			}
		}
	}
	return exitOK, nil
}

// renderSanitize writes the human-readable sanitizer report.
func renderSanitize(out io.Writer, doc *sanitizeOutput) {
	fmt.Fprintf(out, "program %s: %d replay(s) over %d window(s)\n", doc.Target, doc.Replays, doc.Windows)
	if len(doc.Findings) == 0 {
		fmt.Fprintf(out, "  no dynamic transmit events: no tainted data reached an observable channel\n")
	} else {
		fmt.Fprintf(out, "  %d dynamic finding(s):\n", len(doc.Findings))
		for _, f := range doc.Findings {
			flow := "explicit"
			if f.Implicit {
				flow = "implicit"
			}
			fmt.Fprintf(out, "    @%-4d %-24s %-15s %-9s transient %d/%d, %d replay window(s)\n",
				f.PC, f.Instr, f.Channel, flow, f.Transient, f.Count, f.Replays)
		}
	}
	fmt.Fprintf(out, "  reconciliation vs static scan:\n")
	for _, e := range doc.Reconciliation.Entries {
		fmt.Fprintf(out, "    @%-4d %-24s %-19s %s\n", e.PC, e.Instr, e.Class, e.Detail)
	}
	var keys []string
	for k := range doc.Counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var parts []string
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, doc.Counts[k]))
	}
	fmt.Fprintf(out, "  summary: %s\n", strings.Join(parts, " "))
	if un := doc.Reconciliation.Unexplained(); len(un) > 0 {
		fmt.Fprintf(out, "  %d UNEXPLAINED disagreement(s): cross-validation gate FAILS\n", len(un))
	}
}
