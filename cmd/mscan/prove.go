package main

import (
	"encoding/json"
	"fmt"
	"io"

	"microscope/analysis/verify"
)

// The -prove mode: run the constant-time verifier (and optionally the
// fence-repair pass) over a builtin victim or a victim script and
// render the outcome.

// proveOutput is the -prove -json document.
type proveOutput struct {
	Result *verify.Result       `json:"result"`
	Repair *verify.RepairResult `json:"repair,omitempty"`
}

func runProve(o options, in input, out io.Writer) (int, error) {
	sub := verify.NewSubject(in.lay)
	sub.Handle = in.lay.Symbols[in.handle]

	cfg := verifyConfig(o)
	doc := &proveOutput{}
	if o.repair {
		rr, err := verify.Repair(sub, cfg)
		if err != nil {
			return exitUsage, err
		}
		doc.Repair = rr
	}
	res, err := verify.Verify(sub, cfg)
	if err != nil {
		return exitUsage, err
	}
	doc.Result = res

	if o.json {
		enc, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return exitUsage, err
		}
		fmt.Fprintf(out, "%s\n", enc)
	} else {
		renderProve(out, doc, o.witness)
	}

	if o.fail {
		switch res.Verdict {
		case verify.Leaky:
			return exitLeaky, nil
		case verify.Unknown:
			return exitUnknown, nil
		case verify.ProvenSafe:
			// Falls through to exitOK: a proof of safety is the one
			// verdict -fail accepts.
		}
	}
	return exitOK, nil
}

// renderProve writes the human-readable verification report.
func renderProve(out io.Writer, doc *proveOutput, fullWitness bool) {
	res := doc.Result
	fmt.Fprintf(out, "program %s: verdict %s\n", res.Program, res.Verdict)
	fmt.Fprintf(out, "  %s\n", res.Reason)
	completeness := "complete"
	if !res.Complete {
		completeness = "incomplete"
	}
	fmt.Fprintf(out, "  exploration: %d path(s), %d step(s), %s\n", res.Paths, res.Steps, completeness)

	if len(res.Sites) > 0 {
		fmt.Fprintf(out, "  %d abstract site(s):\n", len(res.Sites))
		for _, s := range res.Sites {
			kind := "data"
			if s.Implicit {
				kind = "implicit"
			}
			fmt.Fprintf(out, "    @%-4d %-24s %-15s %-9s handle @%d +%d atoms %v\n",
				s.PC, s.Instr, s.Channel, kind, s.Handle, s.Distance, s.Atoms)
		}
	}
	if w := res.Witness; w != nil {
		fmt.Fprintf(out, "  witness: site @%d, %s channel diverges\n", w.SitePC, w.Channel)
		if fullWitness {
			fmt.Fprintf(out, "    A: %s -> cache=%#x port=%#x latency=%#x\n",
				assignmentString(w.A), w.ProjA.Cache, w.ProjA.Port, w.ProjA.Latency)
			fmt.Fprintf(out, "    B: %s -> cache=%#x port=%#x latency=%#x\n",
				assignmentString(w.B), w.ProjB.Cache, w.ProjB.Port, w.ProjB.Latency)
		}
	}
	if c := res.Certificate; c != nil {
		fmt.Fprintf(out, "  certificate: %d randomized trials, all channel projections identical to baseline\n", c.Trials)
	}
	if rr := doc.Repair; rr != nil {
		fmt.Fprintf(out, "repair: %d round(s), %d fence(s) at %v\n", rr.Rounds, rr.Inserted, rr.Fences)
		fmt.Fprintf(out, "  repaired program: verdict %s (%s)\n", rr.Result.Verdict, rr.Result.Reason)
	}
}

// assignmentString renders one witness assignment compactly.
func assignmentString(a verify.Assignment) string {
	s := ""
	for _, rv := range a.Regs {
		s += fmt.Sprintf("%s=%#x ", rv.Reg, rv.Val)
	}
	for _, mv := range a.Mems {
		s += fmt.Sprintf("[%#x]=%#x ", mv.Addr, mv.Val)
	}
	if a.SeedSet {
		s += fmt.Sprintf("seed=%#x ", a.Seed)
	}
	if s == "" {
		return "baseline"
	}
	return s[:len(s)-1]
}
