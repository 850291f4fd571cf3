package main

import (
	"flag"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"microscope/attack/microscope"
	"microscope/attack/platform"
	"microscope/attack/victim"
	"microscope/sim/cpu"
	"microscope/sim/trace"
)

// pipeviewOptions is the parsed command line of `pipeview`, the
// instruction-level anatomy of a replay attack: for each replay window,
// which victim instructions were fetched, issued and executed
// speculatively — and then squashed — before the replay handle's fault
// was delivered. It is the paper's Figure 3 at per-instruction
// resolution, read off sim/trace's lifecycle collector.
type pipeviewOptions struct {
	replays int
	secret  bool
}

// parsePipeview parses and validates the arguments after `pipeview`.
func parsePipeview(args []string, errw io.Writer) (*pipeviewOptions, error) {
	o := &pipeviewOptions{}
	fs := flag.NewFlagSet("pipeview", flag.ContinueOnError)
	fs.SetOutput(errw)
	fs.IntVar(&o.replays, "replays", 3, "replay windows to show")
	fs.BoolVar(&o.secret, "secret", true, "victim branch secret (div vs mul side)")
	if err := parseFlags(fs, args); err != nil {
		return nil, err
	}
	if err := noArgs("pipeview", fs.Args()); err != nil {
		return nil, err
	}
	// The module reads MaxReplays <= 0 as no limit, so the victim would
	// replay until the cycle budget ran out. Every window holds at least
	// its faulting span, so the collector's ring cannot show more windows
	// than it holds spans.
	if o.replays < 1 || o.replays > trace.DefaultCapacity {
		return nil, fmt.Errorf("pipeview: -replays must be 1-%d, got %d", trace.DefaultCapacity, o.replays)
	}
	return o, nil
}

func (o *pipeviewOptions) run(out io.Writer) error {
	rig, obs, err := o.attack()
	if err != nil {
		return err
	}
	if n := obs.col.DroppedSpans(); n > 0 {
		return fmt.Errorf("pipeview: the %d-span collector dropped %d of %d spans; lower -replays",
			trace.DefaultCapacity, n, obs.col.TotalSpans())
	}
	ws := windows(obs.col, 0)
	fmt.Fprintf(out, "victim: control-flow secret (%s side); %d replay windows\n\n",
		map[bool]string{true: "div", false: "mul"}[o.secret], len(ws))
	for i, w := range ws {
		retired, squashed, faulted := summary(w)
		fmt.Fprintf(out, "--- window %d: %d retired, %d squashed, %d faulted ---\n",
			i, retired, squashed, faulted)
		fmt.Fprint(out, render(w))
		fmt.Fprintln(out)
	}
	return obs.finish(out, rig)
}

// cyclesPerReplay bounds the cycles one replay window adds to the run:
// about 6,100 (a four-level walk of ~1,100 plus the module's 5,000-cycle
// handler), with headroom.
const cyclesPerReplay = 10_000

// attack mounts the replay attack on the control-flow-secret victim with
// a lifecycle collector and the flags' observers attached, and runs it
// to completion within a cycle budget that grows with the replays.
func (o *pipeviewOptions) attack() (*platform.Rig, *observers, error) {
	vic := victim.ControlFlowSecret(o.secret)
	rig, obs, err := bootVictim(vic, true)
	if err != nil {
		return nil, nil, err
	}
	rec := &microscope.Recipe{
		Name:       "pipeview",
		Victim:     rig.Victim,
		Handle:     vic.Sym("handle"),
		MaxReplays: o.replays,
	}
	if err := rig.Module.Install(rec); err != nil {
		return nil, nil, err
	}
	vic.Start(rig.Kernel, 0)
	return rig, obs, rig.Run(50_000_000 + uint64(o.replays)*cyclesPerReplay)
}

// windows groups one context's instruction lifecycles into replay
// windows: one per delivered fault, plus the last, which runs to the
// end. A span belongs to the window of the fault that closed it, so a
// fault's window holds what retired before it, the faulting instruction,
// and the shadow it squashed — even though that shadow was fetched after
// the faulting instruction. Spans still in flight at the end land in the
// last window. Each window is listed in fetch order.
func windows(col *trace.Collector, ctx int) [][]trace.Span {
	var faults []uint64
	for _, m := range col.Marks() {
		if m.Context == ctx && m.Kind == cpu.EvFault {
			faults = append(faults, m.Cycle)
		}
	}
	out := make([][]trace.Span, len(faults)+1)
	w := 0
	// Closed spans come in close order (End never decreases); open ones,
	// with End == NoCycle, follow them.
	for _, s := range append(col.Spans(), col.OpenSpans()...) {
		if s.Context != ctx {
			continue
		}
		for w < len(faults) && s.End > faults[w] {
			w++
		}
		out[w] = append(out[w], s)
	}
	for _, spans := range out {
		sort.Slice(spans, func(i, j int) bool { return spans[i].Seq < spans[j].Seq })
	}
	return out
}

// render draws spans as a table, one row per dynamic instruction.
func render(spans []trace.Span) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-4s %-24s %10s %10s %10s %10s  %s\n",
		"pc", "instr", "fetch", "issue", "complete", "end", "fate")
	for _, s := range spans {
		fmt.Fprintf(&sb, "%-4d %-24s %10s %10s %10s %10s  %s\n",
			s.PC, s.Instr.String(), cyc(s.Fetch), cyc(s.Issue), cyc(s.Complete), cyc(s.End), s.Fate)
	}
	return sb.String()
}

func cyc(v uint64) string {
	if v == trace.NoCycle {
		return "-"
	}
	return strconv.FormatUint(v, 10)
}

// summary counts spans by fate.
func summary(spans []trace.Span) (retired, squashed, faulted int) {
	for _, s := range spans {
		switch s.Fate {
		case trace.FateRetired:
			retired++
		case trace.FateSquashed:
			squashed++
		case trace.FateFaulted:
			faulted++
		case trace.FateOpen: // still in flight when the run ended
		}
	}
	return retired, squashed, faulted
}
