// Command pipeview renders the instruction-level anatomy of a replay
// attack: for each replay window, which victim instructions were fetched,
// issued and executed speculatively — and then squashed — before the
// replay handle's fault was delivered. It is the paper's Figure 3 at
// per-instruction resolution, read off sim/trace's lifecycle collector.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"microscope/attack/microscope"
	"microscope/attack/platform"
	"microscope/attack/victim"
	"microscope/sim/cpu"
	"microscope/sim/trace"
)

func main() {
	replays := flag.Int("replays", 3, "replay windows to show")
	secret := flag.Bool("secret", true, "victim branch secret (div vs mul side)")
	traceOut := flag.String("trace", "",
		"also write a Chrome Trace Event JSON of the run to this file (Perfetto-loadable)")
	metrics := flag.Bool("metrics", false,
		"print deterministic aggregate pipeline metrics after the windows")
	flag.Parse()
	if err := checkFlags(*replays); err != nil {
		fmt.Fprintln(os.Stderr, "pipeview:", err)
		os.Exit(2)
	}

	if err := run(*replays, *secret, *traceOut, *metrics); err != nil {
		fmt.Fprintln(os.Stderr, "pipeview:", err)
		os.Exit(1)
	}
}

// checkFlags rejects -replays below 1: the module reads MaxReplays <= 0
// as no limit, so the victim would replay until the cycle budget ran out.
func checkFlags(replays int) error {
	if replays < 1 {
		return fmt.Errorf("-replays must be at least 1, got %d", replays)
	}
	return nil
}

func run(replays int, secret bool, traceOut string, metrics bool) error {
	var met *trace.Metrics
	if metrics {
		met = trace.NewMetrics()
		met.ROBSize = cpu.DefaultConfig().ROBSize
	}
	rig, col, err := attack(replays, secret, met)
	if err != nil {
		return err
	}

	ws := windows(col, 0)
	fmt.Printf("victim: control-flow secret (%s side); %d replay windows\n\n",
		map[bool]string{true: "div", false: "mul"}[secret], len(ws))
	for i, w := range ws {
		retired, squashed, faulted := summary(w)
		fmt.Printf("--- window %d: %d retired, %d squashed, %d faulted ---\n",
			i, retired, squashed, faulted)
		fmt.Print(render(w))
		fmt.Println()
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		if err := trace.WriteChrome(f, col, rig.Module.TraceAnnotations()); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote Chrome trace to %s (open in Perfetto or chrome://tracing)\n", traceOut)
	}
	if met != nil {
		fmt.Println("-- pipeline metrics --")
		fmt.Print(met.Text())
	}
	return nil
}

// cyclesPerReplay bounds the cycles one replay window adds to the run:
// about 6,100 (a four-level walk of ~1,100 plus the module's 5,000-cycle
// handler), with headroom.
const cyclesPerReplay = 10_000

// attack mounts the replay attack on the control-flow-secret victim with
// a lifecycle collector (and met, when non-nil) attached, and runs it to
// completion within a cycle budget that grows with replays.
func attack(replays int, secret bool, met *trace.Metrics) (*platform.Rig, *trace.Collector, error) {
	rig, err := platform.New(cpu.DefaultConfig())
	if err != nil {
		return nil, nil, err
	}
	vic := victim.ControlFlowSecret(secret)
	if err := rig.InstallVictim(vic); err != nil {
		return nil, nil, err
	}
	col := trace.NewCollector(0)
	if met != nil {
		rig.Core.SetTracer(trace.Tee(col, met))
	} else {
		rig.Core.SetTracer(col)
	}
	rec := &microscope.Recipe{
		Name:       "pipeview",
		Victim:     rig.Victim,
		Handle:     vic.Sym("handle"),
		MaxReplays: replays,
	}
	if err := rig.Module.Install(rec); err != nil {
		return nil, nil, err
	}
	vic.Start(rig.Kernel, 0)
	return rig, col, rig.Run(50_000_000 + uint64(replays)*cyclesPerReplay)
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
