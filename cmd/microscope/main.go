// Command microscope is the framework's exploration CLI. Subcommands map
// to the paper's non-headline tables and figures:
//
//	table1     — print the Table 1 side-channel taxonomy
//	table2     — demonstrate each Table 2 user-API operation
//	timeline   — print the Fig. 3 Replayer/Victim timeline of a real attack
//	execpath   — narrate the Fig. 9 kernel execution path of one fault
//	generalize — the Fig. 12 replay handles as tournament cells, and §7.2
//	defenses   — the §8 countermeasures as tournament cells
//	tournament — run the victim x handle x defense cross-product matrix
//	denoise    — print the replay-count/confidence denoising curve
//	baselines  — run the §2.4 prior attacks for comparison
//	walk       — print a Fig. 2 four-level page-table walk
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"microscope/analysis/sidechan"
	"microscope/attack/baseline"
	"microscope/attack/experiments"
	"microscope/attack/microscope"
	"microscope/attack/victim"
	"microscope/sim/cpu"
	"microscope/sim/sanitizer"
	"microscope/sim/snapshot"
	"microscope/sim/trace"
)

// workers bounds the goroutines of subcommands that fan independent
// simulations out as parallel sweeps (`baselines`, `tournament`,
// `defenses`, `generalize`); any value yields identical output.
var workers = flag.Int("workers", 0,
	"parallel sweep workers (<=0: GOMAXPROCS); results are identical for any value")

// showStats, for subcommands that drive a single simulated core (table2,
// timeline, execpath, walk), appends per-context pipeline statistics, the
// fast-forward skip count and host allocation counters after the
// subcommand's normal output.
var showStats = flag.Bool("stats", false,
	"print per-context pipeline statistics, fast-forward skip counts and host allocation counters after the run")

// Profiling hooks: the CLI doubles as the perf-work harness, so any
// subcommand can be profiled directly instead of reconstructing its
// workload in a benchmark.
var cpuProfile = flag.String("cpuprofile", "",
	"write a CPU profile of the whole run to this file (inspect with `go tool pprof`)")

var memProfile = flag.String("memprofile", "",
	"write a heap profile at command exit to this file (inspect with `go tool pprof`)")

// traceOut and showMetrics attach the sim/trace observability stack to
// subcommands that drive a single simulated core (table2, timeline,
// execpath): a Chrome Trace Event JSON of every instruction lifecycle,
// and deterministic aggregate pipeline metrics.
var traceOut = flag.String("trace", "",
	"write a Chrome Trace Event JSON of the run to this file (Perfetto-loadable; table2, timeline, execpath)")

var showMetrics = flag.Bool("metrics", false,
	"print deterministic aggregate pipeline metrics after the run (table2, timeline, execpath)")

// sanitize attaches the SpecSan shadow-taint engine (sim/sanitizer) to
// subcommands that drive a single simulated core: shadow state is
// seeded from the victim's secret declaration, transmit events are
// printed after the run with replay attribution, and -trace output
// gains a "specsan" track pinning each finding to its replay iteration.
var sanitize = flag.Bool("sanitize", false,
	"attach the SpecSan taint sanitizer and report secret-transmit events after the run (table2, timeline, execpath)")

// Checkpointing flags (timeline subcommand). -checkpoint-every snapshots
// the whole machine (memory, core, kernel, module) on a fixed cycle
// period into an in-memory list; -reverse-to K then "steps backwards" by
// restoring the nearest checkpoint at or below cycle K and re-running
// forward to exactly K — deterministic replay makes the re-run
// bit-identical to the original pass through that cycle. -checkpoint-out
// writes the machine state at command exit as a gob image that
// tools/snapdiff can diff against another run's.
var checkpointEvery = flag.Uint64("checkpoint-every", 0,
	"snapshot the machine every N cycles during `timeline` (enables -reverse-to)")

var reverseTo = flag.Uint64("reverse-to", 0,
	"after `timeline` completes, restore the nearest checkpoint <= K and re-run to cycle K, then print the machine state (requires -checkpoint-every)")

var checkpointOut = flag.String("checkpoint-out", "",
	"write the machine snapshot at `timeline` exit to this file (gob; diff two with tools/snapdiff)")

// jsonOut switches the tournament subcommand from the rendered grids to
// the byte-deterministic JSON matrix — the exact bytes the golden test
// gates, so CI diffs and the committed testdata stay comparable.
var jsonOut = flag.Bool("json", false,
	"print the tournament matrix as canonical JSON instead of rendered tables (`tournament` only)")

// observers is the tracer stack the -trace/-metrics flags request.
type observers struct {
	col *trace.Collector
	met *trace.Metrics
	san *sanitizer.Sanitizer
}

// attachSanitizer seeds a SpecSan shadow engine from the victim's
// secret declaration and attaches it to the rig's core. Returns nil
// without touching the core when -sanitize is unset, preserving the
// zero-overhead-when-off guarantee.
func (o *observers) attachSanitizer(rig *experiments.Rig, l *victim.Layout) error {
	if !*sanitize {
		return nil
	}
	san := sanitizer.New(rig.Core, sanitizer.DefaultConfig())
	for _, r := range l.SecretRegs {
		san.SeedReg(0, r, r.String())
	}
	for i, name := range l.SecretRegions {
		rng := l.SecretMems()[i]
		if err := san.SeedMemory(rig.Victim.AddressSpace(), rng[0], rng[1], name); err != nil {
			return err
		}
	}
	rig.Core.SetShadow(san)
	o.san = san
	return nil
}

// attachObservers builds the requested sinks and attaches them to core.
// With neither flag set the core keeps a nil tracer and pays nothing.
func attachObservers(core *cpu.Core) *observers {
	o := &observers{}
	var sinks []cpu.Tracer
	if *traceOut != "" {
		o.col = trace.NewCollector(0)
		sinks = append(sinks, o.col)
	}
	if *showMetrics {
		o.met = trace.NewMetrics()
		o.met.ROBSize = core.Config().ROBSize
		sinks = append(sinks, o.met)
	}
	core.SetTracer(trace.Tee(sinks...))
	return o
}

// finish prints the sanitizer findings (replay-attributed from the
// module timeline), writes the Chrome trace (annotated with the
// module's replay timeline and the specsan track), and prints the
// metrics block.
func (o *observers) finish(mod *microscope.Module) error {
	if o.san != nil {
		o.san.Flush()
		if mod != nil {
			o.san.AttributeReplays(experiments.ReplayWindows(mod.Timeline()))
		}
		printSanitizerFindings(o.san)
	}
	if o.col != nil {
		var anns []trace.Annotation
		if mod != nil {
			anns = mod.TraceAnnotations()
		}
		if o.san != nil {
			anns = append(anns, o.san.Annotations()...)
		}
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		if err := trace.WriteChrome(f, o.col, anns); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote Chrome trace to %s (open in Perfetto or chrome://tracing)\n", *traceOut)
	}
	if o.met != nil {
		fmt.Println("\n-- pipeline metrics --")
		fmt.Print(o.met.Text())
	}
	return nil
}

// printSanitizerFindings renders the SpecSan transmit-finding block.
func printSanitizerFindings(san *sanitizer.Sanitizer) {
	fmt.Println("\n-- SpecSan transmit findings --")
	fs := san.Findings()
	if len(fs) == 0 {
		fmt.Println("none: no tainted data reached an observable channel")
		return
	}
	for _, f := range fs {
		flow := "explicit"
		if f.Implicit {
			flow = "implicit"
		}
		fmt.Printf("@%-4d %-24s %-15s %-9s transient %d/%d instances, %d replay window(s), taint %v\n",
			f.PC, f.Instr, f.Channel, flow, f.Transient, f.Count, f.Replays, san.AtomLabels(f.Taint))
	}
}

// printStats renders the post-run statistics block for core. The host
// allocation figures come from the Go runtime and naturally vary between
// machines; everything above them is deterministic simulation state.
func printStats(core *cpu.Core) {
	if !*showStats {
		return
	}
	cycles := core.Cycle()
	skipped := core.SkippedCycles()
	pct := 0.0
	if cycles > 0 {
		pct = 100 * float64(skipped) / float64(cycles)
	}
	fmt.Println("\n-- simulation statistics --")
	fmt.Printf("core:  cycles=%d fast-forwarded=%d (%.1f%%)\n", cycles, skipped, pct)
	for i := 0; i < core.Contexts(); i++ {
		ctx := core.Context(i)
		if ctx.Program() == nil {
			continue
		}
		s := ctx.Stats()
		fmt.Printf("ctx%d:  fetched=%d retired=%d squashed=%d faults=%d txaborts=%d\n",
			i, s.Fetched, s.Retired, s.Squashed, s.PageFaults, s.TxAborts)
		fmt.Printf("       mispredicts=%d memorder=%d stall-cycles=%d skipped-cycles=%d\n",
			s.Mispredicts, s.MemOrderViolations, s.StallCycles, s.SkippedCycles)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Printf("host:  heap-allocs=%d heap-bytes=%d gc-cycles=%d\n",
		ms.Mallocs, ms.TotalAlloc, ms.NumGC)
}

func main() {
	flag.Usage = func() {
		usage()
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	if flag.Arg(0) != "timeline" &&
		(*checkpointEvery != 0 || *reverseTo != 0 || *checkpointOut != "") {
		fmt.Fprintln(os.Stderr, "microscope: -checkpoint-every/-reverse-to/-checkpoint-out only apply to the timeline subcommand")
		os.Exit(2)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "microscope:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "microscope:", err)
			os.Exit(1)
		}
	}
	err := dispatch(flag.Arg(0))
	if *cpuProfile != "" {
		pprof.StopCPUProfile()
		fmt.Fprintf(os.Stderr, "wrote CPU profile to %s\n", *cpuProfile)
	}
	if *memProfile != "" {
		if werr := writeHeapProfile(*memProfile); werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "microscope:", err)
		os.Exit(1)
	}
}

// writeHeapProfile snapshots the heap (after a GC, so the profile shows
// live data rather than collectible garbage) into path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote heap profile to %s\n", path)
	return nil
}

// dispatch runs the named subcommand.
func dispatch(cmd string) error {
	var err error
	switch cmd {
	case "table1":
		fmt.Print(sidechan.FormatTable1(sidechan.Table1()))
	case "table2":
		err = runTable2()
	case "timeline":
		err = runTimeline()
	case "execpath":
		err = runExecPath()
	case "generalize":
		err = runGeneralize()
	case "defenses":
		err = runDefenses()
	case "tournament":
		err = runTournament()
	case "denoise":
		err = runDenoise()
	case "baselines":
		err = runBaselines()
	case "walk":
		err = runWalk()
	default:
		usage()
		os.Exit(2)
	}
	return err
}

func usage() {
	fmt.Fprintln(os.Stderr,
		"usage: microscope [-workers N] [-stats] [-cpuprofile f] [-memprofile f] [-sanitize] [-trace out.json] [-metrics] [-json] [-checkpoint-every N] [-reverse-to K] [-checkpoint-out img.gob] <table1|table2|timeline|execpath|generalize|defenses|tournament|denoise|baselines|walk>")
}

// runTable2 exercises the five Table 2 operations against a live victim.
func runTable2() error {
	rig, err := experiments.NewRig(cpu.DefaultConfig())
	if err != nil {
		return err
	}
	l := victim.LoopSecret([]byte{5, 9})
	if err := rig.InstallVictim(l); err != nil {
		return err
	}
	obs := attachObservers(rig.Core)
	if err := obs.attachSanitizer(rig, l); err != nil {
		return err
	}
	u := rig.Module.User(rig.Victim)
	fmt.Println("Table 2 — MicroScope user API")
	fmt.Printf("provide_replay_handle(%#x)\n", l.Sym("handle"))
	u.ProvideReplayHandle(l.Sym("handle"))
	fmt.Printf("provide_pivot(%#x)\n", l.Sym("pivot"))
	u.ProvidePivot(l.Sym("pivot"))
	fmt.Printf("provide_monitor_addr(%#x)\n", l.Sym("probe"))
	u.ProvideMonitorAddr(l.Sym("probe"))
	fmt.Printf("initiate_page_walk(%#x, 2)\n", l.Sym("probe"))
	if err := u.InitiatePageWalk(l.Sym("probe"), 2); err != nil {
		return err
	}
	fmt.Printf("initiate_page_fault(%#x)\n", l.Sym("handle"))
	u.Recipe().MaxReplays = 5
	if err := u.InitiatePageFault(l.Sym("handle")); err != nil {
		return err
	}
	l.Start(rig.Kernel, 0)
	if err := rig.Run(20_000_000); err != nil {
		return err
	}
	fmt.Printf("-> victim replayed %d times, then released; victim finished: %t\n",
		u.Recipe().Replays(), rig.Core.Context(0).Halted())
	if err := obs.finish(rig.Module); err != nil {
		return err
	}
	printStats(rig.Core)
	return nil
}

// runTimeline reproduces the Fig. 3 interleaving on a live attack.
func runTimeline() error {
	rig, err := experiments.NewRig(cpu.DefaultConfig())
	if err != nil {
		return err
	}
	l := victim.ControlFlowSecret(true)
	if err := rig.InstallVictim(l); err != nil {
		return err
	}
	obs := attachObservers(rig.Core)
	if err := obs.attachSanitizer(rig, l); err != nil {
		return err
	}
	rec := &microscope.Recipe{
		Name:       "timeline",
		Victim:     rig.Victim,
		Handle:     l.Sym("handle"),
		MaxReplays: 4,
	}
	if err := rig.Module.Install(rec); err != nil {
		return err
	}
	l.Start(rig.Kernel, 0)
	checkpoints, err := runCheckpointed(rig, 10_000_000)
	if err != nil {
		return err
	}
	fmt.Println("Figure 3 — replayer/victim timeline (cycles are simulated)")
	fmt.Print(microscope.FormatTimeline(rig.Module.Timeline()))
	if err := obs.finish(rig.Module); err != nil {
		return err
	}
	printStats(rig.Core)
	if *reverseTo > 0 {
		if err := reverseStep(rig, checkpoints, *reverseTo); err != nil {
			return err
		}
	}
	if *checkpointOut != "" {
		if err := writeCheckpoint(rig, *checkpointOut); err != nil {
			return err
		}
	}
	return nil
}

// cycleCheckpoint is one periodic whole-machine checkpoint.
type cycleCheckpoint struct {
	Cycle uint64
	CP    *experiments.Checkpoint
}

// runCheckpointed runs the rig to completion within budget. With
// -checkpoint-every N it runs in N-cycle chunks, snapshotting the whole
// machine after each (plus a cycle-0 baseline); the chunked run is
// bit-identical to an unchunked one (Run resumes exactly where it
// stopped, and taking a snapshot does not perturb machine state).
func runCheckpointed(rig *experiments.Rig, budget uint64) ([]cycleCheckpoint, error) {
	every := *checkpointEvery
	if every == 0 {
		return nil, rig.Run(budget)
	}
	var cps []cycleCheckpoint
	take := func() error {
		cp, err := rig.Checkpoint()
		if err != nil {
			return err
		}
		cps = append(cps, cycleCheckpoint{Cycle: rig.Core.Cycle(), CP: cp})
		return nil
	}
	if err := take(); err != nil {
		return nil, err
	}
	spent := uint64(0)
	for !rig.Core.Halted() && spent < budget {
		n := every
		if n > budget-spent {
			n = budget - spent
		}
		spent += rig.Core.Run(n)
		if err := take(); err != nil {
			return nil, err
		}
	}
	if !rig.Core.Halted() {
		return nil, fmt.Errorf("run exceeded %d cycles", budget)
	}
	fmt.Printf("(%d checkpoints taken, every %d cycles)\n", len(cps), every)
	return cps, nil
}

// reverseStep restores the nearest checkpoint at or below the target
// cycle and deterministically re-runs forward to it — the "step
// backwards to cycle k-1" debugging move a forward-only simulator
// cannot otherwise make.
func reverseStep(rig *experiments.Rig, cps []cycleCheckpoint, target uint64) error {
	var best *cycleCheckpoint
	for i := range cps {
		if cps[i].Cycle <= target && (best == nil || cps[i].Cycle > best.Cycle) {
			best = &cps[i]
		}
	}
	if best == nil {
		return fmt.Errorf("no checkpoint at or below cycle %d (use -checkpoint-every)", target)
	}
	if err := rig.Restore(best.CP); err != nil {
		return err
	}
	if target > best.Cycle {
		rig.Core.Run(target - best.Cycle)
	}
	fmt.Printf("\n-- reverse-step: restored cycle-%d checkpoint, re-ran to cycle %d --\n",
		best.Cycle, rig.Core.Cycle())
	for i := 0; i < rig.Core.Contexts(); i++ {
		ctx := rig.Core.Context(i)
		if ctx.Program() == nil {
			continue
		}
		s := ctx.Stats()
		fmt.Printf("ctx%d: pc=%d halted=%t retired=%d faults=%d\n",
			i, ctx.PC(), ctx.Halted(), s.Retired, s.PageFaults)
	}
	return nil
}

// writeCheckpoint snapshots the rig as it stands and writes the gob
// image tools/snapdiff consumes.
func writeCheckpoint(rig *experiments.Rig, path string) error {
	cp, err := rig.Checkpoint()
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := snapshot.Encode(f, cp.Machine); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote machine snapshot to %s (compare two with tools/snapdiff)\n", path)
	return nil
}

// runExecPath narrates the Fig. 9 execution path of a single intercepted
// fault.
func runExecPath() error {
	rig, err := experiments.NewRig(cpu.DefaultConfig())
	if err != nil {
		return err
	}
	l := victim.ControlFlowSecret(false)
	if err := rig.InstallVictim(l); err != nil {
		return err
	}
	obs := attachObservers(rig.Core)
	if err := obs.attachSanitizer(rig, l); err != nil {
		return err
	}
	steps := []string{}
	rec := &microscope.Recipe{
		Name:       "execpath",
		Victim:     rig.Victim,
		Handle:     l.Sym("handle"),
		MaxReplays: 1,
	}
	rec.OnReplay = func(ev microscope.Event) microscope.Decision {
		steps = append(steps,
			"4. trampoline redirects the fault to the MicroScope module",
			fmt.Sprintf("5. module inspects PTE under attack (replay %d); may flip present bits", ev.Replays),
		)
		return microscope.Release
	}
	if err := rig.Module.Install(rec); err != nil {
		return err
	}
	l.Start(rig.Kernel, 0)
	if err := rig.Run(10_000_000); err != nil {
		return err
	}
	fmt.Println("Figure 9 — execution path of a MicroScope attack")
	fmt.Println("1. application issues the replay-handle access (virtual address)")
	fmt.Println("2. MMU raises a page fault; control enters the OS")
	fmt.Println("3. page-fault handler classifies the fault (present bit clear)")
	for _, s := range steps {
		fmt.Println(s)
	}
	fmt.Println("6. page-fault handler completes")
	fmt.Printf("7. control returns to the application (victim finished: %t)\n",
		rig.Core.Context(0).Halted())
	if err := obs.finish(rig.Module); err != nil {
		return err
	}
	printStats(rig.Core)
	return nil
}

// The rosters `defenses` and `generalize` project out of the tournament.
// `defenses` crosses the §8 schemes the paper analyzed (plus the
// undefended baseline) with one cache-probed and one port-probed victim;
// `generalize` crosses every replay-handle class (Fig. 12) with the
// loop-secret victim, undefended and under fence-after-flush. Every
// number they print is a golden tournament cell
// (TestProjectionsEqualGoldenCells).
var (
	defensesRoster = experiments.TournamentOptions{
		Victims:  []string{"loopsecret", "singlesecret"},
		Defenses: []string{"none", "dejavu", "tsgx", "pfoblivious", "fence", "invisispec"},
	}
	generalizeRoster = experiments.TournamentOptions{
		Victims:  []string{"loopsecret"},
		Defenses: []string{"none", "fence"},
	}
)

// runGeneralize prints the Fig. 12 replay-handle classes as tournament
// cells, then runs the §7.2 RDRAND bias attack with and without the fence.
func runGeneralize() error {
	fmt.Println("Figure 12 — generalized microarchitectural replay attacks (tournament cells)")
	if err := printCells(generalizeRoster); err != nil {
		return err
	}
	fmt.Println("\n§7.2 — RDRAND bias (integrity attack)")
	for _, fenced := range []bool{false, true} {
		r, err := experiments.RunRDRANDBias(1, 100, fenced)
		if err != nil {
			return err
		}
		fmt.Printf("fenced=%-5t observed=%-5t biased=%-5t windows=%d finalBit=%d\n",
			fenced, r.Observed, r.Achieved, r.Windows, r.FinalLowBit)
	}
	return nil
}

// runDefenses prints the §8 countermeasures as tournament cells.
func runDefenses() error {
	fmt.Println("§8 — countermeasure evaluation (tournament cells)")
	return printCells(defensesRoster)
}

// printCells runs the tournament restricted to roster and prints every
// cell and control row it produced.
func printCells(roster experiments.TournamentOptions) error {
	roster.Workers = *workers
	m, err := experiments.RunTournament(roster)
	if err != nil {
		return err
	}
	fmt.Print(renderCells(m))
	return nil
}

// renderCells formats a matrix's cells and controls one row each, in
// matrix order, with every recorded field.
func renderCells(m *experiments.TournamentMatrix) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-13s %-11s %-12s %7s %7s %5s %8s %9s  %s\n",
		"victim", "handle", "defense", "mounted", "replays", "leaky", "detected", "cycles", "counters")
	for _, c := range m.Cells {
		fmt.Fprintf(&sb, "%-13s %-11s %-12s %7t %7d %5d %8t %9d",
			c.Victim, c.Handle, c.Defense, c.Mounted, c.Replays, c.LeakWindows,
			c.Detected, c.Cycles)
		keys := make([]string, 0, len(c.Counters))
		for k := range c.Counters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for i, k := range keys {
			sep := " "
			if i == 0 {
				sep = "  "
			}
			fmt.Fprintf(&sb, "%s%s=%d", sep, k, c.Counters[k])
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "\n%-13s %-12s %14s %9s %9s\n",
		"control", "defense", "false-positive", "cycles", "overhead‰")
	for _, c := range m.Controls {
		fmt.Fprintf(&sb, "%-13s %-12s %14t %9d %9d\n",
			c.Victim, c.Defense, c.FalsePositive, c.Cycles, c.OverheadPermille)
	}
	return sb.String()
}

// runTournament runs the full defense tournament: every builtin victim
// crossed with every replay-handle class and every roster defense, forked
// from per-victim warm checkpoints. Output is the rendered grids (or the
// canonical JSON under -json), byte-identical for any -workers value.
func runTournament() error {
	m, err := experiments.RunTournament(experiments.TournamentOptions{Workers: *workers})
	if err != nil {
		return err
	}
	if *jsonOut {
		b, err := m.JSON()
		if err != nil {
			return err
		}
		fmt.Print(string(b))
		return nil
	}
	fmt.Print(m.Render())
	return nil
}

// runBaselines runs the §2.4 prior attacks for comparison.
func runBaselines() error {
	fmt.Println("§2.4 baselines — the attacks MicroScope improves on")
	cc, err := baseline.RunControlledChannel(true)
	if err != nil {
		return err
	}
	fmt.Printf("controlled channel [60]: page secret recovered=%t, line secret visible=%t (page granularity)\n",
		cc.PageSecretCorrect, cc.LineSecretVisible)
	spm, err := baseline.RunSPM(true)
	if err != nil {
		return err
	}
	fmt.Printf("sneaky page monitoring [58]: page secret recovered=%t, victim saw faults=%t\n",
		spm.PageSecretCorrect, spm.VictimObservedFault)
	pp, err := baseline.RunPrimeProbe([]byte("0123456789abcdef"), []byte("attack at dawn!!"), 0.2, 150, 7, *workers)
	if err != nil {
		return err
	}
	fmt.Printf("multi-run prime+probe [9,18]: single noisy trace correct=%t, traces to stability=%d, per-round resolution=%t\n",
		pp.SingleRunObserved == pp.UnionTruth, pp.TracesTo99, pp.PerRoundResolved)
	fmt.Println("(compare: MicroScope recovers exact per-round sets in ONE logical run — cmd/aesattack)")
	return nil
}

// runWalk prints the Fig. 2 page-table walk of an address, with the cache
// level serving each level and the resulting walk latency under the
// §4.1.2 tuning extremes.
func runWalk() error {
	rig, err := experiments.NewRig(cpu.DefaultConfig())
	if err != nil {
		return err
	}
	l := victim.ControlFlowSecret(false)
	if err := rig.InstallVictim(l); err != nil {
		return err
	}
	va := l.Sym("handle")
	steps, err := rig.Module.SoftWalk(rig.Victim, va)
	if err != nil {
		return err
	}
	fmt.Printf("Figure 2 — page-table walk for va=%#x (CR3 ppn=%#x)\n\n",
		va, rig.Victim.AddressSpace().Root())
	for _, s := range steps {
		fmt.Printf("%-4s entry at pa=%#x  ->  %s\n", s.Level, s.EntryAddr, s.Entry)
	}
	fmt.Println("\nwalk-duration tuning (§4.1.2): victim-observed fault delay by levels flushed")
	for levels := 1; levels <= 4; levels++ {
		r2, err := experiments.NewRig(cpu.DefaultConfig())
		if err != nil {
			return err
		}
		l2 := victim.ControlFlowSecret(false)
		if err := r2.InstallVictim(l2); err != nil {
			return err
		}
		var faultCycle uint64
		rec := &microscope.Recipe{
			Name: "walkdemo", Victim: r2.Victim, Handle: l2.Sym("handle"),
			WalkLevels: levels, MaxReplays: 1,
		}
		rec.OnReplay = func(ev microscope.Event) microscope.Decision {
			faultCycle = ev.Cycle
			return microscope.Release
		}
		if err := r2.Module.Install(rec); err != nil {
			return err
		}
		start := r2.Core.Cycle()
		l2.Start(r2.Kernel, 0)
		if err := r2.Run(10_000_000); err != nil {
			return err
		}
		fmt.Printf("  %d level(s) from memory: fault delivered after %d cycles\n",
			levels, faultCycle-start)
		printStats(r2.Core)
	}
	return nil
}

// runDenoise prints the replays-to-confidence curve and the channel's
// information-theoretic quality.
func runDenoise() error {
	fmt.Println("denoising — majority-vote confidence vs replay count")
	for _, secret := range []bool{false, true} {
		res, err := experiments.RunDenoise(secret, 15)
		if err != nil {
			return err
		}
		rep := sidechan.AnalyzeReplayChannel(res.Observations, res.Truth)
		fmt.Printf("secret=%-5t verdict=%-5t replays-to-90%%=%d observations=%v\n",
			secret, res.Verdict, res.ReplaysTo90, res.Observations)
		fmt.Printf("            error-rate=%.2f bits/replay=%.2f replays-for-1e-3=%d\n",
			rep.ErrorRate, rep.BitsPerReplay, rep.ReplaysFor1e3)
	}
	return nil
}
