// Command microscope is the framework's CLI. Each subcommand reproduces
// one of the paper's tables or figures:
//
//	fig10      — the §6.1 port-contention attack (Fig. 10), optionally as a sweep
//	aes        — the Fig. 11 AES replays, the §6.2 extraction and a key-byte sweep
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
//
// Three more are tools rather than figures:
//
//	pipeview   — what each replay window fetched, issued and squashed, per instruction
//	lab        — mount a recipe on a victim script and report each replay window
//	snapdiff   — diff two machine images written by -checkpoint-out
//
// Global flags go before the subcommand, and each is rejected by the
// subcommands that do not read it. fig10, aes, pipeview and lab take
// flags of their own after their name, snapdiff takes the two image
// files, and the other subcommands take no arguments:
//
//	microscope -workers 4 fig10 -trials 8
//	microscope -trace out.json pipeview -replays 2
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"

	"microscope/analysis/sidechan"
	"microscope/attack/baseline"
	"microscope/attack/experiments"
	"microscope/attack/microscope"
	"microscope/attack/platform"
	"microscope/attack/victim"
	"microscope/sim/cpu"
	"microscope/sim/sanitizer"
	"microscope/sim/snapshot"
	"microscope/sim/trace"
)

// The global flags. globalFlags binds them to a new flag set, so every
// parse starts from their defaults.
var (
	// workers bounds the goroutines of subcommands that fan independent
	// simulations out as parallel sweeps; any value yields identical
	// output.
	workers int

	// showStats, for subcommands that drive a single simulated core
	// (table2, timeline, execpath, walk), appends per-context pipeline
	// statistics, the fast-forward skip count and host allocation
	// counters after the subcommand's normal output.
	showStats bool

	// Profiling hooks: the CLI doubles as the perf-work harness, so any
	// subcommand can be profiled directly instead of reconstructing its
	// workload in a benchmark.
	cpuProfile, memProfile string

	// traceOut and showMetrics attach the sim/trace observability stack
	// to subcommands that drive a single simulated core (table2,
	// timeline, execpath, pipeview): a Chrome Trace Event JSON of every
	// instruction lifecycle, and deterministic aggregate pipeline
	// metrics.
	traceOut    string
	showMetrics bool

	// sanitize attaches the SpecSan shadow-taint engine (sim/sanitizer)
	// to subcommands that drive a single simulated core: shadow state is
	// seeded from the victim's secret declaration, transmit events are
	// printed after the run with replay attribution, and -trace output
	// gains a "specsan" track pinning each finding to its replay
	// iteration.
	sanitize bool

	// Checkpointing flags (timeline subcommand). -checkpoint-every
	// snapshots the whole machine (memory, core, kernel, module) on a
	// fixed cycle period into an in-memory list; -reverse-to K then
	// "steps backwards" by restoring the nearest checkpoint at or below
	// cycle K and re-running forward to exactly K — deterministic replay
	// makes the re-run bit-identical to the original pass through that
	// cycle. -checkpoint-out writes the machine state at command exit as
	// a gob image that `microscope snapdiff` can diff against another
	// run's.
	checkpointEvery, reverseTo uint64
	checkpointOut              string

	// jsonOut switches the tournament subcommand from the rendered grids
	// to the byte-deterministic JSON matrix — the exact bytes the golden
	// test gates, so CI diffs and the committed testdata stay comparable.
	jsonOut bool
)

// globalFlags binds the global flags to a new flag set that reports to
// errw.
func globalFlags(errw io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("microscope", flag.ContinueOnError)
	fs.SetOutput(errw)
	fs.Usage = func() {
		usage(errw)
		fs.PrintDefaults()
	}
	fs.IntVar(&workers, "workers", 0,
		"parallel sweep workers (<=0: GOMAXPROCS); results are identical for any value (generalize, defenses, tournament, baselines, fig10, aes)")
	fs.BoolVar(&showStats, "stats", false,
		"print per-context pipeline statistics, fast-forward skip counts and host allocation counters after the run (table2, timeline, execpath, walk)")
	fs.StringVar(&cpuProfile, "cpuprofile", "",
		"write a CPU profile of the whole run to this `file` (inspect with go tool pprof)")
	fs.StringVar(&memProfile, "memprofile", "",
		"write a heap profile at command exit to this `file` (inspect with go tool pprof)")
	fs.StringVar(&traceOut, "trace", "",
		"write a Chrome Trace Event JSON of the run to this `file` (Perfetto-loadable; table2, timeline, execpath, pipeview)")
	fs.BoolVar(&showMetrics, "metrics", false,
		"print deterministic aggregate pipeline metrics after the run (table2, timeline, execpath, pipeview)")
	fs.BoolVar(&sanitize, "sanitize", false,
		"attach the SpecSan taint sanitizer and report secret-transmit events after the run (table2, timeline, execpath)")
	fs.Uint64Var(&checkpointEvery, "checkpoint-every", 0,
		"snapshot the machine every `N` cycles during timeline (enables -reverse-to)")
	fs.Uint64Var(&reverseTo, "reverse-to", 0,
		"after timeline completes, restore the nearest checkpoint <= `K` and re-run to cycle K, then print the machine state (requires -checkpoint-every)")
	fs.StringVar(&checkpointOut, "checkpoint-out", "",
		"write the machine snapshot at timeline exit to this `file` (gob; diff two with microscope snapdiff)")
	fs.BoolVar(&jsonOut, "json", false,
		"print the tournament matrix as canonical JSON instead of rendered tables (tournament only)")
	return fs
}

// flagScope lists, for each global flag that only some subcommands
// read, the subcommands that read it. -cpuprofile and -memprofile apply
// to every subcommand.
var flagScope = map[string][]string{
	"workers":          {"generalize", "defenses", "tournament", "baselines", "fig10", "aes"},
	"stats":            {"table2", "timeline", "execpath", "walk"},
	"trace":            {"table2", "timeline", "execpath", "pipeview"},
	"metrics":          {"table2", "timeline", "execpath", "pipeview"},
	"sanitize":         {"table2", "timeline", "execpath"},
	"json":             {"tournament"},
	"checkpoint-every": {"timeline"},
	"reverse-to":       {"timeline"},
	"checkpoint-out":   {"timeline"},
}

// observers are the sinks the -trace, -metrics and -sanitize flags
// attach to a run.
type observers struct {
	col *trace.Collector
	san *sanitizer.Sanitizer
}

// bootVictim builds a platform, installs l as its victim and attaches
// the observers the global flags ask for; spans attaches the lifecycle
// collector even without -trace or -metrics. With no flag set the core
// keeps a nil tracer and no shadow, and pays nothing.
func bootVictim(l *victim.Layout, spans bool) (*platform.Rig, *observers, error) {
	rig, err := platform.New(cpu.DefaultConfig())
	if err != nil {
		return nil, nil, err
	}
	if err := rig.InstallVictim(l); err != nil {
		return nil, nil, err
	}
	o := &observers{}
	if spans || traceOut != "" || showMetrics {
		o.col = trace.NewCollector(trace.DefaultCapacity)
		rig.Core.SetTracer(o.col)
	}
	if sanitize {
		// Seeded from the victim's secret declaration.
		if o.san, err = experiments.AttachSanitizer(rig, l, sanitizer.DefaultConfig()); err != nil {
			return nil, nil, err
		}
	}
	return rig, o, nil
}

// finish prints the sanitizer findings (replay-attributed from the
// module timeline), writes the Chrome trace under -trace (annotated
// with the module's replay timeline and the specsan track), and prints
// the metrics block.
func (o *observers) finish(out io.Writer, rig *platform.Rig) error {
	if o.san != nil {
		o.san.Flush()
		o.san.AttributeReplays(rig.Module.ReplayWindows())
		printSanitizerFindings(out, o.san)
	}
	if traceOut != "" {
		anns := rig.Module.TraceAnnotations()
		if o.san != nil {
			anns = append(anns, o.san.Annotations()...)
		}
		f, err := os.Create(traceOut)
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
		fmt.Fprintf(out, "wrote Chrome trace to %s (open in Perfetto or chrome://tracing)\n", traceOut)
	}
	if showMetrics {
		fmt.Fprintln(out, "\n-- pipeline metrics --")
		fmt.Fprint(out, o.col.Metrics().Text(rig.Core.Config().ROBSize))
	}
	return nil
}

// printSanitizerFindings renders the SpecSan transmit-finding block.
func printSanitizerFindings(out io.Writer, san *sanitizer.Sanitizer) {
	fmt.Fprintln(out, "\n-- SpecSan transmit findings --")
	fs := san.Findings()
	if len(fs) == 0 {
		fmt.Fprintln(out, "none: no tainted data reached an observable channel")
		return
	}
	for _, f := range fs {
		flow := "explicit"
		if f.Implicit {
			flow = "implicit"
		}
		fmt.Fprintf(out, "@%-4d %-24s %-15s %-9s transient %d/%d instances, %d replay window(s), taint %v\n",
			f.PC, f.Instr, f.Channel, flow, f.Transient, f.Count, f.Replays, san.AtomLabels(f.Taint))
	}
}

// printStats renders the post-run statistics block for core. The host
// allocation figures come from the Go runtime and naturally vary between
// machines; everything above them is deterministic simulation state.
func printStats(out io.Writer, core *cpu.Core) {
	if !showStats {
		return
	}
	cycles := core.Cycle()
	skipped := core.SkippedCycles()
	pct := 0.0
	if cycles > 0 {
		pct = 100 * float64(skipped) / float64(cycles)
	}
	fmt.Fprintln(out, "\n-- simulation statistics --")
	fmt.Fprintf(out, "core:  cycles=%d fast-forwarded=%d (%.1f%%)\n", cycles, skipped, pct)
	for i := 0; i < core.Contexts(); i++ {
		ctx := core.Context(i)
		if ctx.Program() == nil {
			continue
		}
		s := ctx.Stats()
		fmt.Fprintf(out, "ctx%d:  fetched=%d retired=%d squashed=%d faults=%d txaborts=%d\n",
			i, s.Fetched, s.Retired, s.Squashed, s.PageFaults, s.TxAborts)
		fmt.Fprintf(out, "       mispredicts=%d memorder=%d stall-cycles=%d skipped-cycles=%d\n",
			s.Mispredicts, s.MemOrderViolations, s.StallCycles, s.SkippedCycles)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(out, "host:  heap-allocs=%d heap-bytes=%d gc-cycles=%d\n",
		ms.Mallocs, ms.TotalAlloc, ms.NumGC)
}

// commands are the subcommands that take no arguments; fig10 and aes
// parse their own flags (parseFig10, parseAES).
var commands = map[string]func(io.Writer) error{
	"table1":     runTable1,
	"table2":     runTable2,
	"timeline":   runTimeline,
	"execpath":   runExecPath,
	"generalize": runGeneralize,
	"defenses":   runDefenses,
	"tournament": runTournament,
	"denoise":    runDenoise,
	"baselines":  runBaselines,
	"walk":       runWalk,
}

// errReported is a usage error already written to the error stream,
// such as a malformed flag the flag package reported with the usage.
var errReported = errors.New("usage error reported")

// usageError is a usage error a subcommand finds only once it runs,
// such as a lab flag naming a symbol its script does not define. It
// exits 2.
type usageError struct{ error }

// errDiffer is snapdiff's verdict on two images that differ. The diff
// it printed is the report, so it exits 1 with nothing on stderr.
var errDiffer = errors.New("snapshots differ")

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command line. It parses argv, then runs the
// subcommand, which writes its report to out. Usage errors exit 2, all
// but a usageError before anything runs; a failed run exits 1, and so
// does a snapdiff of two images that differ.
func run(argv []string, out, errw io.Writer) int {
	cmd, err := parse(argv, errw)
	switch {
	case errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errReported):
		return 2
	case err != nil:
		fmt.Fprintln(errw, "microscope:", err)
		return 2
	}
	err = profiled(cmd, out, errw)
	if err == nil {
		return 0
	}
	if !errors.Is(err, errDiffer) {
		fmt.Fprintln(errw, "microscope:", err)
	}
	if errors.As(err, new(usageError)) {
		return 2
	}
	return 1
}

// parse parses the global flags, the subcommand's name and the
// subcommand's own arguments, and returns the subcommand ready to run.
func parse(argv []string, errw io.Writer) (func(io.Writer) error, error) {
	fs := globalFlags(errw)
	if err := parseFlags(fs, argv); err != nil {
		return nil, err
	}
	if fs.NArg() == 0 {
		usage(errw)
		return nil, errReported
	}
	name, args := fs.Arg(0), fs.Args()[1:]
	var cmd func(io.Writer) error
	var err error
	switch name {
	case "fig10":
		cmd, err = parsed(parseFig10(args, errw))
	case "aes":
		cmd, err = parsed(parseAES(args, errw))
	case "pipeview":
		cmd, err = parsed(parsePipeview(args, errw))
	case "lab":
		cmd, err = parsed(parseLab(args, errw))
	case "snapdiff":
		cmd, err = parsed(parseSnapdiff(args))
	default:
		cmd = commands[name]
		if cmd == nil {
			usage(errw)
			return nil, fmt.Errorf("unknown subcommand %q", name)
		}
		err = noArgs(name, args)
	}
	if err != nil {
		return nil, err
	}
	var set []string
	fs.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	if err := checkFlags(name, set); err != nil {
		return nil, err
	}
	return cmd, nil
}

// parsed returns the run method of a subcommand's parsed command line,
// or the error its parse returned.
func parsed[O interface{ run(io.Writer) error }](o O, err error) (func(io.Writer) error, error) {
	if err != nil {
		return nil, err
	}
	return o.run, nil
}

// parseFlags parses args into fs. The flag package has already reported
// a malformed flag, with the usage, so that comes back as errReported.
func parseFlags(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return errReported
	}
	return err
}

// noArgs rejects any argument left after subcommand name and its flags,
// naming the first.
func noArgs(name string, args []string) error {
	if len(args) > 0 {
		return fmt.Errorf("%s: unexpected argument %q", name, args[0])
	}
	return nil
}

// checkFlags rejects a global flag in set that subcommand cmd does not
// read, and flag combinations that cannot work, before anything runs.
func checkFlags(cmd string, set []string) error {
	for _, name := range set {
		if cmds, ok := flagScope[name]; ok && !slices.Contains(cmds, cmd) {
			return fmt.Errorf("-%s does not apply to %s (only %s)", name, cmd, strings.Join(cmds, ", "))
		}
	}
	if reverseTo != 0 && checkpointEvery == 0 {
		return errors.New("-reverse-to requires -checkpoint-every")
	}
	return nil
}

// profiled runs cmd under the -cpuprofile and -memprofile hooks.
func profiled(cmd func(io.Writer) error, out, errw io.Writer) error {
	var cpuFile *os.File
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		cpuFile = f
	}
	err := cmd(out)
	if cpuFile != nil {
		pprof.StopCPUProfile()
		err = errors.Join(err, cpuFile.Close())
		fmt.Fprintf(errw, "wrote CPU profile to %s\n", cpuProfile)
	}
	if memProfile != "" {
		err = errors.Join(err, writeHeapProfile(memProfile, errw))
	}
	return err
}

// writeHeapProfile snapshots the heap (after a GC, so the profile shows
// live data rather than collectible garbage) into path.
func writeHeapProfile(path string, errw io.Writer) error {
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
	fmt.Fprintf(errw, "wrote heap profile to %s\n", path)
	return nil
}

// usage prints the command's synopsis.
func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: microscope [-workers N] [-stats] [-cpuprofile f] [-memprofile f] [-sanitize] [-trace out.json] [-metrics] [-json] [-checkpoint-every N] [-reverse-to K] [-checkpoint-out img.gob] <table1|table2|timeline|execpath|generalize|defenses|tournament|denoise|baselines|walk>
       microscope [global flags] fig10 [-samples N] [-cont N] [-handler cycles] [-walk levels] [-hist=false] [-trials N]
       microscope [global flags] aes [-key K] [-pt P] [-full=false] [-keysweep N]
       microscope [global flags] pipeview [-replays N] [-secret=false]
       microscope [global flags] lab -script f.s [-handle s] [-pivot s] [-probe s] [-lines N] [-replays N] [-walk L] [-disasm]
       microscope [global flags] snapdiff a.gob b.gob`)
}

// runTable1 prints the Table 1 side-channel taxonomy.
func runTable1(out io.Writer) error {
	fmt.Fprint(out, sidechan.FormatTable1(sidechan.Table1()))
	return nil
}

// runTable2 exercises the five Table 2 operations against a live victim.
func runTable2(out io.Writer) error {
	l := victim.LoopSecret([]byte{5, 9})
	rig, obs, err := bootVictim(l, false)
	if err != nil {
		return err
	}
	u := rig.Module.User(rig.Victim)
	fmt.Fprintln(out, "Table 2 — MicroScope user API")
	fmt.Fprintf(out, "provide_replay_handle(%#x)\n", l.Sym("handle"))
	u.ProvideReplayHandle(l.Sym("handle"))
	fmt.Fprintf(out, "provide_pivot(%#x)\n", l.Sym("pivot"))
	u.ProvidePivot(l.Sym("pivot"))
	fmt.Fprintf(out, "provide_monitor_addr(%#x)\n", l.Sym("probe"))
	u.ProvideMonitorAddr(l.Sym("probe"))
	fmt.Fprintf(out, "initiate_page_walk(%#x, 2)\n", l.Sym("probe"))
	if err := u.InitiatePageWalk(l.Sym("probe"), 2); err != nil {
		return err
	}
	fmt.Fprintf(out, "initiate_page_fault(%#x)\n", l.Sym("handle"))
	u.Recipe().MaxReplays = 5
	if err := u.InitiatePageFault(l.Sym("handle")); err != nil {
		return err
	}
	l.Start(rig.Kernel, 0)
	if err := rig.Run(20_000_000); err != nil {
		return err
	}
	fmt.Fprintf(out, "-> victim replayed %d times, then released; victim finished: %t\n",
		u.Recipe().Replays(), rig.Core.Context(0).Halted())
	if err := obs.finish(out, rig); err != nil {
		return err
	}
	printStats(out, rig.Core)
	return nil
}

// runTimeline reproduces the Fig. 3 interleaving on a live attack.
func runTimeline(out io.Writer) error {
	l := victim.ControlFlowSecret(true)
	rig, obs, err := bootVictim(l, false)
	if err != nil {
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
	checkpoints, err := runCheckpointed(out, rig, 10_000_000)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "Figure 3 — replayer/victim timeline (cycles are simulated)")
	fmt.Fprint(out, microscope.FormatTimeline(rig.Module.Timeline()))
	if err := obs.finish(out, rig); err != nil {
		return err
	}
	printStats(out, rig.Core)
	if reverseTo > 0 {
		if err := reverseStep(out, rig, checkpoints, reverseTo); err != nil {
			return err
		}
	}
	if checkpointOut != "" {
		if err := writeCheckpoint(out, rig, checkpointOut); err != nil {
			return err
		}
	}
	return nil
}

// cycleCheckpoint is one periodic whole-machine checkpoint.
type cycleCheckpoint struct {
	Cycle uint64
	CP    *platform.Checkpoint
}

// runCheckpointed runs the rig to completion within budget. With
// -checkpoint-every N it runs in N-cycle chunks, snapshotting the whole
// machine after each (plus a cycle-0 baseline); the chunked run is
// bit-identical to an unchunked one (Run resumes exactly where it
// stopped, and taking a snapshot does not perturb machine state).
func runCheckpointed(out io.Writer, rig *platform.Rig, budget uint64) ([]cycleCheckpoint, error) {
	every := checkpointEvery
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
	end := rig.Core.Cycle() + budget
	for !rig.Core.Halted() && rig.Core.Cycle() < end {
		if _, err := rig.RunUntil(nil, min(every, end-rig.Core.Cycle())); err != nil {
			return nil, err
		}
		if err := take(); err != nil {
			return nil, err
		}
	}
	if !rig.Core.Halted() {
		return nil, rig.TimeoutErr(budget)
	}
	fmt.Fprintf(out, "(%d checkpoints taken, every %d cycles)\n", len(cps), every)
	return cps, nil
}

// reverseStep restores the nearest checkpoint at or below the target
// cycle and deterministically re-runs forward to it — the "step
// backwards to cycle k-1" debugging move a forward-only simulator
// cannot otherwise make.
func reverseStep(out io.Writer, rig *platform.Rig, cps []cycleCheckpoint, target uint64) error {
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
		// A fixed cycle count: running out of it is the point, not an
		// error.
		if _, err := rig.RunUntil(nil, target-best.Cycle); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "\n-- reverse-step: restored cycle-%d checkpoint, re-ran to cycle %d --\n",
		best.Cycle, rig.Core.Cycle())
	for i := 0; i < rig.Core.Contexts(); i++ {
		ctx := rig.Core.Context(i)
		if ctx.Program() == nil {
			continue
		}
		s := ctx.Stats()
		fmt.Fprintf(out, "ctx%d: pc=%d halted=%t retired=%d faults=%d\n",
			i, ctx.PC(), ctx.Halted(), s.Retired, s.PageFaults)
	}
	return nil
}

// writeCheckpoint snapshots the rig as it stands and writes the gob
// image snapdiff reads.
func writeCheckpoint(out io.Writer, rig *platform.Rig, path string) error {
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
	fmt.Fprintf(out, "wrote machine snapshot to %s (compare two with microscope snapdiff)\n", path)
	return nil
}

// runExecPath narrates the Fig. 9 execution path of a single intercepted
// fault.
func runExecPath(out io.Writer) error {
	l := victim.ControlFlowSecret(false)
	rig, obs, err := bootVictim(l, false)
	if err != nil {
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
	fmt.Fprintln(out, "Figure 9 — execution path of a MicroScope attack")
	fmt.Fprintln(out, "1. application issues the replay-handle access (virtual address)")
	fmt.Fprintln(out, "2. MMU raises a page fault; control enters the OS")
	fmt.Fprintln(out, "3. page-fault handler classifies the fault (present bit clear)")
	for _, s := range steps {
		fmt.Fprintln(out, s)
	}
	fmt.Fprintln(out, "6. page-fault handler completes")
	fmt.Fprintf(out, "7. control returns to the application (victim finished: %t)\n",
		rig.Core.Context(0).Halted())
	if err := obs.finish(out, rig); err != nil {
		return err
	}
	printStats(out, rig.Core)
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
func runGeneralize(out io.Writer) error {
	fmt.Fprintln(out, "Figure 12 — generalized microarchitectural replay attacks (tournament cells)")
	if err := printCells(out, generalizeRoster); err != nil {
		return err
	}
	fmt.Fprintln(out, "\n§7.2 — RDRAND bias (integrity attack)")
	for _, fenced := range []bool{false, true} {
		r, err := experiments.RunRDRANDBias(1, 100, fenced)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "fenced=%-5t observed=%-5t biased=%-5t windows=%d finalBit=%d\n",
			fenced, r.Observed, r.Achieved, r.Windows, r.FinalLowBit)
	}
	return nil
}

// runDefenses prints the §8 countermeasures as tournament cells.
func runDefenses(out io.Writer) error {
	fmt.Fprintln(out, "§8 — countermeasure evaluation (tournament cells)")
	return printCells(out, defensesRoster)
}

// printCells runs the tournament restricted to roster and prints every
// cell and control row it produced.
func printCells(out io.Writer, roster experiments.TournamentOptions) error {
	roster.Workers = workers
	m, err := experiments.RunTournament(roster)
	if err != nil {
		return err
	}
	fmt.Fprint(out, renderCells(m))
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
func runTournament(out io.Writer) error {
	m, err := experiments.RunTournament(experiments.TournamentOptions{Workers: workers})
	if err != nil {
		return err
	}
	if jsonOut {
		b, err := m.JSON()
		if err != nil {
			return err
		}
		fmt.Fprint(out, string(b))
		return nil
	}
	fmt.Fprint(out, m.Render())
	return nil
}

// runBaselines runs the §2.4 prior attacks for comparison.
func runBaselines(out io.Writer) error {
	fmt.Fprintln(out, "§2.4 baselines — the attacks MicroScope improves on")
	cc, err := baseline.RunControlledChannel(true)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "controlled channel [60]: page secret recovered=%t, line secret visible=%t (page granularity)\n",
		cc.PageSecretCorrect, cc.LineSecretVisible)
	spm, err := baseline.RunSPM(true)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "sneaky page monitoring [58]: page secret recovered=%t, victim saw faults=%t\n",
		spm.PageSecretCorrect, spm.VictimObservedFault)
	pp, err := baseline.RunPrimeProbe([]byte("0123456789abcdef"), []byte("attack at dawn!!"), 0.2, 150, 7, workers)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "multi-run prime+probe [9,18]: single noisy trace correct=%t, traces to stability=%d, per-round resolution=%t\n",
		pp.SingleRunObserved == pp.UnionTruth, pp.TracesTo99, pp.PerRoundResolved)
	fmt.Fprintln(out, "(compare: MicroScope recovers exact per-round sets in ONE logical run — microscope aes)")
	return nil
}

// runWalk prints the Fig. 2 page-table walk of an address, with the cache
// level serving each level and the resulting walk latency under the
// §4.1.2 tuning extremes.
func runWalk(out io.Writer) error {
	l := victim.ControlFlowSecret(false)
	rig, _, err := bootVictim(l, false)
	if err != nil {
		return err
	}
	va := l.Sym("handle")
	steps, err := rig.Module.SoftWalk(rig.Victim, va)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "Figure 2 — page-table walk for va=%#x (CR3 ppn=%#x)\n\n",
		va, rig.Victim.AddressSpace().Root())
	for _, s := range steps {
		fmt.Fprintf(out, "%-4s entry at pa=%#x  ->  %s\n", s.Level, s.EntryAddr, s.Entry)
	}
	fmt.Fprintln(out, "\nwalk-duration tuning (§4.1.2): victim-observed fault delay by levels flushed")
	for levels := 1; levels <= 4; levels++ {
		l2 := victim.ControlFlowSecret(false)
		r2, _, err := bootVictim(l2, false)
		if err != nil {
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
		fmt.Fprintf(out, "  %d level(s) from memory: fault delivered after %d cycles\n",
			levels, faultCycle-start)
		printStats(out, r2.Core)
	}
	return nil
}

// runDenoise prints the replays-to-confidence curve and the channel's
// information-theoretic quality.
func runDenoise(out io.Writer) error {
	fmt.Fprintln(out, "denoising — majority-vote confidence vs replay count")
	for _, secret := range []bool{false, true} {
		res, err := experiments.RunDenoise(secret, 15)
		if err != nil {
			return err
		}
		rep := sidechan.AnalyzeReplayChannel(res.Observations, res.Truth)
		fmt.Fprintf(out, "secret=%-5t verdict=%-5t replays-to-90%%=%d observations=%v\n",
			secret, res.Verdict, res.ReplaysTo90, res.Observations)
		fmt.Fprintf(out, "            error-rate=%.2f bits/replay=%.2f replays-for-1e-3=%d\n",
			rep.ErrorRate, rep.BitsPerReplay, rep.ReplaysFor1e3)
	}
	return nil
}
