// Package msbench is the repository's benchmark. It runs one workload
// for a fixed time as a closed loop, checks every output, and prints the
// workload's end-to-end metrics, or with --trace 1 its per-layer metrics,
// as one JSON line. bench/run.sh builds it from the checkout and runs it;
// README.md describes the workloads, the metrics and the compare modes.
//
//	bash bench/run.sh --workload fig10-smt --seed 1 --seconds 25 --trace 0
//	bash bench/run.sh --compare parentDir changeDir
//	bash bench/run.sh --ab <rev> [--workload name]
//
// It runs from the repository root, which holds the golden files its
// output checks read.
//
// Every file of the package is a _test.go file: simlint's determinism
// analyzer, which the repository's own tests run over every non-test Go
// file under the root, bans the wall clocks, core counts and goroutines
// a benchmark needs. run.sh builds the package's test binary, whose
// TestMain runs the benchmark when its first argument is not a -test.
// flag.
package msbench

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// Run shape. Untraced runs split --seconds over plainPasses fresh child
// processes and pool their units, timing setupBatch platform builds
// before each pass and after the last; traced runs give half the time to
// an untraced pass and half to a traced one, then repeat the layer probe
// probeReps times.
const (
	plainPasses = 5
	setupBatch  = 16
	probeReps   = 3
	// runLimit bounds a whole run: the benchmark must end within 180 s.
	runLimit = 170 * time.Second
	// passStride separates the input indices of the passes, so each pass
	// runs inputs the others do not.
	passStride = 100_000
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
	chrome   string
	rev      string
	compare  bool
	ab       string
	child    int
}

func TestMain(m *testing.M) {
	if args := os.Args[1:]; len(args) > 0 && !strings.HasPrefix(args[0], "-test.") {
		os.Exit(run(args, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("msbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", fmt.Sprintf("workload to run, one of %v", workloadNames))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 25, "measuring time of the run, in seconds")
	fs.IntVar(&o.trace, "trace", 0, "1: traced run reporting the per-layer metrics")
	fs.StringVar(&o.out, "out", "", "also write the full result (host fingerprint, simulated counters) to this file")
	fs.StringVar(&o.chrome, "chrome", "", "traced runs: Chrome trace output (default .bench_build/msbench-<workload>-trace.json)")
	fs.StringVar(&o.rev, "rev", "unknown", "source revision recorded in the host fingerprint")
	fs.BoolVar(&o.compare, "compare", false, "compare two directories of --out result files: --compare parentDir changeDir")
	fs.StringVar(&o.ab, "ab", "", "build this revision's simulator and alternate runs of it with the working tree")
	fs.IntVar(&o.child, "child", -1, "internal: run measurement pass N and print it as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "msbench: "+format+"\n", a...)
		return 2
	}
	if (o.compare && fs.NArg() != 2) || (!o.compare && fs.NArg() != 0) {
		return usage("--compare takes two result directories; other modes take no arguments")
	}
	if !o.compare && (o.ab == "" || o.workload != "") {
		if _, err := newWorkload(o.workload, "."); err != nil {
			return usage("%v", err)
		}
	}
	if o.seconds <= 0 || o.trace < 0 || o.trace > 1 {
		return usage("--seconds must be positive and --trace 0 or 1")
	}

	var err error
	switch {
	case o.compare:
		err = compareDirs(".", fs.Arg(0), fs.Arg(1), stdout)
	case o.ab != "":
		err = abRun(o, stdout, stderr)
	case o.child >= 0:
		err = childPass(o, stdout, stderr)
	default:
		err = measure(o, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "msbench:", err)
		return 1
	}
	return 0
}

// passResult is what one child process measured.
type passResult struct {
	// Durations and CPUs are the measured units' wall and process CPU
	// times; the warm-up unit is not among them. Refs are the CPU times
	// of the reference-kernel run before each measured unit.
	Durations []int64 `json:"durations_ns"`
	CPUs      []int64 `json:"cpu_ns"`
	Refs      []int64 `json:"ref_cpu_ns"`
	// RSS is the resident set size after each measured unit, in KiB.
	RSS       []int64 `json:"rss_kib"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	// CPU and Wall cover the measured loop; the allocation and GC
	// figures come from runtime/metrics over the same loop.
	CPU          int64   `json:"loop_cpu_ns"`
	Wall         int64   `json:"loop_wall_ns"`
	AllocBytes   uint64  `json:"alloc_bytes"`
	AllocObjects uint64  `json:"alloc_objects"`
	GCCPUSeconds float64 `json:"gc_cpu_s"`
	// Identity holds the warm-up unit's simulated counters.
	Identity counts `json:"identity"`
	// Traced passes only: every span, and one entry per probe repetition.
	Spans []span     `json:"spans,omitempty"`
	Probe []probeRep `json:"probe,omitempty"`
	// MaxRSSKiB is the child's ru_maxrss, filled in by the parent.
	MaxRSSKiB int64 `json:"max_rss_kib"`
}

// probeRep is one repetition of the layer probe.
type probeRep struct {
	// Ms is the self time of each layer's spans, keyed as in layerSpans.
	Ms          map[string]float64 `json:"ms"`
	Counts      counts             `json:"counts"`
	VerifyAlloc uint64             `json:"verify_alloc_bytes"`
}

// childPass runs one measurement pass: a discarded warm-up unit, then
// units until --seconds have passed, then (traced passes) the probe.
func childPass(o options, stdout, stderr io.Writer) error {
	w, err := newWorkload(o.workload, ".")
	if err != nil {
		return err
	}
	var tr *tracer
	if o.trace == 1 {
		tr = newTracer()
	}
	var res passResult
	base := o.child * passStride
	runUnit := func(i int, call func(*tracer) (counts, error)) (counts, error) {
		var c counts
		if tr != nil {
			tr.unit = i
		}
		err := tr.do("unit", func() (err error) {
			c, err = call(tr)
			return err
		})
		res.Attempted++
		if err != nil {
			res.Failed++
			if res.Failed <= 3 {
				fmt.Fprintf(stderr, "msbench: %s unit %d: %v\n", w.name, i, err)
			}
		}
		return c, err
	}
	res.Identity, _ = runUnit(base, w.unit(o.seed, base))

	ref := newRefKernel(w.parallel)
	rt0, cpu0, t0 := readRuntime(), cpuClock(clockProcess), time.Now()
	limit := time.Duration(o.seconds * float64(time.Second))
	for i := base + 1; len(res.Durations) == 0 || time.Since(t0) < limit; i++ {
		call := w.unit(o.seed, i)
		res.Refs = append(res.Refs, int64(ref.run()))
		start, cpu := time.Now(), cpuClock(clockProcess)
		runUnit(i, call)
		res.Durations = append(res.Durations, int64(time.Since(start)))
		res.CPUs = append(res.CPUs, int64(cpuClock(clockProcess)-cpu))
		res.RSS = append(res.RSS, rssKiB())
	}
	res.Wall, res.CPU = int64(time.Since(t0)), int64(cpuClock(clockProcess)-cpu0)
	rt1 := readRuntime()
	res.AllocBytes = rt1[0].Value.Uint64() - rt0[0].Value.Uint64()
	res.AllocObjects = rt1[1].Value.Uint64() - rt0[1].Value.Uint64()
	res.GCCPUSeconds = rt1[2].Value.Float64() - rt0[2].Value.Float64()

	if tr != nil {
		tr.unit = -1
		for r := 0; r < probeReps; r++ {
			first := len(tr.spans)
			p := &probe{tr: tr, counts: counts{}}
			if err := tr.do("probe", func() error { return w.probe(o.seed, p) }); err != nil {
				return fmt.Errorf("layer probe: %w", err)
			}
			rep := probeRep{Ms: map[string]float64{}, Counts: p.counts, VerifyAlloc: p.verifyAlloc}
			self := selfTimes(tr.spans[first:])
			for _, s := range tr.spans[first:] {
				if name, ok := layerSpans[s.Name]; ok {
					rep.Ms[name] += float64(self[s.ID]) / 1e6
				}
			}
			res.Probe = append(res.Probe, rep)
		}
		res.Spans = tr.spans
	}
	return json.NewEncoder(stdout).Encode(&res)
}

func readRuntime() []metrics.Sample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s
}

// runChild runs measurement pass n in a fresh process of this binary.
func runChild(ctx context.Context, o options, n int, seconds float64, traced bool, stderr io.Writer) (*passResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "--child", strconv.Itoa(n), "--workload", o.workload,
		"--seed", strconv.FormatInt(o.seed, 10), "--seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"--trace", trace)
	cmd.Stderr = stderr
	// The child dies with the benchmark, so no pass outlives a killed run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("pass %d: %w", n, err)
	}
	var pr passResult
	if err := json.Unmarshal(out, &pr); err != nil {
		return nil, fmt.Errorf("pass %d: %w", n, err)
	}
	pr.MaxRSSKiB = cmd.ProcessState.SysUsage().(*syscall.Rusage).Maxrss
	return &pr, nil
}

// result is the full record of one run, written by --out and read by
// the compare modes.
type result struct {
	Host      hostInfo           `json:"host"`
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Identity holds simulated counters: unit.* from the first pass's
	// warm-up unit, probe.* from the layer probe of traced runs.
	Identity counts `json:"identity"`
}

// measure is a whole run: set-up timing, the passes, the metrics.
func measure(o options, stdout, stderr io.Writer) error {
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	w, err := newWorkload(o.workload, ".")
	if err != nil {
		return err
	}
	res := result{Host: fingerprint(o.rev), Workload: o.workload, Seed: o.seed, Seconds: o.seconds,
		Trace: o.trace == 1, Identity: counts{}}

	var plain []*passResult
	var traced *passResult
	var setup []float64
	if res.Trace {
		pr, err := runChild(ctx, o, 0, o.seconds/2, false, stderr)
		if err != nil {
			return err
		}
		plain = append(plain, pr)
		if traced, err = runChild(ctx, o, 1, o.seconds/2, true, stderr); err != nil {
			return err
		}
	} else {
		// A discarded first build pays the process's one-time costs.
		if err := w.setup(o.seed); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		ref := newRefKernel(1)
		for n := 0; ; n++ {
			rel, err := timeSetup(w, o.seed, ref)
			if err != nil {
				return fmt.Errorf("setup: %w", err)
			}
			setup = append(setup, rel...)
			if n == plainPasses {
				break
			}
			pr, err := runChild(ctx, o, n, o.seconds/plainPasses, false, stderr)
			if err != nil {
				return err
			}
			plain = append(plain, pr)
		}
	}
	for _, pr := range plain {
		res.Attempted += pr.Attempted
		res.Failed += pr.Failed
	}
	if traced != nil {
		res.Attempted += traced.Attempted
		res.Failed += traced.Failed
	}
	res.Correct = res.Failed == 0
	for k, v := range plain[0].Identity {
		res.Identity["unit."+k] = v
	}

	defs := endToEnd
	if res.Trace {
		defs = perLayer
		res.Metrics, err = layerMetrics(plain[0], traced)
		if err != nil {
			return err
		}
		for k, v := range traced.Probe[0].Counts {
			res.Identity["probe."+k] = v
		}
		if err := writeChrome(o, traced.Spans); err != nil {
			return err
		}
	} else {
		res.Metrics = endToEndMetrics(plain, setup)
	}

	if o.out != "" {
		data, err := json.MarshalIndent(&res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return printResult(stdout, res, defs)
}

// timeSetup builds the workload's starting platforms setupBatch times
// and returns each build's process CPU time divided by the CPU time of
// the reference-kernel run just before it. Batches are spread over the
// run, so that a stretch of contention on a shared host slows only some
// of them.
func timeSetup(w *workload, seed int64, ref *refKernel) ([]float64, error) {
	var rel []float64
	for i := 0; i < setupBatch; i++ {
		r := ref.run()
		c := cpuClock(clockProcess)
		if err := w.setup(seed); err != nil {
			return nil, err
		}
		rel = append(rel, ratio(float64(cpuClock(clockProcess)-c), float64(r)))
	}
	return rel, nil
}

// endToEndMetrics pools the units of all passes. Every CPU time is
// divided by the CPU time of the reference-kernel run just before it and
// reported times refNominal, as a time on the reference host: on a
// shared host, neighbours slow the simulator by up to 2x for seconds to
// minutes at a time, and the quotient keeps most of that out of the
// metric (README.md has the evidence).
func endToEndMetrics(passes []*passResult, setup []float64) map[string]float64 {
	var cpu, rss []float64
	for _, pr := range passes {
		cpu = append(cpu, relative(pr.CPUs, pr.Refs)...)
		for _, kib := range pr.RSS {
			rss = append(rss, float64(kib)/1024)
		}
	}
	cpu = sortedCopy(cpu)
	refMs := float64(refNominal) / 1e6
	return map[string]float64{
		"unit_cpu_p50_ms": quantile(cpu, 0.5) * refMs,
		"unit_cpu_p90_ms": quantile(cpu, 0.9) * refMs,
		"setup_s":         median(setup) * refNominal.Seconds(),
		"rss_p50_mb":      median(rss),
	}
}

// relative divides each unit's time by its reference-kernel time.
func relative(ns, ref []int64) []float64 {
	out := make([]float64, len(ns))
	for i := range ns {
		out[i] = ratio(float64(ns[i]), float64(ref[i]))
	}
	return out
}

// layerMetrics derives the per-layer metrics from an untraced pass and a
// traced pass with its probe repetitions.
func layerMetrics(plain, traced *passResult) (map[string]float64, error) {
	c := traced.Probe[0].Counts
	for r, rep := range traced.Probe[1:] {
		if !maps.Equal(rep.Counts, c) {
			return nil, fmt.Errorf("layer probe repetition %d read different simulated counters than the first", r+1)
		}
	}
	ms := func(name string) float64 {
		var xs []float64
		for _, rep := range traced.Probe {
			xs = append(xs, rep.Ms[name])
		}
		return median(xs)
	}
	f := func(name string) float64 { return float64(c[name]) }
	var alloc []float64
	for _, rep := range traced.Probe {
		alloc = append(alloc, float64(rep.VerifyAlloc)/(1<<20))
	}
	unskipped := f("cycles") - f("skipped")
	runMs := ms("cpu.run_ms")
	units := float64(len(plain.Durations))
	quantileMs := func(ns []int64, p float64) float64 {
		var xs []float64
		for _, d := range ns {
			xs = append(xs, float64(d)/1e6)
		}
		return quantile(sortedCopy(xs), p)
	}
	m := map[string]float64{
		"cpu.run_ms":                 runMs,
		"cpu.mcycles_per_s":          ratio(f("cycles"), runMs*1e3),
		"cpu.cycles":                 f("cycles"),
		"cpu.unskipped_cycles":       unskipped,
		"cpu.ns_per_unskipped_cycle": ratio(runMs*1e6, unskipped),
		"cpu.ff_skip_frac":           ratio(f("skipped"), f("cycles")),
		"cpu.retired":                f("retired"),
		"cpu.squashed":               f("squashed"),
		"cpu.faults":                 f("faults"),
		"memo.hits":                  f("memo_hits"),
		"memo.misses":                f("memo_misses"),
		"memo.hit_ratio":             ratio(f("memo_hits"), f("memo_hits")+f("memo_misses")),
		"memo.spliced_frac":          ratio(f("spliced"), f("cycles")),
		"cache.l1d_misses":           f("l1d_misses"),
		"cache.l2_misses":            f("l2_misses"),
		"cache.l3_misses":            f("l3_misses"),
		"cache.pwc_hit_ratio":        ratio(f("pwc_hits"), f("pwc_hits")+f("pwc_misses")),
		"tlb.dtlb_misses":            f("dtlb_misses"),
		"tlb.stlb_misses":            f("stlb_misses"),
		"snapshot.capture_ms":        ms("snapshot.capture_ms"),
		"snapshot.restore_ms":        ms("snapshot.restore_ms"),
		"snapshot.encode_ms":         ms("snapshot.encode_ms"),
		"snapshot.decode_ms":         ms("snapshot.decode_ms"),
		"snapshot.image_kb":          f("image_bytes") / 1024,
		"rig.boot_ms":                ms("rig.boot_ms"),
		"rig.install_ms":             ms("rig.install_ms"),
		"verify.verify_ms":           ms("verify.verify_ms"),
		"verify.alloc_mb":            median(alloc),
		"verify.steps":               f("verify_steps"),
		"static.analyze_ms":          ms("static.analyze_ms"),
		"sanitizer.run_ms":           ms("sanitizer.run_ms"),
		"sanitizer.findings":         f("sanitizer_findings"),
		"sweep.cpu_per_wall":         ratio(float64(plain.CPU), float64(plain.Wall)),
		"trace.hash_overhead_frac":   ratio(ms("trace.hashed_run_ms"), runMs) - 1,
		"trace.events":               f("trace_events"),
		"runtime.alloc_mb_per_unit":  float64(plain.AllocBytes) / (1 << 20) / units,
		"runtime.allocs_per_unit":    float64(plain.AllocObjects) / units,
		"runtime.gc_cpu_frac":        ratio(plain.GCCPUSeconds*1e9, float64(plain.CPU)),
		"host.calib_ms":              quantileMs(plain.Refs, 0.5),
		"bench.unit_p50_ms":          quantileMs(plain.Durations, 0.5),
		"bench.unit_p90_ms":          quantileMs(plain.Durations, 0.9),
		"bench.peak_rss_mb":          float64(plain.MaxRSSKiB) / 1024,
		"bench.trace_overhead_frac": ratio(median(relative(traced.CPUs, traced.Refs)),
			median(relative(plain.CPUs, plain.Refs))) - 1,
	}
	return m, nil
}

// writeChrome writes the traced pass's spans as a Chrome trace.
func writeChrome(o options, spans []span) error {
	data, err := chromeJSON(spans, "msbench "+o.workload)
	if err != nil {
		return err
	}
	path := o.chrome
	if path == "" {
		path = filepath.Join(".bench_build", "msbench-"+o.workload+"-trace.json")
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// printResult prints one line per metric, then the result line: a JSON
// object with correct, attempted, failed and every metric of defs.
func printResult(w io.Writer, res result, defs []metricDef) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	fmt.Fprintf(w, "msbench %s seed %d: %d units attempted, %d failed\n",
		res.Workload, res.Seed, res.Attempted, res.Failed)
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not computed", d.Name)
		}
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", d.Name, v, d.Unit)
		line.Metrics[d.Name] = value{v, d.Unit}
	}
	if len(line.Metrics) != len(res.Metrics) {
		var extra []string
		for k := range res.Metrics {
			if _, ok := line.Metrics[k]; !ok {
				extra = append(extra, k)
			}
		}
		sort.Strings(extra)
		return errors.New("metrics computed but not declared: " + fmt.Sprint(extra))
	}
	data, err := json.Marshal(&line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
