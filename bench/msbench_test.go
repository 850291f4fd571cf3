package msbench

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"microscope/attack/experiments"
)

// The tests run against the repository this module sits in.
const testRepo = ".."

func TestWorkloadUnitsPassTheirChecks(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w, err := newWorkload(name, testRepo)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.setup(1); err != nil {
				t.Fatalf("setup: %v", err)
			}
			c, err := w.unit(1, 0)(nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(c) == 0 {
				t.Fatal("unit reported no simulated counters")
			}
		})
	}
	if _, err := newWorkload("nope", testRepo); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "fig10-smt", "extra"},
		{"--workload", "fig10-smt", "--trace", "2"},
		{"--workload", "fig10-smt", "--seconds", "0"},
		{"--compare", "onlyOneDir"},
		{"--bogus"},
	} {
		var out, errw strings.Builder
		if code := run(args, &out, &errw); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want exit 2 and no result", args, code, out.String())
		}
	}
}

// TestFig10ProbeFidelity: the probe's rebuilt Fig. 10 sides, restored
// from a decoded checkpoint, measure exactly what RunFig10 measures.
func TestFig10ProbeFidelity(t *testing.T) {
	cfg := fig10Config(0, 0)
	def := experiments.DefaultFig10Config()
	def.Workers = 1
	if cfg != def {
		t.Fatalf("seed 0 unit 0 is not the default jitter phase: %+v", cfg)
	}
	want, err := experiments.RunFig10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.Threshold != 53 || want.MulOver != 6 || want.DivOver != 83 || want.Mul.Cycles+want.Div.Cycles != 979_228 {
		t.Fatalf("RunFig10 at the default phase: threshold %d, over-counts %d and %d, %d cycles; want 53, 6, 83, 979228",
			want.Threshold, want.MulOver, want.DivOver, want.Mul.Cycles+want.Div.Cycles)
	}
	p := &probe{counts: counts{}}
	sides, err := fig10ProbeSides(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range []experiments.Fig10Side{want.Mul, want.Div} {
		if !reflect.DeepEqual(sides[i], w) {
			t.Errorf("side %d: probe measured %d replays in %d cycles, RunFig10 %d in %d (samples equal: %t)",
				i, sides[i].Replays, sides[i].Cycles, w.Replays, w.Cycles, reflect.DeepEqual(sides[i].Samples, w.Samples))
		}
	}
	if p.counts["cycles"] != 979_228 {
		t.Errorf("probe counted %d cycles, want 979228", p.counts["cycles"])
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100.5, 99.5, 100, 101.5, 98.5, 100, 100.2}
	shift := func(xs []float64, by float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x + by
		}
		return out
	}
	nineOfTen := shift(base, -10)
	nineOfTen[3] = 200 // one lost pair
	wide := []float64{70, 130, 80, 120, 75, 125, 90, 110, 60, 140}
	for _, tc := range []struct {
		name           string
		parent, change []float64
		lower          bool
		want           verdict
		wins           int
	}{
		{"nine of ten wins beyond the IQR", base, nineOfTen, true, improved, 9},
		{"higher is better", base, shift(base, 10), false, improved, 10},
		{"ties win nothing", base, base, true, noWorse, 0},
		{"gain inside the parent IQR", base, shift(base, -0.5), true, noWorse, 10},
		{"eight of ten wins", base, append(shift(base[:8], -10), 101, 102), true, noWorse, 8},
		{"regression beyond the bound", base, shift(base, 15), true, worse, 0},
		{"regression inside the bound", base, shift(base, 5), true, noWorse, 0},
		{"spread wider than the bound", wide, shift(wide, 5), true, unresolved, 0},
		{"wide, every change run better, gain inside the IQR", wide,
			[]float64{50, 58, 52, 57, 51, 59, 53, 56, 54, 55}, true, noWorse, 10},
	} {
		got, wins, pairs := judge(tc.parent, tc.change, tc.lower, 0.1)
		if got != tc.want || wins != tc.wins || pairs != 10 {
			t.Errorf("%s: %s with %d/%d wins, want %s with %d/10", tc.name, got, wins, pairs, tc.want, tc.wins)
		}
	}
}

func TestSameHostRefusesOtherHosts(t *testing.T) {
	a := &result{Host: hostInfo{CPUModel: "Xeon", NProc: 2}}
	b := &result{Host: hostInfo{CPUModel: "Xeon", NProc: 2, Rev: "other"}}
	if err := sameHost([]*result{a, b}); err != nil {
		t.Fatalf("same host refused: %v", err)
	}
	for _, h := range []hostInfo{{CPUModel: "EPYC", NProc: 2}, {CPUModel: "Xeon", NProc: 4}} {
		if err := sameHost([]*result{a, {Host: h}}); err == nil {
			t.Errorf("compared %+v with %+v", a.Host, h)
		}
	}
}

func TestIdentityDiffs(t *testing.T) {
	run := func(cycles uint64, traced bool) *result {
		r := &result{Workload: "fig10-smt", Seed: 1, Identity: counts{"unit.cycles": cycles}}
		if traced {
			r.Identity["probe.retired"] = 7
		}
		return r
	}
	if d := identityDiffs([]*result{run(5, false), run(5, true)}, []*result{run(5, true)}); len(d) != 0 {
		t.Fatalf("equal runs differ: %v", d)
	}
	if d := identityDiffs([]*result{run(5, false)}, []*result{run(6, false)}); len(d) != 1 {
		t.Fatalf("changed cycle count not reported: %v", d)
	}
}

// TestRefKernelLanes runs the two-lane reference kernel, the
// tournament's, whose lanes run on their own goroutines.
func TestRefKernelLanes(t *testing.T) {
	k := newRefKernel(tournamentWorkers)
	for i := 0; i < 3; i++ {
		if d := k.run(); d <= 0 {
			t.Fatalf("reference run took %v of CPU", d)
		}
	}
}

func TestQuantileMatchesPython(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	for p, want := range map[float64]float64{0.25: 2.75, 0.5: 5.5, 0.75: 8.25} {
		if got := quantile(xs, p); got != want {
			t.Errorf("quantile(%v) = %v, want %v", p, got, want)
		}
	}
}

func TestChromeTraceAndSelfTime(t *testing.T) {
	tr := newTracer()
	_ = tr.do("outer", func() error {
		return tr.do("inner", func() error { return nil })
	})
	tr.spans[0].Start, tr.spans[0].End = 0, 100
	tr.spans[1].Start, tr.spans[1].End = 10, 40
	self := selfTimes(tr.spans)
	if self[1] != 70 || self[2] != 30 || tr.spans[1].Parent != 1 {
		t.Fatalf("self times %v, spans %+v", self, tr.spans)
	}
	if _, err := chromeJSON(tr.spans, "test"); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsMatchBenchmarkJSON keeps BENCHMARK.json, which the
// benchmark's users read, equal to the metrics this program prints.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(testRepo + "/BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program %v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, program %v", spec.PerLayer, perLayer)
	}
}
