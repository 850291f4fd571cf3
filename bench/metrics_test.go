package msbench

import (
	"math"
	"sort"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// metrics in the same order, adding each end-to-end metric's regression
// bound (TestMetricsMatchBenchmarkJSON keeps the two equal).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics of an untraced run: what a user running the
// workload's command sees.
var endToEnd = []metricDef{
	{"unit_cpu_p50_ms", "ms", "lower"},
	{"unit_cpu_p90_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"rss_p50_mb", "MB", "lower"},
}

// perLayer are the metrics of a traced run, named after the package
// whose public calls they time or whose counters they read.
var perLayer = []metricDef{
	{"cpu.run_ms", "ms", "lower"},
	{"cpu.mcycles_per_s", "Mcycles/s", "higher"},
	{"cpu.cycles", "count", "lower"},
	{"cpu.unskipped_cycles", "count", "lower"},
	{"cpu.ns_per_unskipped_cycle", "ns", "lower"},
	{"cpu.ff_skip_frac", "frac", "higher"},
	{"cpu.retired", "count", "lower"},
	{"cpu.squashed", "count", "lower"},
	{"cpu.faults", "count", "lower"},
	{"memo.hits", "count", "higher"},
	{"memo.misses", "count", "lower"},
	{"memo.hit_ratio", "frac", "higher"},
	{"memo.spliced_frac", "frac", "higher"},
	{"cache.l1d_misses", "count", "lower"},
	{"cache.l2_misses", "count", "lower"},
	{"cache.l3_misses", "count", "lower"},
	{"cache.pwc_hit_ratio", "frac", "higher"},
	{"tlb.dtlb_misses", "count", "lower"},
	{"tlb.stlb_misses", "count", "lower"},
	{"snapshot.capture_ms", "ms", "lower"},
	{"snapshot.restore_ms", "ms", "lower"},
	{"snapshot.encode_ms", "ms", "lower"},
	{"snapshot.decode_ms", "ms", "lower"},
	{"snapshot.image_kb", "KiB", "lower"},
	{"rig.boot_ms", "ms", "lower"},
	{"rig.install_ms", "ms", "lower"},
	{"verify.verify_ms", "ms", "lower"},
	{"verify.alloc_mb", "MB", "lower"},
	{"verify.steps", "count", "lower"},
	{"static.analyze_ms", "ms", "lower"},
	{"sanitizer.run_ms", "ms", "lower"},
	{"sanitizer.findings", "count", "lower"},
	{"sweep.cpu_per_wall", "ratio", "higher"},
	{"trace.hash_overhead_frac", "frac", "lower"},
	{"trace.events", "count", "lower"},
	{"runtime.alloc_mb_per_unit", "MB", "lower"},
	{"runtime.allocs_per_unit", "count", "lower"},
	{"runtime.gc_cpu_frac", "frac", "lower"},
	{"host.calib_ms", "ms", "lower"},
	{"bench.unit_p50_ms", "ms", "lower"},
	{"bench.unit_p90_ms", "ms", "lower"},
	{"bench.peak_rss_mb", "MB", "lower"},
	{"bench.trace_overhead_frac", "frac", "lower"},
}

// layerSpans maps the span names the probe records to the per-layer
// time their self time adds to: a per-layer metric, or for the hashed
// run the intermediate that trace.hash_overhead_frac is computed from.
var layerSpans = map[string]string{
	"experiments.NewRig":               "rig.boot_ms",
	"experiments.Rig.InstallVictim":    "rig.install_ms",
	"experiments.Rig.AddMonitor":       "rig.install_ms",
	"experiments.Rig.Checkpoint":       "snapshot.capture_ms",
	"snapshot.Encode":                  "snapshot.encode_ms",
	"snapshot.Decode":                  "snapshot.decode_ms",
	"experiments.Rig.Restore":          "snapshot.restore_ms",
	"experiments.Rig.Run":              "cpu.run_ms",
	"verify.Verify":                    "verify.verify_ms",
	"static.Analyze":                   "static.analyze_ms",
	"experiments.RunSpecSanLayout":     "sanitizer.run_ms",
	"experiments.Rig.Run+trace.Hasher": "trace.hashed_run_ms",
}

// quantile is the p-quantile of sorted values by the default
// ("exclusive") method of Python's statistics.quantiles, so that spreads
// computed here and by scripts over the result lines agree. Outside the
// data's range it clamps where Python extrapolates.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := p * float64(n+1)
	j := int(math.Floor(pos))
	switch {
	case j < 1:
		return sorted[0]
	case j >= n:
		return sorted[n-1]
	}
	return sorted[j-1] + (pos-float64(j))*(sorted[j]-sorted[j-1])
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// iqr is the distance between the first and third quartiles.
func iqr(xs []float64) float64 {
	s := sortedCopy(xs)
	return quantile(s, 0.75) - quantile(s, 0.25)
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
