package stats

import (
	"math"
	"sort"
)

// Accumulator accumulates latency samples incrementally. Moments (mean,
// variance) use Welford's online update; quantiles come from the
// retained samples, sorted once, lazily, when a Summary needs them.
type Accumulator struct {
	n        int
	min, max float64
	mean, m2 float64
	samples  []float64
	unsorted bool
}

// NewAccumulator returns an empty accumulator.
func NewAccumulator() *Accumulator {
	return &Accumulator{min: math.Inf(1), max: math.Inf(-1)}
}

// N returns the number of accumulated samples.
func (a *Accumulator) N() int { return a.n }

// Add accumulates one sample.
func (a *Accumulator) Add(x float64) {
	a.n++
	if x < a.min {
		a.min = x
	}
	if x > a.max {
		a.max = x
	}
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
	if len(a.samples) > 0 && x < a.samples[len(a.samples)-1] {
		a.unsorted = true
	}
	a.samples = append(a.samples, x)
}

// AddSamples accumulates a batch of uint64 samples.
func (a *Accumulator) AddSamples(xs []uint64) {
	for _, x := range xs {
		a.Add(float64(x))
	}
}

// Sort sorts the retained samples now instead of at Summary time.
func (a *Accumulator) Sort() {
	if a.unsorted {
		sort.Float64s(a.samples)
		a.unsorted = false
	}
}

// Summary reduces the accumulator to a Summary. Quantiles are exact
// (computed from the retained, sorted samples).
func (a *Accumulator) Summary() Summary {
	if a.n == 0 {
		return Summary{}
	}
	a.Sort()
	return Summary{
		N:      a.n,
		Min:    a.min,
		Max:    a.max,
		Mean:   a.mean,
		Stddev: math.Sqrt(a.m2 / float64(a.n)),
		P50:    Quantile(a.samples, 0.50),
		P95:    Quantile(a.samples, 0.95),
		P99:    Quantile(a.samples, 0.99),
	}
}
