package stats

import (
	"math"
	"math/rand"
	"testing"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestAccumulatorMatchesSummarize(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]uint64, 1000)
	for i := range xs {
		xs[i] = uint64(rng.Intn(10_000))
	}
	acc := NewAccumulator()
	acc.AddSamples(xs)
	got, want := acc.Summary(), Summarize(xs)
	if got.N != want.N || got.Min != want.Min || got.Max != want.Max {
		t.Fatalf("n/min/max: got %+v want %+v", got, want)
	}
	// Quantiles are exact (same sorted data, same interpolation).
	if got.P50 != want.P50 || got.P95 != want.P95 || got.P99 != want.P99 {
		t.Errorf("quantiles: got %+v want %+v", got, want)
	}
	// Moments agree up to float rounding (Welford vs sum/n).
	if !approx(got.Mean, want.Mean, 1e-9) || !approx(got.Stddev, want.Stddev, 1e-9) {
		t.Errorf("moments: got mean=%v sd=%v want mean=%v sd=%v",
			got.Mean, got.Stddev, want.Mean, want.Stddev)
	}
}
