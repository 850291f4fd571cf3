package sweep

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// trialOutput is a deliberately rich result type: scalars, slices, and
// derived randomness, so byte-comparison is meaningful.
type trialOutput struct {
	Trial   int
	Samples []uint64
	Sum     uint64
}

func makeTrial(base int64) Trial[trialOutput] {
	return func(trial int) (trialOutput, error) {
		rng := rand.New(rand.NewSource(SeedFor(base, trial)))
		out := trialOutput{Trial: trial}
		for i := 0; i < 64; i++ {
			x := uint64(rng.Intn(100_000))
			out.Samples = append(out.Samples, x)
			out.Sum += x
		}
		return out, nil
	}
}

func encode(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The headline guarantee: for any worker count, the sweep's output is
// byte-identical to the serial (workers=1) run.
func TestWorkerCountInvariance(t *testing.T) {
	const n = 37
	serial, err := Run(n, Options{Workers: 1}, makeTrial(99))
	if err != nil {
		t.Fatal(err)
	}
	ref := encode(t, serial)
	for _, workers := range []int{2, 3, 8, 64} {
		got, err := Run(n, Options{Workers: workers}, makeTrial(99))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encode(t, got), ref) {
			t.Errorf("workers=%d: results differ from serial run", workers)
		}
	}
}

func TestRunOrderAndCompleteness(t *testing.T) {
	out, err := Run(100, Options{Workers: 8}, func(trial int) (int, error) {
		return trial * trial, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 100 {
		t.Fatalf("len = %d", len(out))
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d (results out of order)", i, v, i*i)
		}
	}
}

func TestRunZeroTrials(t *testing.T) {
	out, err := Run(0, Options{}, func(int) (int, error) { return 0, errors.New("never") })
	if err != nil || len(out) != 0 {
		t.Fatalf("zero-trial sweep: %v, %v", out, err)
	}
}

// Error propagation: the reported error is the lowest failing trial's,
// for every worker count, and surviving trials still complete.
func TestErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	trial := func(i int) (int, error) {
		if i == 7 || i == 13 {
			return 0, fmt.Errorf("trial %d: %w", i, boom)
		}
		return i, nil
	}
	for _, workers := range []int{1, 4, 16} {
		out, err := Run(20, Options{Workers: workers}, trial)
		if err == nil {
			t.Fatalf("workers=%d: no error", workers)
		}
		var te *TrialError
		if !errors.As(err, &te) {
			t.Fatalf("workers=%d: error %T is not *TrialError", workers, err)
		}
		if te.Trial != 7 {
			t.Errorf("workers=%d: reported trial %d, want 7 (lowest failing)", workers, te.Trial)
		}
		if !errors.Is(err, boom) {
			t.Errorf("workers=%d: cause not preserved: %v", workers, err)
		}
		if out[6] != 6 || out[19] != 19 {
			t.Errorf("workers=%d: surviving trials incomplete: %v", workers, out)
		}
		if out[7] != 0 {
			t.Errorf("workers=%d: failed trial slot = %d, want zero value", workers, out[7])
		}
	}
}

func TestWorkersNormalization(t *testing.T) {
	if Workers(0) < 1 || Workers(-5) < 1 {
		t.Error("non-positive worker counts must normalize to >= 1")
	}
	if Workers(3) != 3 {
		t.Error("positive worker counts must pass through")
	}
}

func TestSeedFor(t *testing.T) {
	// Deterministic: the same (base, trial) always yields the same seed.
	if SeedFor(100, 7) != SeedFor(100, 7) {
		t.Error("SeedFor must be deterministic")
	}
	// The old base+trial derivation made adjacent base seeds share
	// per-trial streams (trial t of base b+1 == trial t+1 of base b),
	// correlating sweeps that claim independence. The mixed derivation
	// must keep nearby (base, trial) pairs in unrelated streams: check
	// all pairs drawn from a small neighborhood collide nowhere.
	seen := make(map[int64][2]int64)
	for base := int64(90); base <= 110; base++ {
		for trial := 0; trial < 50; trial++ {
			s := SeedFor(base, trial)
			if prev, dup := seen[s]; dup {
				t.Fatalf("SeedFor(%d,%d) == SeedFor(%d,%d) == %d: overlapping trial streams",
					base, trial, prev[0], prev[1], s)
			}
			seen[s] = [2]int64{base, int64(trial)}
		}
	}
}
