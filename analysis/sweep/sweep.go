// Package sweep fans independent simulation trials out over a pool of
// worker goroutines and merges their results deterministically.
//
// Every experiment in this reproduction — the Fig. 10 port-contention
// trials, the Fig. 11 / §6.2 AES extractions, the baseline trace
// collections — is an independent simulation: each trial constructs its
// own Rig/PhysMem/Core, so trials share no mutable state and are safe to
// run concurrently by construction. The runner exploits that: N trials
// are distributed over up to GOMAXPROCS workers, each worker sends a
// typed result over a channel, and the collector slots results by trial
// index. The output is therefore *byte-identical* to a serial run
// regardless of the worker count — parallelism changes wall-clock time,
// never results.
//
// Determinism contract: the trial function must derive all randomness
// from its trial index (e.g. rand.NewSource(SeedFor(seed, trial))) and
// must not touch state outside its own trial. Under that contract,
// Run(n, Options{Workers: w}, f) returns the same values for every w.
// Per-trial seeds must be *mixed*, not merely offset: with seed+trial,
// two sweeps whose base seeds differ by less than the trial count share
// most of their per-trial streams (sweep A's trial 1 is sweep B's
// trial 0), which silently correlates supposedly independent
// experiments. SeedFor finalizes base and trial through splitmix64 so
// adjacent bases and adjacent trials land in unrelated streams.
package sweep

import (
	"fmt"
	"runtime"
	"sync"
)

// Trial computes one independent trial of a sweep. It must be safe to
// call concurrently with other trial indices and must derive any
// randomness from the trial index alone (see the package determinism
// contract).
type Trial[T any] func(trial int) (T, error)

// Options configures a sweep.
type Options struct {
	// Workers is the number of concurrent worker goroutines. Values <= 0
	// select runtime.GOMAXPROCS(0). The worker count never affects
	// results, only wall-clock time.
	Workers int
}

// Workers normalizes a worker-count flag: values <= 0 become
// runtime.GOMAXPROCS(0).
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// SeedFor derives the per-trial seed from a sweep's base seed. Giving
// every trial its own seed (rather than sharing one *rand.Rand, which is
// not goroutine-safe) keeps parallel sweeps reproducible: trial i uses
// the same random stream whether it runs first, last, or concurrently.
//
// The derivation is a splitmix64-style finalizer over (base, trial)
// rather than base+trial: the naive offset made trial t of base b reuse
// the exact stream of trial t+1 of base b-1, so sweeps with nearby base
// seeds were mostly permutations of each other instead of independent
// experiments.
func SeedFor(base int64, trial int) int64 {
	x := uint64(base) + uint64(trial)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x)
}

// TrialError reports which trial of a sweep failed.
type TrialError struct {
	Trial int
	Err   error
}

// Error implements error.
func (e *TrialError) Error() string {
	return fmt.Sprintf("sweep: trial %d: %v", e.Trial, e.Err)
}

// Unwrap returns the underlying trial error.
func (e *TrialError) Unwrap() error { return e.Err }

// result is the typed message a worker sends back to the collector.
type result[T any] struct {
	index int
	value T
	err   error
}

// Run executes n independent trials of fn over a worker pool and returns
// the results ordered by trial index.
//
// All n trials run to completion even when some fail; if any trial
// returned an error, Run reports the error of the *lowest-numbered*
// failing trial (wrapped in a *TrialError) so the error, like the
// values, is independent of worker scheduling. The returned slice always
// has length n; entries whose trial failed hold the zero value of T.
func Run[T any](n int, opt Options, fn Trial[T]) ([]T, error) {
	out := make([]T, n)
	if n == 0 {
		return out, nil
	}
	workers := Workers(opt.Workers)
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	if workers == 1 {
		// Serial fast path: no goroutines, same semantics.
		for i := 0; i < n; i++ {
			out[i], errs[i] = fn(i)
		}
		return out, firstError(errs)
	}

	indices := make(chan int)
	results := make(chan result[T])
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indices {
				v, err := fn(i)
				results <- result[T]{index: i, value: v, err: err}
			}
		}()
	}
	go func() {
		for i := 0; i < n; i++ {
			indices <- i
		}
		close(indices)
		wg.Wait()
		close(results)
	}()
	// Collect: each result lands in its own slot, so the assembled slice
	// is already in trial order no matter which worker finished when.
	for r := range results {
		out[r.index] = r.value
		errs[r.index] = r.err
	}
	return out, firstError(errs)
}

// firstError returns the lowest-index error as a *TrialError.
func firstError(errs []error) error {
	for i, err := range errs {
		if err != nil {
			return &TrialError{Trial: i, Err: err}
		}
	}
	return nil
}
