package verify

import (
	"math/rand"
	"testing"

	"microscope/sim/cpu"
	"microscope/sim/trace"
	"microscope/sim/trace/tracetest"
)

// freshRun is the reference run: a freshly booted platform with the
// assignment applied, the whole event stream recorded, and the reference
// model folding it afterwards.
func freshRun(r *runner, asg Assignment) (trace.Projections, error) {
	rig, lay, err := asg.Boot(r.sub.Layout)
	if err != nil {
		return trace.Projections{}, err
	}
	var evs []cpu.Event
	rig.Core.SetTracer(tracetest.Record(&evs))
	if err := r.replay(rig, lay, asg); err != nil {
		return trace.Projections{}, err
	}
	return tracetest.Project(evs), nil
}

// Every run the verifier forks from its checkpoint must project exactly
// as the fresh-boot run does. Per builtin: the baseline, the witness
// pairs the search may try, and 8 differential trials, all through one
// runner, so each run follows another with a different assignment and
// RDRAND seed.
func TestForkedRunsMatchFreshBoot(t *testing.T) {
	for _, c := range crossCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			sub := subjectFor(t, c)
			cfg := DefaultConfig()
			ex, err := explore(sub, cfg)
			if err != nil {
				t.Fatal(err)
			}
			r := newRunner(sub, cfg, ex)

			asgs := []Assignment{{}}
			budget := cfg.MaxWitnessPairs
		sites:
			for _, site := range ex.siteList() {
				for _, p := range witnessPairs() {
					if budget == 0 {
						break sites
					}
					a, b, ok := assignmentsFor(site.Atoms, p)
					if !ok {
						break
					}
					budget--
					asgs = append(asgs, a, b)
				}
			}
			rng := rand.New(rand.NewSource(cfg.Seed))
			for i := 0; i < 8; i++ {
				asgs = append(asgs, r.randomAssignment(rng))
			}

			for _, asg := range asgs {
				got, err := r.runOne(asg)
				if err != nil {
					t.Fatalf("forked run %s: %v", asg.key(), err)
				}
				want, err := freshRun(r, asg)
				if err != nil {
					t.Fatalf("fresh run %s: %v", asg.key(), err)
				}
				if got != want {
					t.Errorf("assignment %q: forked %+v, fresh boot %+v", asg.key(), got, want)
				}
			}
		})
	}
}

// BenchmarkVerify runs the whole verifier over each builtin victim.
func BenchmarkVerify(b *testing.B) {
	for _, c := range crossCases() {
		c := c
		b.Run(c.name, func(b *testing.B) {
			sub := subjectFor(b, c)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Verify(sub, DefaultConfig()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
