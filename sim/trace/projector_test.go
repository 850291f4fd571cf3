package trace_test

import (
	"math/rand"
	"testing"

	"microscope/attack/experiments"
	"microscope/attack/microscope"
	"microscope/attack/platform"
	"microscope/sim/cpu"
	"microscope/sim/trace"
	"microscope/sim/trace/tracetest"
)

// replayAttack runs one builtin victim's replay attack as the verifier
// arms it (the module on the target's handle, the verifier's replay
// budget and handler latency) with tr attached.
func replayAttack(tb testing.TB, name string, tr cpu.Tracer) {
	tb.Helper()
	tgt, err := experiments.FindSanTarget(name)
	if err != nil {
		tb.Fatal(err)
	}
	lay, err := tgt.Build()
	if err != nil {
		tb.Fatal(err)
	}
	rig, err := platform.New(cpu.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	if err := rig.InstallVictim(lay); err != nil {
		tb.Fatal(err)
	}
	cfg := experiments.DefaultSpecSanConfig()
	if err := rig.Module.Install(&microscope.Recipe{
		Name:           "replay-" + lay.Name,
		Victim:         rig.Victim,
		Handle:         lay.Sym(tgt.Handle),
		HandlerLatency: cfg.HandlerLatency,
		MaxReplays:     cfg.Replays,
	}); err != nil {
		tb.Fatal(err)
	}
	rig.Core.SetTracer(tr)
	lay.Start(rig.Kernel, 0)
	if err := rig.Run(cfg.MaxCycles); err != nil {
		tb.Fatal(err)
	}
}

// replayStream records the event stream of one builtin's replay attack.
func replayStream(tb testing.TB, name string) []cpu.Event {
	var evs []cpu.Event
	replayAttack(tb, name, tracetest.Record(&evs))
	return evs
}

// The Projector must equal the reference model, the whole stream
// recorded and folded afterwards, on every builtin victim's replay
// attack and on the generated cputest programs. One Projector serves
// every run, so Reset is exercised too.
func TestProjectorMatchesReference(t *testing.T) {
	var p trace.Projector
	check := func(name string, run func(cpu.Tracer)) trace.Projections {
		t.Helper()
		var evs []cpu.Event
		p.Reset()
		run(cpu.TracerFunc(func(ev cpu.Event) {
			p.Trace(ev)
			evs = append(evs, ev)
		}))
		got, want := p.Projections(), tracetest.Project(evs)
		if got != want {
			t.Errorf("%s: Projector %+v, reference %+v", name, got, want)
		}
		return got
	}
	var cacheN, portN, latencyN int
	for _, tgt := range experiments.SanTargets() {
		name := tgt.Name
		q := check(name, func(tr cpu.Tracer) { replayAttack(t, name, tr) })
		if q.Transient == 0 {
			t.Errorf("%s: replay attack left no transient instructions", name)
		}
		cacheN, portN, latencyN = cacheN+q.CacheN, portN+q.PortN, latencyN+q.LatencyN
	}
	if cacheN == 0 || portN == 0 || latencyN == 0 {
		t.Errorf("builtin replay attacks fold %d cache, %d port and %d latency elements; the differential is vacuous on an empty channel",
			cacheN, portN, latencyN)
	}
	for seed := int64(1); seed <= 24; seed++ {
		for _, alias := range []bool{false, true} {
			seed, alias := seed, alias
			check("cputest program", func(tr cpu.Tracer) { runCore(t, seed, alias, tr) })
		}
	}
}

// The Projector's semantics are defined on any stream, not only on
// pipeline-ordered ones: shuffled and thinned copies of real streams,
// with instructions moved to other contexts (some outside [0, 64)) and
// to seqs far outside a run's window, must still project as the
// reference does.
func TestProjectorMatchesReferenceOnShuffledStreams(t *testing.T) {
	var p trace.Projector
	rng := rand.New(rand.NewSource(7))
	for _, name := range []string{"controlflow", "singlesecret", "rdrand"} {
		evs := replayStream(t, name)
		for trial := 0; trial < 20; trial++ {
			mut := append([]cpu.Event(nil), evs...)
			rng.Shuffle(len(mut), func(i, j int) { mut[i], mut[j] = mut[j], mut[i] })
			mut = mut[:len(mut)/2+rng.Intn(len(mut)/2)]
			for i := range mut {
				switch rng.Intn(16) {
				case 0, 1:
					mut[i].Context ^= 1
				case 2:
					mut[i].Context = []int{-1, 64, 65}[rng.Intn(3)]
				case 3:
					mut[i].Seq += 1 << 21
				}
			}
			p.Reset()
			for _, ev := range mut {
				p.Trace(ev)
			}
			if got, want := p.Projections(), tracetest.Project(mut); got != want {
				t.Fatalf("%s trial %d: Projector %+v, reference %+v", name, trial, got, want)
			}
		}
	}
}

// Once its buffers have grown to a run's size, the Projector allocates
// nothing: not per event, and not to compute the projections.
func TestProjectorSteadyStateZeroAlloc(t *testing.T) {
	evs := replayStream(t, "aes")
	var p trace.Projector
	run := func() {
		p.Reset()
		for _, ev := range evs {
			p.Trace(ev)
		}
		p.Projections()
	}
	run()
	if n := testing.AllocsPerRun(10, run); n != 0 {
		t.Errorf("a second run allocates %v times", n)
	}
}

// BenchmarkHasher and BenchmarkProjector fold one recorded verifier run
// (the controlflow victim's replay attack) per op and report the cost
// per event; the Projector's includes computing the projections.
func BenchmarkHasher(b *testing.B) {
	evs := replayStream(b, "controlflow")
	h := trace.NewHasher()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Reset()
		for _, ev := range evs {
			h.Trace(ev)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(evs)), "ns/event")
}

func BenchmarkProjector(b *testing.B) {
	evs := replayStream(b, "controlflow")
	var p trace.Projector
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Reset()
		for _, ev := range evs {
			p.Trace(ev)
		}
		p.Projections()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(evs)), "ns/event")
}
