package experiments

import (
	"bytes"
	"strings"
	"testing"

	"microscope/attack/microscope"
	"microscope/attack/monitor"
	"microscope/attack/platform"
	"microscope/attack/victim"
	"microscope/sim/cpu"
	"microscope/sim/trace"
)

// runFFObserved mounts the scenario like runFFScenario but with the full
// observer stack tee'd onto the core: collector, metrics and hasher all
// see the same stream.
func runFFObserved(t *testing.T, sc ffScenario) (ffDigest, *trace.Collector, *trace.Metrics, *microscope.Module) {
	t.Helper()
	cfg := cpu.DefaultConfig()
	cfg.JitterPeriod = 901
	cfg.JitterExtra = 150

	rig, err := platform.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vic := sc.layout(t)
	if err := rig.InstallVictim(vic); err != nil {
		t.Fatal(err)
	}
	var mon *victim.Layout
	if sc.monitor {
		mon = monitor.PortContention(64, 2)
		if err := rig.AddMonitor(mon); err != nil {
			t.Fatal(err)
		}
	}

	rec := &microscope.Recipe{
		Name:           "observed-" + sc.name,
		Victim:         rig.Victim,
		Handle:         vic.Sym(sc.handle),
		HandlerLatency: 20_000,
		MaxReplays:     8,
	}
	if sc.monitor {
		rec.OnReplay = func(microscope.Event) microscope.Decision {
			if rig.Core.Context(1).Halted() {
				return microscope.Release
			}
			return microscope.Replay
		}
	}
	if err := rig.Module.Install(rec); err != nil {
		t.Fatal(err)
	}

	h := trace.NewHasher()
	col := trace.NewCollector(0)
	met := trace.NewMetrics()
	met.ROBSize = cfg.ROBSize
	rig.Core.SetTracer(trace.Tee(h, col, met))

	vic.Start(rig.Kernel, 0)
	if mon != nil {
		mon.Start(rig.Kernel, 1)
	}
	if err := rig.Run(5_000_000); err != nil {
		t.Fatal(err)
	}
	d := ffDigest{
		traceHash: h.Sum64(),
		events:    int(h.Events()),
		cycles:    rig.Core.Cycle(),
		replays:   rec.Replays(),
	}
	return d, col, met, rig.Module
}

// End-to-end schema check of the observability layer over a full replay
// attack: collector + metrics + hasher tee'd onto one core, the module
// timeline layered in as annotations, and the Chrome export validated
// against the trace_event schema.
func runObserved(t *testing.T) (chrome []byte, metricsText string, metricsJSON []byte, hash uint64) {
	t.Helper()
	sc := ffScenarios()[0] // controlflow-mul, with an SMT monitor

	// Rebuild runFFScenario's rig but with the full observer stack.
	d, col, met, mod := runFFObserved(t, sc)
	anns := mod.TraceAnnotations()
	if len(anns) == 0 {
		t.Fatal("module produced no trace annotations")
	}
	var sawReplay bool
	for _, a := range anns {
		if strings.HasPrefix(a.Name, "replay ") && a.End > a.Start {
			sawReplay = true
		}
	}
	if !sawReplay {
		t.Error("no replay iteration rendered as a duration slice")
	}

	data, err := trace.ChromeJSON(col, anns)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidateChrome(data); err != nil {
		t.Fatalf("chrome export fails schema validation: %v", err)
	}
	js, err := met.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data, met.Text(), js, d.traceHash
}

func TestObservabilityEndToEnd(t *testing.T) {
	chrome1, text1, json1, hash1 := runObserved(t)
	chrome2, text2, json2, hash2 := runObserved(t)

	// Byte-determinism across runs: trace, text and JSON renderings.
	if !bytes.Equal(chrome1, chrome2) {
		t.Error("chrome export differs between identical runs")
	}
	if text1 != text2 {
		t.Errorf("metrics text differs between identical runs:\n%s\nvs\n%s", text1, text2)
	}
	if !bytes.Equal(json1, json2) {
		t.Error("metrics JSON differs between identical runs")
	}
	if hash1 != hash2 {
		t.Errorf("trace hash differs between identical runs: %#x vs %#x", hash1, hash2)
	}

	// The text rendering must cover every metrics section.
	for _, want := range []string{"cycles", "retired", "squashes", "port issues",
		"rob utilization", "page walks"} {
		if !strings.Contains(text1, want) {
			t.Errorf("metrics text missing %q section:\n%s", want, text1)
		}
	}
	// A replay attack faults repeatedly: both the pipeline tracks and the
	// fault markers must be present in the export.
	if !bytes.Contains(chrome1, []byte(`"ph": "i"`)) {
		t.Error("chrome export has no instant events (faults/squashes)")
	}
	if !bytes.Contains(chrome1, []byte("replayer: ")) {
		t.Error("chrome export has no replayer annotation track")
	}
}
