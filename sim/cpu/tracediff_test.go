package cpu_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"microscope/sim/cpu"
	"microscope/sim/cpu/cputest"
	"microscope/sim/isa"
	"microscope/sim/trace"
)

// The trace-hash arm of the differential fuzzer: beyond architectural
// state (differential_test.go), fast-forward on and off must emit the
// exact same pipeline event stream — every fetch, issue, completion,
// retirement and squash at the same cycle with the same operands. The
// trace.Hasher folds the stream into one digest per run; a single
// mismatched event anywhere in millions diverges the sum. This file
// lives in package cpu_test because sim/trace imports sim/cpu.

type diffRun struct {
	hash     uint64
	events   uint64
	cycles   uint64
	skipped  uint64
	memOrder uint64
	regs     [isa.NumRegs]uint64
}

func runTraced(t *testing.T, prog *isa.Program, seed int64, fastForward bool) diffRun {
	t.Helper()
	as, err := cputest.NewDataSpace(seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cpu.DefaultConfig()
	cfg.FastForward = fastForward
	core := cpu.NewCore(cfg, as.Phys())
	core.Context(0).SetAddressSpace(as)
	core.Context(0).SetProgram(prog, 0)
	h := trace.NewHasher()
	core.SetTracer(h)
	core.Run(20_000_000)
	if !core.Context(0).Halted() {
		t.Fatalf("seed %d fastForward=%v: core did not halt", seed, fastForward)
	}
	d := diffRun{
		hash:     h.Sum64(),
		events:   h.Events(),
		cycles:   core.Cycle(),
		skipped:  core.SkippedCycles(),
		memOrder: core.Context(0).Stats().MemOrderViolations,
	}
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		d.regs[r] = core.Context(0).Reg(r)
	}
	return d
}

// genProgram is one generated program of the trace suites: the
// generator's seed and the program it emits.
type genProgram struct {
	name string
	seed int64
	prog *isa.Program
}

// genPrograms returns the suites' fixed program set: structured programs
// (branches, loops, transactions) and aliasing-heavy ones (dense
// squash/replay traffic, slow divides the fast-forward engine loves to
// skip over).
func genPrograms() []genProgram {
	var ps []genProgram
	for seed := int64(0); seed < 40; seed++ {
		ps = append(ps, genProgram{fmt.Sprintf("gen/%d", seed), seed,
			cputest.GenProgram(rand.New(rand.NewSource(seed)))})
	}
	for seed := int64(1000); seed < 1030; seed++ {
		ps = append(ps, genProgram{fmt.Sprintf("alias/%d", seed), seed,
			cputest.GenAliasProgram(rand.New(rand.NewSource(seed)))})
	}
	return ps
}

func TestDifferentialTraceHashFastForward(t *testing.T) {
	var totalSkipped uint64
	for _, p := range genPrograms() {
		on := runTraced(t, p.prog, p.seed, true)
		off := runTraced(t, p.prog, p.seed, false)
		totalSkipped += on.skipped
		if off.skipped != 0 {
			t.Errorf("%s: skip-off run skipped %d cycles", p.name, off.skipped)
		}
		if on.hash != off.hash || on.events != off.events {
			t.Errorf("%s: trace diverges: %d events hash %#x (on) vs %d events hash %#x (off)\n%s",
				p.name, on.events, on.hash, off.events, off.hash, isa.Disassemble(p.prog))
		}
		if on.cycles != off.cycles {
			t.Errorf("%s: final cycle diverges: %d vs %d", p.name, on.cycles, off.cycles)
		}
		if on.regs != off.regs {
			t.Errorf("%s: architectural registers diverge", p.name)
		}
	}
	if totalSkipped == 0 {
		t.Error("no run ever fast-forwarded: the differential is vacuous")
	}
}

// The generated-program golden: the differential above compares skip-on
// with skip-off inside one build, so a change that shifts a forwarding
// or memory-order squash cycle on both sides alike passes it. The
// builtin victims' goldens cannot catch that either: they cause no
// memory-order violations. Each generated program's digest is pinned
// here across builds. Regenerate after an intentional timing change
// with:
//
//	go test ./sim/cpu -run TestGoldenGeneratedTraces -update
//
// and review the testdata diff.

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_gen.json")

const goldenGenPath = "testdata/golden_gen.json"

// genDigest is the committed fingerprint of one generated program's run.
type genDigest struct {
	TraceHash          string `json:"traceHash"` // %#016x of the FNV-1a sum
	Events             uint64 `json:"events"`
	Cycles             uint64 `json:"cycles"`
	MemOrderViolations uint64 `json:"memOrderViolations"`
}

func TestGoldenGeneratedTraces(t *testing.T) {
	got := map[string]genDigest{}
	var violations uint64
	for _, p := range genPrograms() {
		d := runTraced(t, p.prog, p.seed, true)
		got[p.name] = genDigest{
			TraceHash:          fmt.Sprintf("%#016x", d.hash),
			Events:             d.events,
			Cycles:             d.cycles,
			MemOrderViolations: d.memOrder,
		}
		violations += d.memOrder
	}
	if violations == 0 {
		t.Error("no generated program caused a memory-order violation: the golden pins no disambiguation timing")
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenGenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenGenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d programs (%d memory-order violations)", goldenGenPath, len(got), violations)
		return
	}

	data, err := os.ReadFile(goldenGenPath)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create it): %v", err)
	}
	var want map[string]genDigest
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parsing %s: %v", goldenGenPath, err)
	}
	for name, g := range got {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no golden digest committed (run with -update)", name)
			continue
		}
		if g != w {
			t.Errorf("%s: run diverged from golden:\n got %+v\nwant %+v\n"+
				"if this change is intentional, regenerate with -update and review the diff",
				name, g, w)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: golden digest exists but the program is gone", name)
		}
	}
}
