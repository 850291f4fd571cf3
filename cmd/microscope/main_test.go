package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"microscope/attack/experiments"
	"microscope/attack/microscope"
	"microscope/attack/platform"
	"microscope/attack/victim"
	"microscope/sim/cpu"
	"microscope/sim/mem"
	"microscope/sim/trace"
)

// TestProjectionsEqualGoldenCells: `defenses` and `generalize` print
// slices of the golden tournament, not experiments of their own. Every
// cell and control row of both rosters must equal the committed golden
// row it projects, so the printout renders identically from either.
func TestProjectionsEqualGoldenCells(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "attack", "experiments", "testdata", "golden_tournament.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden experiments.TournamentMatrix
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	for _, roster := range []experiments.TournamentOptions{defensesRoster, generalizeRoster} {
		got, err := experiments.RunTournament(roster)
		if err != nil {
			t.Fatal(err)
		}
		if want := len(roster.Victims) * len(roster.Defenses) * len(experiments.TournamentHandles()); len(got.Cells) != want {
			t.Fatalf("%v x %v: %d cells, want %d", roster.Victims, roster.Defenses, len(got.Cells), want)
		}
		want := &experiments.TournamentMatrix{}
		for _, c := range got.Cells {
			g := golden.Cell(c.Victim, c.Handle, c.Defense)
			if g == nil {
				t.Fatalf("no golden cell %s/%s/%s", c.Victim, c.Handle, c.Defense)
			}
			want.Cells = append(want.Cells, *g)
		}
		for _, c := range got.Controls {
			g := golden.Control(c.Victim, c.Defense)
			if g == nil {
				t.Fatalf("no golden control %s/%s", c.Victim, c.Defense)
			}
			want.Controls = append(want.Controls, *g)
		}
		if !reflect.DeepEqual(got.Cells, want.Cells) || !reflect.DeepEqual(got.Controls, want.Controls) {
			t.Errorf("%v x %v diverges from the golden rows:\n%s\nwant:\n%s",
				roster.Victims, roster.Defenses, renderCells(got), renderCells(want))
		}
	}
}

// The CLI acceptance check: `microscope -trace out.json -metrics
// timeline` must emit a schema-valid Chrome Trace Event JSON of a full
// replay attack, byte-identically across runs.
func TestTimelineTraceFlagEmitsValidChrome(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out.json")
	timeline := func(traceFile string) {
		t.Helper()
		var stdout, errw bytes.Buffer
		if code := run([]string{"-trace", traceFile, "-metrics", "timeline"}, &stdout, &errw); code != 0 {
			t.Fatalf("exit code %d: %s", code, errw.String())
		}
	}

	timeline(out)
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidateChrome(data); err != nil {
		t.Fatalf("-trace output fails Chrome trace schema validation: %v", err)
	}
	// The annotated replay track must make it into the export.
	if !bytes.Contains(data, []byte("replayer: timeline")) {
		t.Error("-trace output is missing the module's replayer annotation track")
	}

	// Determinism: a second run writes identical bytes.
	out2 := filepath.Join(dir, "out2.json")
	timeline(out2)
	data2, err := os.ReadFile(out2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Error("-trace output differs between identical runs")
	}
}

// checkUsageError runs argv and checks that it is a usage error,
// rejected before anything runs: exit code 2, nothing on stdout, and
// one stderr line naming each of want.
func checkUsageError(t *testing.T, argv []string, want ...string) {
	t.Helper()
	var out, errw bytes.Buffer
	code := run(argv, &out, &errw)
	msg := errw.String()
	ok := code == 2 && out.Len() == 0 && strings.Count(msg, "\n") == 1
	for _, w := range want {
		ok = ok && strings.Contains(msg, w)
	}
	if !ok {
		t.Errorf("%q: exit code %d, stdout %q, stderr %q; want 2, no stdout and one stderr line naming %q",
			argv, code, out.String(), msg, want)
	}
}

// TestCheckFlags: a global flag the subcommand does not read is a usage
// error naming the flag and the subcommand, and so is -reverse-to
// without the checkpoints it restores from. -cpuprofile and
// -memprofile apply to every subcommand.
func TestCheckFlags(t *testing.T) {
	img := filepath.Join(t.TempDir(), "final.gob")
	writeTimelineImage(t, img)
	for _, c := range []struct {
		argv []string
		want []string // what the error names; nil if argv is accepted
	}{
		{[]string{"-cpuprofile", "cpu.out", "table1"}, nil},
		{[]string{"-cpuprofile", "cpu.out", "aes"}, nil},
		{[]string{"-memprofile", "mem.out", "walk"}, nil},
		{[]string{"-memprofile", "mem.out", "fig10"}, nil},
		{[]string{"-workers", "4", "fig10"}, nil},
		{[]string{"-workers", "4", "walk"}, []string{"-workers", "walk"}},
		{[]string{"-stats", "walk"}, nil},
		{[]string{"-stats", "defenses"}, []string{"-stats", "defenses"}},
		{[]string{"-trace", "out.json", "execpath"}, nil},
		{[]string{"-trace", "out.json", "walk"}, []string{"-trace", "walk"}},
		{[]string{"-metrics", "table2"}, nil},
		{[]string{"-trace", "out.json", "-metrics", "walk"}, []string{"-metrics", "walk"}},
		{[]string{"-sanitize", "timeline"}, nil},
		{[]string{"-sanitize", "walk"}, []string{"-sanitize", "walk"}},
		{[]string{"-json", "tournament"}, nil},
		{[]string{"-json", "table1"}, []string{"-json", "table1"}},
		{[]string{"-checkpoint-every", "1000", "timeline"}, nil},
		{[]string{"-checkpoint-every", "1000", "table2"}, []string{"-checkpoint-every", "table2"}},
		{[]string{"-checkpoint-every", "1000", "-reverse-to", "5000", "timeline"}, nil},
		{[]string{"-reverse-to", "5000", "timeline"}, []string{"-reverse-to"}},
		{[]string{"-reverse-to", "5000", "denoise"}, []string{"-reverse-to", "denoise"}},
		{[]string{"-checkpoint-out", "final.snap", "timeline"}, nil},
		{[]string{"-checkpoint-out", "final.snap", "aes"}, []string{"-checkpoint-out", "aes"}},
		{[]string{"-trace", "out.json", "-metrics", "pipeview"}, nil},
		{[]string{"-cpuprofile", "cpu.out", "pipeview"}, nil},
		{[]string{"-sanitize", "pipeview"}, []string{"-sanitize", "pipeview"}},
		{[]string{"-stats", "pipeview"}, []string{"-stats", "pipeview"}},
		{[]string{"-memprofile", "mem.out", "lab", "-script", "victim.s"}, nil},
		{[]string{"-trace", "out.json", "lab", "-script", "victim.s"}, []string{"-trace", "lab"}},
		{[]string{"-metrics", "lab", "-script", "victim.s"}, []string{"-metrics", "lab"}},
		{[]string{"-sanitize", "lab", "-script", "victim.s"}, []string{"-sanitize", "lab"}},
		{[]string{"-stats", "lab", "-script", "victim.s"}, []string{"-stats", "lab"}},
		{[]string{"-cpuprofile", "cpu.out", "snapdiff", img, img}, nil},
		{[]string{"-trace", "out.json", "snapdiff", img, img}, []string{"-trace", "snapdiff"}},
		{[]string{"-metrics", "snapdiff", img, img}, []string{"-metrics", "snapdiff"}},
		{[]string{"-sanitize", "snapdiff", img, img}, []string{"-sanitize", "snapdiff"}},
		{[]string{"-stats", "snapdiff", img, img}, []string{"-stats", "snapdiff"}},
	} {
		if c.want != nil {
			checkUsageError(t, c.argv, c.want...)
		} else if _, err := parse(c.argv, io.Discard); err != nil {
			t.Errorf("%q rejected: %v", c.argv, err)
		}
	}
}

// TestStrayArguments: a subcommand without flags of its own rejects any
// argument after its name, naming the first.
func TestStrayArguments(t *testing.T) {
	for name := range commands {
		checkUsageError(t, []string{name, "-bogus", "extra"}, name, `"-bogus"`)
	}
}

// subArgs parses the global flags of argv, as parse does, and returns
// the arguments after the subcommand's name.
func subArgs(t *testing.T, argv ...string) []string {
	t.Helper()
	fs := globalFlags(io.Discard)
	if err := fs.Parse(argv); err != nil {
		t.Fatal(err)
	}
	return fs.Args()[1:]
}

// The flag handling of fig10 and aes is exercised without mounting the
// attacks: parsing returns the options, and nothing runs.
func TestParseArgsDefaults(t *testing.T) {
	fig10, err := parseFig10(subArgs(t, "fig10"), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if fig10.cfg != experiments.DefaultFig10Config() || !fig10.hist || fig10.trials != 1 {
		t.Errorf("fig10 defaults = %+v", fig10)
	}
	aes, err := parseAES(subArgs(t, "aes"), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if string(aes.cfg.Key) != "0123456789abcdef" || string(aes.cfg.Plaintext) != "attack at dawn!!" ||
		!aes.full || aes.keysweep != 0 || workers != 0 {
		t.Errorf("aes defaults = %+v", aes)
	}
}

// The global -workers goes before the subcommand, the subcommand's own
// flags after it.
func TestParseArgsOverrides(t *testing.T) {
	fig10, err := parseFig10(subArgs(t, "-workers", "4", "fig10", "-samples", "800", "-cont", "3",
		"-handler", "2000", "-walk", "2", "-hist=false", "-trials", "5"), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	want := experiments.DefaultFig10Config()
	want.Samples, want.Cont, want.HandlerLatency, want.WalkLevels, want.Workers = 800, 3, 2000, 2, 4
	if fig10.cfg != want || fig10.hist || fig10.trials != 5 {
		t.Errorf("fig10 parsed = %+v", fig10)
	}
	aes, err := parseAES(subArgs(t, "-workers", "4", "aes", "-key", "fedcba9876543210",
		"-pt", "sixteen byte msg", "-full=false", "-keysweep", "8"), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if string(aes.cfg.Key) != "fedcba9876543210" || string(aes.cfg.Plaintext) != "sixteen byte msg" ||
		aes.full || aes.keysweep != 8 || workers != 4 {
		t.Errorf("aes parsed = %+v", aes)
	}
}

func TestParseArgsRejectsBadInput(t *testing.T) {
	// Malformed flags, which the flag package reports with the usage.
	for _, argv := range [][]string{
		{"aes", "-nosuchflag"},
		{"aes", "-keysweep", "notanumber"},
	} {
		if _, err := parse(argv, io.Discard); err == nil {
			t.Errorf("%q accepted", argv)
		}
	}
	// Well-formed values the attacks cannot run with, and stray
	// arguments: one line naming the flag or the argument.
	for _, argv := range [][]string{
		{"aes", "-keysweep", "-3"},
		{"aes", "-key", "short"},
		{"aes", "-pt", "short"},
		{"aes", "positional"},
		{"fig10", "-samples", "0"},
		{"fig10", "-cont", "-1"},
		{"fig10", "-trials", "0"},
		{"fig10", "-trials", "-2"},
		{"fig10", "-walk", "0"},
		{"fig10", "-walk", "5"},
		{"fig10", "-handler", "0"},
		{"fig10", "positional"},
		{"pipeview", "positional"},
		{"lab", "positional"},
		{"snapdiff", "one.gob"},
	} {
		checkUsageError(t, argv, argv[:2]...)
	}
	checkUsageError(t, []string{"lab"}, "lab", "-script")
	// lab checks its numeric flags before it reads the script, which
	// here does not exist.
	for _, f := range [][2]string{
		{"-walk", "0"}, {"-walk", "5"}, {"-lines", "0"}, {"-replays", "0"}, {"-replays", "-1"},
	} {
		checkUsageError(t, []string{"lab", "-script", "no-such-script.s", f[0], f[1]}, "lab", f[0])
	}
}

// Bad flags must exit with a usage error (2) without running the attack.
func TestRunBadFlagsExits2(t *testing.T) {
	for _, argv := range [][]string{
		{"aes", "-bogus"},
		{"fig10", "-bogus"},
		{"-bogus", "table1"},
	} {
		var out, errw bytes.Buffer
		if code := run(argv, &out, &errw); code != 2 {
			t.Errorf("%q: exit code = %d, want 2", argv, code)
		}
		if !strings.Contains(errw.String(), "-bogus") {
			t.Errorf("%q: stderr does not name the bad flag: %q", argv, errw.String())
		}
		if out.Len() != 0 {
			t.Errorf("%q: output produced despite flag error: %q", argv, out.String())
		}
	}
}

// Smoke: the Fig. 11 path runs end to end through the CLI entry point.
func TestRunFig11Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full Fig. 11 simulation")
	}
	var out, errw bytes.Buffer
	if code := run([]string{"aes", "-full=false"}, &out, &errw); code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "primed replays consistent and correct: true") {
		t.Errorf("fig11 output missing consistency line:\n%s", out.String())
	}
}

// TestGoldenOutputs: for the same flags, `fig10`, `aes`, `pipeview`
// and `lab` print byte for byte what the standalone portsmash,
// aesattack, pipeview and asmlab commands they replaced printed.
// testdata holds those commands' stdout. On the example script every
// replay window shows the secret (3) as the one hot probe line, and the
// victim finishes after its three faults. The metrics_*.golden files pin
// the `-metrics` block of the four single-core subcommands that print it.
func TestGoldenOutputs(t *testing.T) {
	for _, c := range []struct {
		golden string
		argv   []string
	}{
		{"fig10.golden", []string{"fig10"}},
		{"fig10_trials3_samples1000.golden", []string{"fig10", "-trials", "3", "-samples", "1000"}},
		{"aes.golden", []string{"aes"}},
		{"aes_nofull_keysweep8.golden", []string{"aes", "-full=false", "-keysweep", "8"}},
		{"pipeview.golden", []string{"pipeview"}},
		{"pipeview_replays2_nosecret.golden", []string{"pipeview", "-replays", "2", "-secret=false"}},
		{"lab_probe_replays3.golden", []string{"lab", "-script", exampleScript, "-probe", "probe", "-replays", "3"}},
		{"lab_probe_replays3_lines6.golden", []string{"lab", "-script", exampleScript, "-probe", "probe", "-replays", "3", "-lines", "6"}},
		{"lab_disasm.golden", []string{"lab", "-script", exampleScript, "-disasm"}},
		{"metrics_table2.golden", []string{"-metrics", "table2"}},
		{"metrics_timeline.golden", []string{"-metrics", "timeline"}},
		{"metrics_execpath.golden", []string{"-metrics", "execpath"}},
		{"metrics_pipeview.golden", []string{"-metrics", "pipeview"}},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", c.golden))
		if err != nil {
			t.Fatal(err)
		}
		var out, errw bytes.Buffer
		if code := run(c.argv, &out, &errw); code != 0 {
			t.Fatalf("%q: exit code = %d, stderr: %s", c.argv, code, errw.String())
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("%q: stdout differs from testdata/%s:\n%s", c.argv, c.golden, out.String())
		}
		if errw.Len() != 0 {
			t.Errorf("%q: unexpected stderr %q", c.argv, errw.String())
		}
	}
}

// TestGoldenChrome: the Chrome trace `pipeview` writes under -trace,
// and the one `timeline` writes with the sanitizer's track, hash to the
// sha256 in testdata/golden_chrome.json, which the standalone pipeview
// and microscope commands wrote.
func TestGoldenChrome(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "golden_chrome.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]string
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for name, argv := range map[string][]string{
		"pipeview -replays 2": {"pipeview", "-replays", "2"},
		"timeline -sanitize":  {"-sanitize", "timeline"},
	} {
		path := filepath.Join(dir, "trace.json")
		var out, errw bytes.Buffer
		if code := run(append([]string{"-trace", path}, argv...), &out, &errw); code != 0 {
			t.Fatalf("%s: exit code = %d, stderr: %s", name, code, errw.String())
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != golden[name] {
			t.Errorf("%s: Chrome trace sha256 %s, want %s", name, got, golden[name])
		}
	}
}

// brokenTimelineRig starts the control-flow victim under a replay
// recipe whose release fails: the handle's leaf PTE is zeroed after the
// recipe arms, so the fourth fault's release halts the victim.
func brokenTimelineRig(t *testing.T) *platform.Rig {
	t.Helper()
	rig, err := platform.New(cpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	l := victim.ControlFlowSecret(true)
	if err := rig.InstallVictim(l); err != nil {
		t.Fatal(err)
	}
	rec := &microscope.Recipe{Name: "timeline", Victim: rig.Victim, Handle: l.Sym("handle"), MaxReplays: 4}
	if err := rig.Module.Install(rec); err != nil {
		t.Fatal(err)
	}
	steps, err := rig.Module.SoftWalk(rig.Victim, rec.Handle)
	if err != nil {
		t.Fatal(err)
	}
	rig.Phys.Write64(steps[mem.PTE].EntryAddr, 0)
	l.Start(rig.Kernel, 0)
	return rig
}

// A fault-handler failure halts the victim, so a -checkpoint-every run
// stops early too; like the unchunked run (-checkpoint-every 0, which is
// Rig.Run), it must return the module's failure instead of printing a
// half-finished timeline as a success.
func TestCheckpointedRunReturnsModuleFailure(t *testing.T) {
	t.Cleanup(func() { checkpointEvery = 0 })
	for _, every := range []uint64{0, 5000} {
		rig := brokenTimelineRig(t)
		checkpointEvery = every
		_, err := runCheckpointed(io.Discard, rig, 1_000_000)
		if err == nil || !strings.Contains(err.Error(), "microscope: release failed") {
			t.Errorf("-checkpoint-every %d: runCheckpointed = %v, want the module's release failure", every, err)
		}
	}
}

// -reverse-to re-runs a fixed number of cycles from a checkpoint:
// stopping short of the halt is its job, but a re-run whose fault
// handler fails returns the module's failure instead of printing the
// halted victim's state.
func TestReverseStepReturnsModuleFailure(t *testing.T) {
	rig := brokenTimelineRig(t)
	cp, err := rig.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	from := rig.Core.Cycle()
	cps := []cycleCheckpoint{{Cycle: from, CP: cp}}
	if err := reverseStep(io.Discard, rig, cps, from+100); err != nil {
		t.Fatalf("reverse-step 100 cycles short of the failure: %v", err)
	}
	if rig.Core.Halted() || rig.Core.Cycle() != from+100 {
		t.Fatalf("reverse-step stopped at cycle %d (halted=%t), want %d", rig.Core.Cycle(), rig.Core.Halted(), from+100)
	}
	err = reverseStep(io.Discard, rig, cps, from+1_000_000)
	if err == nil || !strings.Contains(err.Error(), "microscope: release failed") {
		t.Errorf("reverseStep = %v, want the module's release failure", err)
	}
}
