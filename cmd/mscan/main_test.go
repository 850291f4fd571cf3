package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"microscope/analysis/static"
	"microscope/analysis/verify"
	"microscope/attack/experiments"
	"microscope/sim/sanitizer"
)

// The verify-gate: every builtin victim's verdict under the default
// verifier configuration is pinned in testdata/golden_verdicts.json.
// A verdict flip (a victim silently becoming UNKNOWN, or the
// constant-time control going LEAKY) fails CI; intentional changes are
// regenerated with:
//
//	go test ./cmd/mscan -run TestGoldenVerdicts -update

var updateGolden = flag.Bool("update", false, "rewrite the golden files of the tests that run")

const goldenPath = "testdata/golden_verdicts.json"

func TestGoldenVerdicts(t *testing.T) {
	got := make(map[string]string)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, tgt := range experiments.SanTargets() {
		name, sub := tgt.Name, subjectOf(t, tgt)
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := verify.Verify(sub, verify.DefaultConfig())
			if err != nil {
				t.Errorf("%s: %v", name, err)
				return
			}
			mu.Lock()
			got[name] = res.Verdict.String()
			mu.Unlock()
		}()
	}
	wg.Wait()

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		enc, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(enc, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}

	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden verdicts (run with -update to create them): %v", err)
	}
	want := make(map[string]string)
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	var names []string
	for n := range got {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		w, ok := want[n]
		if !ok {
			t.Errorf("%s: no golden verdict committed (run with -update)", n)
			continue
		}
		if got[n] != w {
			t.Errorf("%s: verdict %s, golden says %s\n"+
				"if this change is intentional, regenerate with -update and review the diff", n, got[n], w)
		}
	}
	for n := range want {
		if _, ok := got[n]; !ok {
			t.Errorf("golden file names unknown victim %q (stale entry; run with -update)", n)
		}
	}
}

// The golden file must contain at least one victim of each definite
// verdict, or the gate proves nothing.
func TestGoldenVerdictsCoverBothClasses(t *testing.T) {
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	for _, v := range want {
		counts[v]++
	}
	if counts["LEAKY"] == 0 || counts["PROVEN-SAFE"] == 0 {
		t.Fatalf("golden verdicts must include both LEAKY and PROVEN-SAFE victims: %v", want)
	}
	if counts["UNKNOWN"] != 0 {
		t.Fatalf("a builtin victim regressed to UNKNOWN: %v", want)
	}
}

// Exit codes are part of the CLI contract (see the package comment):
// 0 clean/PROVEN-SAFE, 1 findings/LEAKY, 2 UNKNOWN, 3 usage errors —
// the latter two only distinguished under -fail / -prove.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name    string
		opts    options
		code    int
		wantErr bool
	}{
		{"no input", options{}, exitUsage, true},
		{"both inputs", options{victim: "aes", script: "x.s"}, exitUsage, true},
		{"unknown victim", options{victim: "nope"}, exitUsage, true},
		{"prove requires victim", options{prove: true}, exitUsage, true},
		{"prove unknown handle", options{victim: "aes", prove: true, handle: "nope", witnessPairs: -1}, exitUsage, true},
		{"scan findings no fail", options{victim: "controlflow"}, exitOK, false},
		{"scan findings fail", options{victim: "controlflow", fail: true}, exitLeaky, false},
		{"scan clean fail", options{victim: "ctcontrol", fail: true}, exitOK, false},
		// witnessPairs -1 is the flag default ("use the verifier's");
		// the zero value is a genuine zero-pair budget, used below.
		{"prove safe fail", options{victim: "ctcontrol", prove: true, fail: true, witnessPairs: -1}, exitOK, false},
		{"prove leaky fail", options{victim: "controlflow", prove: true, fail: true, witnessPairs: -1}, exitLeaky, false},
		{"prove leaky no fail", options{victim: "controlflow", prove: true, witnessPairs: -1}, exitOK, false},
		// Zero witness pairs leave the abstract sites unconfirmed:
		// honest UNKNOWN, distinguished from LEAKY by its exit code.
		{"prove unknown fail", options{victim: "controlflow", prove: true, fail: true, witnessPairs: 0}, exitUnknown, false},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			var buf bytes.Buffer
			code, err := run(c.opts, &buf)
			if code != c.code {
				t.Fatalf("exit code = %d, want %d (err: %v)", code, c.code, err)
			}
			if (err != nil) != c.wantErr {
				t.Fatalf("err = %v, wantErr = %v", err, c.wantErr)
			}
		})
	}
}

// -prove -repair on a leaky victim must report a PROVEN-SAFE repaired
// program alongside the original LEAKY verdict.
func TestProveRepairOutput(t *testing.T) {
	var buf bytes.Buffer
	code, err := run(options{victim: "controlflow", prove: true, repair: true, witnessPairs: -1}, &buf)
	if err != nil || code != exitOK {
		t.Fatalf("run: code %d, err %v", code, err)
	}
	out := buf.String()
	for _, want := range []string{
		"verdict LEAKY",
		"witness:",
		"repair:",
		"repaired program: verdict PROVEN-SAFE",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// The JSON document must round-trip and carry the witness evidence.
func TestProveJSON(t *testing.T) {
	var buf bytes.Buffer
	code, err := run(options{victim: "controlflow", prove: true, json: true, witnessPairs: -1}, &buf)
	if err != nil || code != exitOK {
		t.Fatalf("run: code %d, err %v", code, err)
	}
	var doc struct {
		Result *verify.Result `json:"result"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if doc.Result == nil || doc.Result.Verdict != verify.Leaky {
		t.Fatalf("JSON result = %+v, want LEAKY", doc.Result)
	}
	if doc.Result.Witness == nil || len(doc.Result.Sites) == 0 {
		t.Fatalf("JSON result lacks witness or sites: %+v", doc.Result)
	}
}

// parseFlags must accept every documented flag.
func TestParseFlags(t *testing.T) {
	o, err := parseFlags(newFlagSet(), []string{
		"-victim", "aes", "-prove", "-repair", "-witness",
		"-handle", "stack", "-trials", "8", "-witness-pairs", "4",
		"-max-paths", "64", "-fail", "-json",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !o.prove || !o.repair || !o.witness || o.handle != "stack" ||
		o.trials != 8 || o.witnessPairs != 4 || o.maxPaths != 64 || !o.fail || !o.json {
		t.Fatalf("parsed options = %+v", o)
	}
}

// runArgs parses a command line as main does and runs it.
func runArgs(t *testing.T, out io.Writer, args ...string) (int, error) {
	t.Helper()
	o, err := parseFlags(newFlagSet(), args)
	if err != nil {
		t.Fatalf("parseFlags(%q): %v", args, err)
	}
	return run(o, out)
}

// A flag mscan would ignore, out of range or outside the mode that
// reads it, is a usage error: exit 3 before anything runs, with an error
// naming the flag.
func TestRejectsIgnoredFlags(t *testing.T) {
	cases := []struct {
		args []string
		msg  string
	}{
		{[]string{"-victim", "controlflow", "-rob", "-4"}, "-rob -4 is out of range"},
		{[]string{"-victim", "controlflow", "-prove", "-trials", "-1"}, "-trials -1 is out of range"},
		{[]string{"-victim", "controlflow", "-prove", "-max-paths", "-1"}, "-max-paths -1 is out of range"},
		{[]string{"-victim", "controlflow", "-prove", "-witness-pairs", "-3"}, "-witness-pairs -3 is out of range"},
		{[]string{"-victim", "controlflow", "-repair"}, "-repair requires -prove"},
		{[]string{"-victim", "controlflow", "-trials", "3", "-witness"}, "-witness requires -prove"},
		{[]string{"-victim", "controlflow", "-trials", "3"}, "-trials requires -prove"},
		{[]string{"-victim", "controlflow", "-witness-pairs", "4"}, "-witness-pairs requires -prove"},
		{[]string{"-victim", "controlflow", "-max-paths", "8"}, "-max-paths requires -prove"},
		{[]string{"-victim", "controlflow", "-sanitize", "-repair"}, "-repair requires -prove"},
		{[]string{"-victim", "controlflow", "-handle", "handle"}, "-handle requires -prove or -sanitize"},
		{[]string{"-script", exampleScript, "-handle", "handle"}, "-handle requires -prove or -sanitize"},
		{[]string{"-script", exampleScript, "-prove", "-handle", "nosuch"}, `no symbol "nosuch" for the replay handle`},
		{[]string{"-script", exampleScript, "-sanitize", "-handle", "nosuch"}, `no symbol "nosuch" for the replay handle`},
		{[]string{"-victim", "aes", "-sanitize", "-handle", "handle"}, `victim aes has no symbol "handle"`},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		code, err := runArgs(t, &buf, c.args...)
		if code != exitUsage || err == nil || !strings.Contains(err.Error(), c.msg) {
			t.Errorf("%q: code %d, err %v; want %d and %q", c.args, code, err, exitUsage, c.msg)
		}
		if buf.Len() != 0 {
			t.Errorf("%q: wrote output before rejecting the flags:\n%s", c.args, buf.String())
		}
	}

	// The same flags in their own modes, and at their bounds, run.
	for _, args := range [][]string{
		{"-victim", "ctcontrol", "-prove", "-trials", "2", "-max-paths", "64", "-witness-pairs", "-1", "-rob", "0"},
		{"-victim", "controlflow", "-prove", "-repair", "-witness", "-witness-pairs", "0", "-handle", "handle"},
		{"-victim", "controlflow", "-sanitize", "-handle", "handle"},
	} {
		if code, err := runArgs(t, io.Discard, args...); err != nil || code != exitOK {
			t.Errorf("%q: code %d, err %v; want %d", args, code, err, exitOK)
		}
	}
}

// A script whose regions cannot be installed on the platform is a
// usage error in every mode, before a platform boots.
func TestRejectsScriptBeyondMemory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "big.s")
	if err := os.WriteFile(path, []byte(";; region handle 0x400000 rw 16350\nhalt\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mode := range [][]string{nil, {"-prove"}, {"-sanitize"}} {
		args := append([]string{"-script", path}, mode...)
		var buf bytes.Buffer
		code, err := runArgs(t, &buf, args...)
		if code != exitUsage || err == nil || !strings.Contains(err.Error(), "need 16385 physical frames, the platform has 16384") {
			t.Errorf("%q: code %d, err %v; want %d and the frame counts", args, code, err, exitUsage)
		}
		if buf.Len() != 0 {
			t.Errorf("%q: wrote output before rejecting the script:\n%s", args, buf.String())
		}
	}
}

// SpecSan shadows each secret byte with 8 bytes of host memory, so
// -sanitize refuses secrets spanning more than 2,048 pages, as much
// shadow as the platform has physical memory, before the run. The scan
// and -prove still accept the script.
func TestSanitizeRefusesSecretsBeyondShadow(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bigsecret.s")
	src := ";; region handle 0x400000 rw\n;; region key 0x1000000 rw 2049\n;; secret key\n" +
		"movi r1, 0x400000\nld r2, 0(r1)\nhalt\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	code, err := runArgs(t, &buf, "-script", path, "-sanitize")
	if code != exitUsage || err == nil || !strings.Contains(err.Error(), `seeding "key": secrets span 2049 pages, more than the 2048`) {
		t.Errorf("-sanitize: code %d, err %v; want %d and an error naming the region and the bound", code, err, exitUsage)
	}
	if buf.Len() != 0 {
		t.Errorf("-sanitize wrote output before refusing the secrets:\n%s", buf.String())
	}
	for _, mode := range [][]string{nil, {"-prove"}} {
		args := append([]string{"-script", path}, mode...)
		if code, err := runArgs(t, io.Discard, args...); err != nil || code != exitOK {
			t.Errorf("%q: code %d, err %v; want %d", args, code, err, exitOK)
		}
	}
}

// exampleScript is the victim script `microscope lab`'s example runs: a
// replay handle at pc 4, then a probe-line load at pc 7 whose address
// the declared secret region selects.
var exampleScript = filepath.Join("..", "..", "examples", "asmlab", "victim.s")

// The example script drives every mode through -script: the scan flags
// its transmit, the verifier proves it LEAKY with a witness there, and
// SpecSan observes it transiently and reconciles it with the scan.
func TestExampleScript(t *testing.T) {
	var buf bytes.Buffer
	if code, err := runArgs(t, &buf, "-script", exampleScript, "-json", "-fail"); err != nil || code != exitLeaky {
		t.Fatalf("scan: code %d, err %v; want %d", code, err, exitLeaky)
	}
	var rep static.Report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("scan JSON: %v\n%s", err, buf.Bytes())
	}
	if len(rep.Findings) != 1 || rep.Findings[0].Index != 7 || rep.Findings[0].Instr != "ld r7, 0(r6)" ||
		rep.Findings[0].Channel.String() != "cache-set" || rep.Findings[0].Handle != 4 {
		t.Errorf("scan findings = %+v, want the cache-set load at pc 7 under the handle at pc 4", rep.Findings)
	}

	buf.Reset()
	if code, err := runArgs(t, &buf, "-script", exampleScript, "-prove", "-fail"); err != nil || code != exitLeaky {
		t.Fatalf("-prove: code %d, err %v; want %d", code, err, exitLeaky)
	}
	for _, want := range []string{"verdict LEAKY", "witness: site @7, cache-set channel diverges"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("-prove output lacks %q:\n%s", want, buf.String())
		}
	}

	buf.Reset()
	if code, err := runArgs(t, &buf, "-script", exampleScript, "-sanitize", "-json", "-fail"); err != nil || code != exitLeaky {
		t.Fatalf("-sanitize: code %d, err %v; want %d", code, err, exitLeaky)
	}
	var doc sanitizeOutput
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("-sanitize JSON: %v\n%s", err, buf.Bytes())
	}
	if len(doc.Findings) != 1 || doc.Findings[0].PC != 7 || doc.Findings[0].Channel.String() != "cache-set" ||
		doc.Findings[0].Transient == 0 {
		t.Errorf("sanitizer findings = %+v, want a transient cache-set transmit at pc 7", doc.Findings)
	}
	if es := doc.Reconciliation.Entries; len(es) != 1 || es[0].PC != 7 || es[0].Class != sanitizer.Confirmed {
		t.Errorf("reconciliation = %+v, want pc 7 confirmed", es)
	}
	if un := doc.Reconciliation.Unexplained(); len(un) != 0 {
		t.Errorf("unexplained disagreements: %+v", un)
	}
}

// Without its secret declaration the same program has nothing to leak:
// the scan is clean and the verifier proves it safe.
func TestExampleScriptWithoutSecret(t *testing.T) {
	src, err := os.ReadFile(exampleScript)
	if err != nil {
		t.Fatal(err)
	}
	stripped := strings.Replace(string(src), ";; secret secret\n", "", 1)
	if stripped == string(src) {
		t.Fatal("example script declares no secret region")
	}
	path := filepath.Join(t.TempDir(), "nosecret.s")
	if err := os.WriteFile(path, []byte(stripped), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mode := range [][]string{nil, {"-prove"}} {
		var buf bytes.Buffer
		args := append([]string{"-script", path, "-fail"}, mode...)
		if code, err := runArgs(t, &buf, args...); err != nil || code != exitOK {
			t.Errorf("%q: code %d, err %v; want %d\n%s", args, code, err, exitOK, buf.String())
		}
	}
}
