package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"microscope/analysis/static"
	"microscope/attack/experiments"
	"microscope/sim/cpu/cputest"
	"microscope/sim/isa"
)

// The SpecSan gate: golden_sanitize.json pins, for every builtin under
// three flag sets, the sha256 of the scan's and the sanitizer's JSON
// documents, plus the fields that name what moved when a digest does:
// the replay and window counts, a digest of the dynamic findings and
// the reconciliation class counts. -rob 24 shrinks the shadow until
// dynamic transmits fall outside it (the out-of-shadow class, which
// reads the static transmit points); -no-rdrand-taint produces the
// empty-findings documents. A second section pins static.Analyze's
// findings and transmit points over generated programs with one secret
// register. Regenerate after an intentional change with:
//
//	go test ./cmd/mscan -run TestGoldenSanitize -update

const sanitizeGoldenPath = "testdata/golden_sanitize.json"

// sanitizeFlagSets are the flag sets every builtin runs under.
var sanitizeFlagSets = []struct {
	name string
	args []string
}{
	{"default", nil},
	{"rob24", []string{"-rob", "24"}},
	{"no-rdrand-taint", []string{"-no-rdrand-taint"}},
}

// sanitizeRun is the pinned part of one builtin under one flag set.
type sanitizeRun struct {
	ScanSHA256     string         `json:"scanSHA256"`
	SanitizeSHA256 string         `json:"sanitizeSHA256"`
	Replays        int            `json:"replays"`
	Windows        int            `json:"windows"`
	Findings       int            `json:"findings"`
	FindingsSHA256 string         `json:"findingsSHA256"`
	Counts         map[string]int `json:"counts"`
}

// staticRun is the pinned part of one generated program's analysis at
// one window.
type staticRun struct {
	Findings       int    `json:"findings"`
	FindingsSHA256 string `json:"findingsSHA256"`
	Points         int    `json:"points"`
	PointsSHA256   string `json:"pointsSHA256"`
}

// sanitizeDoc is the golden file.
type sanitizeDoc struct {
	Builtins  map[string]sanitizeRun `json:"builtins"`
	Generated map[string]staticRun   `json:"generated"`
}

// Generated programs: seeds 1..genPrograms, the secret register
// rotating over r1..r8. Generated programs are short and full of
// handles, so window 24 cuts none of their shadows; window 4 cuts
// nine of them.
const genPrograms = 24

var genWindows = []int{static.DefaultROBWindow, 24, 4}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// mscanOutput runs one mscan command line and returns its stdout.
func mscanOutput(t *testing.T, args ...string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if code, err := runArgs(t, &buf, args...); err != nil || code != exitOK {
		t.Fatalf("mscan %q: code %d, err %v", args, code, err)
	}
	return buf.Bytes()
}

func collectSanitizeRun(t *testing.T, name string, flags []string) sanitizeRun {
	t.Helper()
	base := append([]string{"-victim", name, "-json"}, flags...)
	scan := mscanOutput(t, base...)
	san := mscanOutput(t, append(base, "-sanitize")...)
	var doc sanitizeOutput
	if err := json.Unmarshal(san, &doc); err != nil {
		t.Fatalf("%s %q: -sanitize -json is not JSON: %v", name, flags, err)
	}
	var fl bytes.Buffer
	for _, f := range doc.Findings {
		fmt.Fprintf(&fl, "%d %s %t %d %d %#x %d\n",
			f.PC, f.Channel, f.Implicit, f.Count, f.Transient, f.Taint, f.Replays)
	}
	return sanitizeRun{
		ScanSHA256:     sha256Hex(scan),
		SanitizeSHA256: sha256Hex(san),
		Replays:        doc.Replays,
		Windows:        doc.Windows,
		Findings:       len(doc.Findings),
		FindingsSHA256: sha256Hex(fl.Bytes()),
		Counts:         doc.Counts,
	}
}

func collectStaticRun(t *testing.T, seed int64, window int) staticRun {
	t.Helper()
	prog := cputest.GenProgram(rand.New(rand.NewSource(seed)))
	sec := static.Secrets{Regs: []isa.Reg{isa.R1 + isa.Reg(seed%8)}}
	cfg := static.DefaultConfig()
	cfg.ROBWindow = window
	rep, err := static.Analyze(fmt.Sprintf("gen%d", seed), prog, sec, cfg)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	fj, err := json.Marshal(rep.Findings)
	if err != nil {
		t.Fatal(err)
	}
	pj, err := json.Marshal(rep.Points)
	if err != nil {
		t.Fatal(err)
	}
	return staticRun{
		Findings:       len(rep.Findings),
		FindingsSHA256: sha256Hex(fj),
		Points:         len(rep.Points),
		PointsSHA256:   sha256Hex(pj),
	}
}

func TestGoldenSanitize(t *testing.T) {
	got := sanitizeDoc{Builtins: map[string]sanitizeRun{}, Generated: map[string]staticRun{}}
	for _, tgt := range experiments.SanTargets() {
		for _, fs := range sanitizeFlagSets {
			got.Builtins[tgt.Name+"/"+fs.name] = collectSanitizeRun(t, tgt.Name, fs.args)
		}
	}
	for seed := int64(1); seed <= genPrograms; seed++ {
		for _, w := range genWindows {
			got.Generated[fmt.Sprintf("seed%02d/w%d", seed, w)] = collectStaticRun(t, seed, w)
		}
	}
	enc, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	enc = append(enc, '\n')

	if *updateGolden {
		if err := os.WriteFile(sanitizeGoldenPath, enc, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", sanitizeGoldenPath)
		return
	}
	raw, err := os.ReadFile(sanitizeGoldenPath)
	if err != nil {
		t.Fatalf("reading golden sanitize digests (run with -update to create them): %v", err)
	}
	var want sanitizeDoc
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	diff := func(section string, got, want map[string][]byte) {
		for k, g := range got {
			w, ok := want[k]
			if !ok {
				t.Errorf("%s/%s: no golden entry committed (run with -update)", section, k)
				continue
			}
			if !bytes.Equal(g, w) {
				t.Errorf("%s/%s: changed\n got: %s\nwant: %s\n"+
					"if this change is intentional, regenerate with -update and review the diff", section, k, g, w)
			}
		}
		for k := range want {
			if _, ok := got[k]; !ok {
				t.Errorf("%s/%s: golden entry names no current run (stale; run with -update)", section, k)
			}
		}
	}
	diff("builtins", marshalEach(t, got.Builtins), marshalEach(t, want.Builtins))
	diff("generated", marshalEach(t, got.Generated), marshalEach(t, want.Generated))
	if !bytes.Equal(raw, enc) {
		t.Error("golden sanitize file is not byte-identical to this run's rendering (run with -update)")
	}
}

// marshalEach renders every entry of m as compact JSON, so entries
// compare field for field and a mismatch prints both sides.
func marshalEach[V any](t *testing.T, m map[string]V) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte, len(m))
	for k, v := range m {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		out[k] = b
	}
	return out
}
