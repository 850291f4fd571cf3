package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"microscope/analysis/verify"
	"microscope/attack/experiments"
	"microscope/attack/victim"
	"microscope/sim/isa"
	"microscope/sim/mem"
)

// FuzzScanScript drives mscan's one front door for user programs, the
// victim script, through every mode: the scan through run with -script,
// then the verifier and SpecSan on the parsed layout. Their budgets are
// cut, since a script that spins after its handle would otherwise step
// millions of cycles per input. Whatever the script, nothing may panic
// and every call must end in a result or an error; a scan error comes
// with the usage exit code, a report with a clean or leaky one, and a
// -json report is valid JSON.
func FuzzScanScript(f *testing.F) {
	src, err := os.ReadFile(exampleScript)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(src), false)
	f.Add(strings.Replace(string(src), ";; secret secret\n", "", 1), true)
	for _, tgt := range experiments.SanTargets() {
		lay, err := tgt.Build()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(scriptOf(lay, tgt.Handle), true)
	}

	vcfg := verify.DefaultConfig()
	vcfg.MaxPaths = 8
	vcfg.MaxStepsPerPath = 2_000
	vcfg.MaxTotalSteps = 8_000
	vcfg.Trials = 2
	vcfg.MaxWitnessPairs = 2
	vcfg.Replays = 2
	vcfg.HandlerLatency = 500
	vcfg.MaxCycles = 50_000
	scfg := experiments.DefaultSpecSanConfig()
	scfg.Replays = vcfg.Replays
	scfg.HandlerLatency = vcfg.HandlerLatency
	scfg.MaxCycles = vcfg.MaxCycles

	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, src string, asJSON bool) {
		path := filepath.Join(dir, "victim.s")
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		code, err := run(options{script: path, json: asJSON, fail: true}, &buf)
		switch {
		case err != nil && code != exitUsage:
			t.Fatalf("scan error %v with exit code %d, want %d", err, code, exitUsage)
		case err == nil && code != exitOK && code != exitLeaky:
			t.Fatalf("scan exit code %d, want %d or %d", code, exitOK, exitLeaky)
		case err == nil && asJSON && !json.Valid(buf.Bytes()):
			t.Fatalf("-json output is not valid JSON:\n%s", buf.Bytes())
		}

		lay, err := victim.ParseScript(path, src)
		if err != nil {
			return
		}
		res, err := verify.Verify(verify.NewSubject(lay), vcfg)
		if (res == nil) == (err == nil) {
			t.Fatalf("Verify returned result %v with error %v", res, err)
		}
		san, err := experiments.RunSpecSanLayout(path, lay, "handle", scfg)
		if (san == nil) == (err == nil) {
			t.Fatalf("RunSpecSanLayout returned result %v with error %v", san, err)
		}
	})
}

// scriptOf writes a builtin layout as a victim script: its regions, its
// replay handle as the "handle" symbol and its secret declaration as
// directives, then its disassembly. Initial data is left out.
func scriptOf(l *victim.Layout, handle string) string {
	var b strings.Builder
	for _, r := range l.Regions {
		perm := "ro"
		if r.Flags&mem.FlagWritable != 0 {
			perm = "rw"
		}
		fmt.Fprintf(&b, ";; region %s %#x %s %d\n", r.Name, r.VA, perm, r.Size/mem.PageSize)
	}
	if handle != "handle" {
		fmt.Fprintf(&b, ";; symbol handle %s\n", handle)
	}
	for _, name := range l.SecretRegions {
		fmt.Fprintf(&b, ";; secret %s\n", name)
	}
	for _, r := range l.SecretRegs {
		fmt.Fprintf(&b, ";; secret-reg %s\n", r)
	}
	b.WriteString(isa.Disassemble(l.Prog))
	return b.String()
}
