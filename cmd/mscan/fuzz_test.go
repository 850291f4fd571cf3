package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"microscope/sim/isa"
)

// FuzzScanAsm drives mscan's -asm front door: the assembler, the
// -secret-reg and -secret-mem parsers and the static scan. (-prove and
// -sanitize reject -asm input, so nothing here reaches the simulator.)
// Whatever the source and flags, run must not panic; an error must come
// with the usage exit code, a report with a clean or leaky one, and a
// -json report must be valid JSON.
func FuzzScanAsm(f *testing.F) {
	src, err := os.ReadFile("../../examples/asmlab/victim.s")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(src), "", "0x420000:0x421000", false)
	f.Add(string(src), "r4", "0x420000:0x421000", true)
	for _, b := range builtins() {
		l, err := b.build()
		if err != nil {
			f.Fatal(err)
		}
		var regs, mems []string
		for _, r := range l.SecretRegs {
			regs = append(regs, r.String())
		}
		for _, m := range l.SecretMems() {
			mems = append(mems, fmt.Sprintf("%#x:%#x", m[0], m[1]))
		}
		f.Add(isa.Disassemble(l.Prog), strings.Join(regs, ","), strings.Join(mems, ","), true)
	}
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, src, secretRegs, secretMems string, asJSON bool) {
		path := filepath.Join(dir, "prog.s")
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		code, err := run(options{asm: path, secretRegs: secretRegs, secretMems: secretMems, json: asJSON, fail: true}, &buf)
		if err != nil {
			if code != exitUsage {
				t.Fatalf("error %v with exit code %d, want %d", err, code, exitUsage)
			}
			return
		}
		if code != exitOK && code != exitLeaky {
			t.Fatalf("scan exit code %d, want %d or %d", code, exitOK, exitLeaky)
		}
		if asJSON && !json.Valid(buf.Bytes()) {
			t.Fatalf("-json output is not valid JSON:\n%s", buf.Bytes())
		}
	})
}
