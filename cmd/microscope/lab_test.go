package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var exampleScript = filepath.Join("..", "..", "examples", "asmlab", "victim.s")

// A flag naming a symbol the script does not define is a usage error:
// exit 2 with one line that names the flag and the symbol, not a panic
// from Layout.Sym.
func TestLabUnknownSymbolIsUsageError(t *testing.T) {
	for _, name := range []string{"handle", "probe", "pivot"} {
		t.Run(name, func(t *testing.T) {
			checkUsageError(t, []string{"lab", "-script", exampleScript, "-" + name, "nosuch"},
				"-"+name+":", `"nosuch"`)
		})
	}
}

// TestLabRunFailures: a script that cannot be read or parsed, or a run
// that fails, exits 1 with one stderr line naming the cause. A prime
// that fails (the 200 probe lines run past the mapped probe region)
// fails the run.
func TestLabRunFailures(t *testing.T) {
	dir := t.TempDir()
	fallOff := filepath.Join(dir, "falloff.s")
	src := ";; region handle 0x400000 rw\nmovi r1, 0x400000\nld r2, 0(r1)\n"
	if err := os.WriteFile(fallOff, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		argv []string
		want string
	}{
		{[]string{"lab", "-script", filepath.Join(dir, "missing.s")}, "missing.s"},
		{[]string{"lab", "-script", fallOff}, "control falls off the end"},
		{[]string{"lab", "-script", exampleScript, "-probe", "probe", "-lines", "200"}, "prime: microscope: 0x411000 not mapped"},
	} {
		var out, errw bytes.Buffer
		code := run(c.argv, &out, &errw)
		if msg := errw.String(); code != 1 || strings.Count(msg, "\n") != 1 || !strings.Contains(msg, c.want) {
			t.Errorf("%q: exit code %d, stderr %q; want 1 and one line naming %q", c.argv, code, msg, c.want)
		}
	}
}

// TestLabLinesBoundedByMemory: -lines above the platform's physical
// memory counted in 64-byte lines is a usage error found at parse,
// before run builds one probe address per line. On the example script
// 2,000,000 lines would otherwise run and fail at the first prime.
func TestLabLinesBoundedByMemory(t *testing.T) {
	checkUsageError(t, []string{"lab", "-script", exampleScript, "-probe", "probe", "-lines", "2000000"},
		"lab", "-lines")
	o, err := parseLab([]string{"-script", exampleScript, "-lines", strconv.Itoa(maxLines)}, io.Discard)
	if err != nil || o.lines != maxLines {
		t.Errorf("parseLab(-lines %d) = %+v, %v; want it accepted", maxLines, o, err)
	}
}

// TestLabExampleScript: the example script runs clean: every replay
// window shows the secret (3) as the one hot probe line.
func TestLabExampleScript(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"lab", "-script", exampleScript, "-probe", "probe", "-replays", "3"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr %q", code, stderr.String())
	}
	out := stdout.String()
	if n := strings.Count(out, "hot lines 3(L1)\n"); n != 3 {
		t.Errorf("%d windows showed line 3 hot, want 3:\n%s", n, out)
	}
	if !strings.Contains(out, "victim finished: true; total faults: 3") {
		t.Errorf("victim did not finish after 3 faults:\n%s", out)
	}
	if stderr.Len() != 0 {
		t.Errorf("unexpected stderr %q", stderr.String())
	}
}
