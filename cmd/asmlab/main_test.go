package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

var exampleScript = filepath.Join("..", "..", "examples", "asmlab", "victim.s")

// A flag naming a symbol the script does not define is a usage error:
// exit 2 with one line that names the flag and the symbol, not a panic
// from Layout.Sym.
func TestUnknownSymbolIsUsageError(t *testing.T) {
	for _, name := range []string{"handle", "probe", "pivot"} {
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run([]string{"-script", exampleScript, "-" + name, "nosuch"}, &stdout, &stderr)
			if code != 2 {
				t.Fatalf("exit code = %d, want 2 (stderr %q)", code, stderr.String())
			}
			msg := stderr.String()
			if strings.Count(msg, "\n") != 1 || !strings.Contains(msg, "-"+name+":") ||
				!strings.Contains(msg, `"nosuch"`) {
				t.Errorf("stderr = %q, want one line naming -%s and \"nosuch\"", msg, name)
			}
		})
	}
}

// The example script runs clean: every replay window shows the secret
// (3) as the one hot probe line.
func TestExampleScript(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-script", exampleScript, "-probe", "probe", "-replays", "3"}, &stdout, &stderr)
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
