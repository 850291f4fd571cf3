package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// writeTimelineImage runs timeline with flags and writes its final
// machine image to path.
func writeTimelineImage(t *testing.T, path string, flags ...string) {
	t.Helper()
	argv := append(append([]string{"-checkpoint-out", path}, flags...), "timeline")
	var out, errw bytes.Buffer
	if code := run(argv, &out, &errw); code != 0 {
		t.Fatalf("%q: exit code = %d, stderr: %s", argv, code, errw.String())
	}
}

// TestSnapdiffExitCodes: two timeline images are identical (exit 0),
// an image taken after reverse-stepping to cycle 9,000 differs from
// them in the lines testdata holds, which the standalone snapdiff
// printed (exit 1, nothing on stderr), and a missing image is a usage
// error (exit 2).
func TestSnapdiffExitCodes(t *testing.T) {
	dir := t.TempDir()
	a, b, c := filepath.Join(dir, "a.gob"), filepath.Join(dir, "b.gob"), filepath.Join(dir, "c.gob")
	writeTimelineImage(t, a)
	writeTimelineImage(t, b)
	writeTimelineImage(t, c, "-checkpoint-every", "5000", "-reverse-to", "9000")
	differ, err := os.ReadFile(filepath.Join("testdata", "snapdiff_reverse_to_9000.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		argv   []string
		code   int
		stdout string
	}{
		{[]string{"snapdiff", a, b}, 0, "snapshots identical (32768 bytes of physical memory)\n"},
		{[]string{"snapdiff", a, c}, 1, string(differ)},
	} {
		var out, errw bytes.Buffer
		if code := run(tc.argv, &out, &errw); code != tc.code || out.String() != tc.stdout || errw.Len() != 0 {
			t.Errorf("%q: exit code %d, stderr %q, stdout:\n%s\nwant %d, no stderr, stdout:\n%s",
				tc.argv, code, errw.String(), out.String(), tc.code, tc.stdout)
		}
	}
	checkUsageError(t, []string{"snapdiff", a, filepath.Join(dir, "missing.gob")}, "missing.gob")
}
