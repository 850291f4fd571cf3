package lint

// Live-tree gates: the checked-in sources must be clean under every
// analyzer, every exemption in the tree must carry its reason, and
// snapcover must actually catch the deletion of a serialized field
// from cpu.Core / cpu.Context (the acceptance-criteria demonstration).

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLiveTreeClean runs all four analyzers over every package of the
// module and requires zero findings: every real bug is fixed, every
// deliberate deviation carries a written exemption.
func TestLiveTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the whole module")
	}
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	paths, err := l.ModulePackages()
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 10 {
		t.Fatalf("module walk found only %d packages: %v", len(paths), paths)
	}
	analyzers := All()
	for _, path := range paths {
		u, err := l.Load(path)
		if err != nil {
			t.Fatalf("loading %s: %v", path, err)
		}
		for _, d := range Run(u, analyzers) {
			t.Errorf("%s: %s: %s", l.Fset.Position(d.Pos), d.Analyzer, d.Msg)
		}
	}
}

// TestTreeExemptionsCarryReasons walks every Go file in the repo and
// parses its //simlint: comments: each must be a known exemption kind
// with a non-empty reason. This is the cheap, typecheck-free meta-gate
// that keeps "//simlint:snapexempt" (no reason) and typo'd kinds from
// accumulating in files the analyzers happen not to flag today.
func TestTreeExemptionsCarryReasons(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	good := 0
	err = filepath.WalkDir(l.ModRoot, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != l.ModRoot && (strings.HasPrefix(name, ".") || name == "bin" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ok, bad := CollectFileExemptions(f)
		good += len(ok)
		for _, c := range bad {
			t.Errorf("%s: malformed simlint directive %q (unknown kind or missing reason)",
				fset.Position(c.Pos()), c.Text)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if good == 0 {
		t.Error("found no well-formed exemptions in the tree; the walk or the parser is broken")
	}
}

// TestSnapcoverCatchesFieldDeletion is the acceptance-criteria
// demonstration: sim/cpu is clean today, and deleting the serialization
// of any one snapshot-covered field (the Snapshot-side line and the
// Restore-side line, via a source overlay) makes snapcover fail with a
// finding naming that field.
func TestSnapcoverCatchesFieldDeletion(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks sim/cpu repeatedly")
	}
	baseline, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(baseline.ModRoot, "sim", "cpu", "snapshot.go")
	src, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	text := string(src)

	u, err := baseline.Load("microscope/sim/cpu")
	if err != nil {
		t.Fatal(err)
	}
	snapcover := []*Analyzer{ByName("snapcover")}
	if diags := Run(u, snapcover); len(diags) != 0 {
		t.Fatalf("sim/cpu is not snapcover-clean at baseline: %v", diags)
	}

	// Each case deletes a field's only two references in the
	// Snapshot/Restore closure (verified: no helper reachable from the
	// pair touches these fields elsewhere).
	cases := []struct {
		field string
		lines []string
	}{
		{"Core.rngState", []string{"RngState:    c.rngState,", "c.rngState = s.RngState"}},
		{"Core.jitterCount", []string{"JitterCount: c.jitterCount,", "c.jitterCount = s.JitterCount"}},
		{"Core.skipped", []string{"Skipped:     c.skipped,", "c.skipped = s.Skipped"}},
	}
	for _, tc := range cases {
		t.Run(tc.field, func(t *testing.T) {
			mutated := text
			for _, line := range tc.lines {
				if !strings.Contains(mutated, line) {
					t.Fatalf("snapshot.go no longer contains %q; update this test's line anchors", line)
				}
				mutated = strings.Replace(mutated, line, "", 1)
			}
			l, err := NewLoader(".")
			if err != nil {
				t.Fatal(err)
			}
			l.Overlay = map[string]string{snapPath: mutated}
			mu, err := l.Load("microscope/sim/cpu")
			if err != nil {
				t.Fatalf("mutated sim/cpu no longer typechecks: %v", err)
			}
			diags := Run(mu, snapcover)
			found := false
			for _, d := range diags {
				if strings.Contains(d.Msg, "field "+tc.field+" is not serialized") {
					found = true
				}
			}
			if !found {
				t.Errorf("deleting the serialization of %s produced no snapcover finding (got %v)", tc.field, diags)
			}
		})
	}
}
