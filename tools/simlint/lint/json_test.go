package lint

import (
	"bytes"
	"go/token"
	"os"
	"path/filepath"
	"testing"
)

// addFile registers a synthetic file and returns a Pos on the given line.
func addFile(fset *token.FileSet, name string, line int) token.Pos {
	const size = 1000
	f := fset.AddFile(name, -1, size)
	lines := make([]int, line)
	for i := range lines {
		lines[i] = i * 10
	}
	f.SetLines(lines)
	return f.Pos((line - 1) * 10)
}

func TestToJSONRelativizesAndSorts(t *testing.T) {
	fset := token.NewFileSet()
	root := string(filepath.Separator) + filepath.Join("repo")
	inB := addFile(fset, filepath.Join(root, "b", "b.go"), 3)
	inA := addFile(fset, filepath.Join(root, "a", "a.go"), 7)
	outside := addFile(fset, string(filepath.Separator)+filepath.Join("elsewhere", "x.go"), 1)

	got := ToJSON(fset, root, []Diagnostic{
		{Analyzer: "snapcover", Pos: inB, Msg: "m1"},
		{Analyzer: "enumtotal", Pos: inA, Msg: "m2"},
		{Analyzer: "hookpair", Pos: outside, Msg: "m3"},
	})
	if len(got) != 3 {
		t.Fatalf("got %d diagnostics, want 3", len(got))
	}
	if got[0].File != string(filepath.Separator)+filepath.ToSlash(filepath.Join("elsewhere", "x.go")) {
		t.Errorf("outside-root path was relativized: %q", got[0].File)
	}
	if got[1].File != "a/a.go" || got[1].Line != 7 || got[1].Analyzer != "enumtotal" {
		t.Errorf("got[1] = %+v, want a/a.go:7 enumtotal", got[1])
	}
	if got[2].File != "b/b.go" || got[2].Line != 3 {
		t.Errorf("got[2] = %+v, want b/b.go:3", got[2])
	}
}

func TestJSONRoundTrip(t *testing.T) {
	diags := []JSONDiagnostic{
		{Analyzer: "determinism", File: "sim/cpu/core.go", Line: 10, Col: 1, Message: "m"},
		{Analyzer: "snapcover", File: "sim/cache/cache.go", Line: 20, Col: 2, Message: "n"},
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, diags); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "findings.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o666); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(diags) {
		t.Fatalf("round trip lost diagnostics: %d != %d", len(got), len(diags))
	}
	for i := range diags {
		if got[i] != diags[i] {
			t.Errorf("round trip [%d]: %+v != %+v", i, got[i], diags[i])
		}
	}

	if _, err := ReadJSONFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing baseline accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJSONFile(bad); err == nil {
		t.Error("malformed baseline accepted")
	}
}

func TestDiffIsLineAgnosticAndCountsMultiplicity(t *testing.T) {
	base := JSONDiagnostic{Analyzer: "snapcover", File: "a.go", Line: 5, Message: "field X uncovered"}
	moved := base
	moved.Line = 50 // same finding, shifted by an unrelated edit
	second := base
	second.Line = 60 // a second identical finding: new
	other := JSONDiagnostic{Analyzer: "enumtotal", File: "a.go", Line: 5, Message: "switch partial"}

	got := Diff([]JSONDiagnostic{base}, []JSONDiagnostic{moved})
	if len(got) != 0 {
		t.Errorf("a moved finding reported as new: %v", got)
	}

	got = Diff([]JSONDiagnostic{base}, []JSONDiagnostic{moved, second, other})
	if len(got) != 2 {
		t.Fatalf("got %d new findings, want 2 (duplicate + other): %v", len(got), got)
	}
	if got[0] != second || got[1] != other {
		t.Errorf("diff = %v, want [second, other]", got)
	}

	if got := Diff(nil, nil); len(got) != 0 {
		t.Errorf("empty diff nonempty: %v", got)
	}
	if got := Diff([]JSONDiagnostic{base}, nil); len(got) != 0 {
		t.Errorf("fixed finding reported: %v", got)
	}
}
