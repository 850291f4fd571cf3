package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"microscope/attack/experiments"
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

	oldTrace, oldMetrics := *traceOut, *showMetrics
	defer func() { *traceOut, *showMetrics = oldTrace, oldMetrics }()
	*traceOut = out
	*showMetrics = true

	if err := runTimeline(); err != nil {
		t.Fatal(err)
	}
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
	*traceOut = out2
	if err := runTimeline(); err != nil {
		t.Fatal(err)
	}
	data2, err := os.ReadFile(out2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Error("-trace output differs between identical runs")
	}
}

// TestCheckFlags: checkpoint flags outside `timeline`, and -reverse-to
// without the checkpoints it restores from, are usage errors naming the
// flag, rejected before anything runs.
func TestCheckFlags(t *testing.T) {
	oldEvery, oldReverse := *checkpointEvery, *reverseTo
	defer func() { *checkpointEvery, *reverseTo = oldEvery, oldReverse }()
	cases := []struct {
		cmd       string
		every, to uint64
		wantFlag  string // the flag the error names; "" for no error
	}{
		{"timeline", 0, 5000, "-reverse-to"},
		{"timeline", 1000, 5000, ""},
		{"timeline", 0, 0, ""},
		{"table2", 1000, 0, "-checkpoint-every"},
	}
	for _, c := range cases {
		*checkpointEvery, *reverseTo = c.every, c.to
		err := checkFlags(c.cmd)
		ok := err == nil
		if c.wantFlag != "" {
			ok = err != nil && strings.Contains(err.Error(), c.wantFlag)
		}
		if !ok {
			t.Errorf("%s -checkpoint-every %d -reverse-to %d: err = %v, want flag %q named",
				c.cmd, c.every, c.to, err, c.wantFlag)
		}
	}
}
