package main

import (
	"bytes"
	"io"
	"strconv"
	"strings"
	"testing"

	"microscope/attack/victim"
	"microscope/sim/cpu"
	"microscope/sim/trace"
)

// pipeviewSpans runs pipeview's attack with the given replays on the
// div side and returns its lifecycle collector.
func pipeviewSpans(t *testing.T, replays int) *trace.Collector {
	t.Helper()
	_, obs, err := (&pipeviewOptions{replays: replays, secret: true}).attack()
	if err != nil {
		t.Fatal(err)
	}
	return obs.col
}

// faultCycles lists the cycles at which context 0's faults were delivered.
func faultCycles(col *trace.Collector) []uint64 {
	var out []uint64
	for _, m := range col.Marks() {
		if m.Context == 0 && m.Kind == cpu.EvFault {
			out = append(out, m.Cycle)
		}
	}
	return out
}

// TestCollectorMarksSquashAndFault: one replay's fault is marked, its
// load closes faulted beside the shadow it squashed, and the table shows
// both fates.
func TestCollectorMarksSquashAndFault(t *testing.T) {
	col := pipeviewSpans(t, 1)
	if faults := faultCycles(col); len(faults) != 1 {
		t.Errorf("%d fault marks, want 1", len(faults))
	}
	spans := append(col.Spans(), col.OpenSpans()...)
	if _, squashed, faulted := summary(spans); faulted != 1 || squashed == 0 {
		t.Errorf("%d faulted, %d squashed; want 1 and at least 1", faulted, squashed)
	}
	if out := render(spans); !strings.Contains(out, "faulted") || !strings.Contains(out, "squashed") {
		t.Errorf("render missing fates:\n%s", out)
	}
}

// TestWindowsFollowClosingFault pins where a span lands: in the window
// of the fault that closed it. Each fault's window holds exactly that
// faulting instruction plus the shadow it squashed — fetched after the
// faulting load but before its fault — and nothing fetched after its
// fault or at or before the previous one.
func TestWindowsFollowClosingFault(t *testing.T) {
	col := pipeviewSpans(t, 2)
	faults := faultCycles(col)
	ws := windows(col, 0)
	if len(faults) != 2 || len(ws) != 3 {
		t.Fatalf("%d faults, %d windows; want 2 and 3", len(faults), len(ws))
	}
	for i, w := range ws {
		_, squashed, faulted := summary(w)
		if i < len(faults) && (faulted != 1 || squashed == 0) {
			t.Errorf("window %d: %d faulted, %d squashed; want its fault and the shadow it squashed\n%s",
				i, faulted, squashed, render(w))
		}
		for _, s := range w {
			if i < len(faults) && s.Fetch > faults[i] {
				t.Errorf("window %d holds pc %d fetched at %d, after its fault at %d", i, s.PC, s.Fetch, faults[i])
			}
			if i > 0 && s.Fetch <= faults[i-1] {
				t.Errorf("window %d holds pc %d fetched at %d, before the previous fault at %d",
					i, s.PC, s.Fetch, faults[i-1])
			}
		}
	}
}

// TestReplayWindowsShowReexecution: the replayed transmit re-executes
// once per window — squashed by every fault, retired once, at the end.
// (The first fault lands before the secret branch resolves, so the
// transmit first runs in window 1.)
func TestReplayWindowsShowReexecution(t *testing.T) {
	col := pipeviewSpans(t, 3)
	div := victim.ControlFlowSecret(true).Mark("div0")
	ws := windows(col, 0)
	if len(ws) != 4 {
		t.Fatalf("%d windows, want 4", len(ws))
	}
	for i := 1; i < len(ws); i++ {
		var squashed, retired int
		for _, s := range ws[i] {
			if s.PC == div && s.Fate == trace.FateSquashed {
				squashed++
			}
			if s.PC == div && s.Fate == trace.FateRetired {
				retired++
			}
		}
		if last := i == len(ws)-1; last && retired != 1 || !last && (squashed == 0 || retired != 0) {
			t.Errorf("window %d of %d: transmit squashed %d times, retired %d", i, len(ws), squashed, retired)
		}
	}
}

// TestBudgetGrowsWithReplays: at ~6,100 cycles a replay, 8,300 replays
// outrun a fixed 50M-cycle budget, so the budget must grow with them.
func TestBudgetGrowsWithReplays(t *testing.T) {
	const replays = 8300
	if faults := faultCycles(pipeviewSpans(t, replays)); len(faults) != replays {
		t.Errorf("%d fault marks, want %d", len(faults), replays)
	}
}

// TestPipeviewCheckFlags: a -replays below 1, or above the spans the
// collector's ring holds, is a usage error naming the flag, rejected
// before anything runs; 1 and the ring's capacity are accepted.
func TestPipeviewCheckFlags(t *testing.T) {
	for _, n := range []string{"0", "-1", strconv.Itoa(trace.DefaultCapacity + 1)} {
		checkUsageError(t, []string{"pipeview", "-replays", n}, "pipeview", "-replays")
	}
	for _, n := range []int{1, trace.DefaultCapacity} {
		o, err := parsePipeview([]string{"-replays", strconv.Itoa(n)}, io.Discard)
		if err != nil || o.replays != n {
			t.Errorf("parsePipeview(-replays %d) = %+v, %v; want replays %d", n, o, err, n)
		}
	}
}

// TestPipeviewFailsWhenRingDrops: 12,000 replay windows close more spans
// than the collector's ring holds, so the oldest windows would print
// empty. The run fails instead, with one stderr line naming how many
// spans were dropped, and prints no window.
func TestPipeviewFailsWhenRingDrops(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{"pipeview", "-replays", "12000"}, &out, &errw)
	if msg := errw.String(); code != 1 || out.Len() != 0 || strings.Count(msg, "\n") != 1 ||
		!strings.Contains(msg, "dropped") {
		t.Errorf("exit code %d, stdout %d bytes, stderr %q; want 1, none and one line naming the dropped spans",
			code, out.Len(), msg)
	}
}
