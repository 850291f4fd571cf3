package microscope

import (
	"strings"
	"testing"

	"microscope/attack/victim"
	"microscope/sim/cpu"
	"microscope/sim/mem"
)

// A handler step that fails, here releasing a handle whose leaf entry
// was removed mid-attack, halts the victim and is reported by Err
// instead of panicking inside the core's fault path. The failure
// survives a snapshot round trip.
func TestHandlerFailureHaltsVictimAndIsReported(t *testing.T) {
	r := newRig(t, cpu.DefaultConfig())
	l := victim.ControlFlowSecret(true)
	r.install(t, l)
	rec := &Recipe{Name: "broken", Victim: r.proc, Handle: l.Sym("handle"), MaxReplays: 20}
	if err := r.m.Install(rec); err != nil {
		t.Fatal(err)
	}
	steps, err := r.m.SoftWalk(r.proc, rec.Handle)
	if err != nil {
		t.Fatal(err)
	}
	r.core.Phys().Write64(steps[mem.PTE].EntryAddr, 0)
	l.Start(r.k, 0)
	r.core.Run(1_000_000)
	if !r.core.Context(0).Halted() {
		t.Fatal("victim still running after the handler failed")
	}
	err = r.m.Err()
	if err == nil || !strings.Contains(err.Error(), "microscope: release failed") {
		t.Fatalf("Err() = %v, want the release failure", err)
	}

	r2 := newRig(t, cpu.DefaultConfig())
	r2.install(t, l)
	if err := r2.m.Restore(r.m.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if got := r2.m.Err(); got == nil || got.Error() != err.Error() {
		t.Errorf("restored module reports %v, want %v", got, err)
	}
}

func TestRestoreRejectsBadWalkLevels(t *testing.T) {
	r := newRig(t, cpu.DefaultConfig())
	l := victim.ControlFlowSecret(true)
	r.install(t, l)
	if err := r.m.Install(&Recipe{Name: "ok", Victim: r.proc, Handle: l.Sym("handle")}); err != nil {
		t.Fatal(err)
	}
	s := r.m.Snapshot()
	for _, levels := range []int{0, -1, mem.Levels + 1} {
		s.Recipes[0].WalkLevels = levels
		if err := r.m.Restore(s); err == nil || !strings.Contains(err.Error(), "walk levels") {
			t.Errorf("WalkLevels %d: err = %v", levels, err)
		}
	}
}
