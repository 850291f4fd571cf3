package platform

import (
	"strings"
	"testing"

	"microscope/attack/microscope"
	"microscope/attack/monitor"
	"microscope/attack/victim"
	"microscope/sim/cpu"
	"microscope/sim/mem"
)

// armed boots a rig with the control-flow victim installed and a replay
// recipe armed on its handle. maxReplays 0 replays forever.
func armed(t testing.TB, maxReplays int) (*Rig, *victim.Layout, *microscope.Recipe) {
	t.Helper()
	rig, err := New(cpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	l := victim.ControlFlowSecret(true)
	if err := rig.InstallVictim(l); err != nil {
		t.Fatal(err)
	}
	rec := &microscope.Recipe{Name: "platform", Victim: rig.Victim, Handle: l.Sym("handle"), MaxReplays: maxReplays}
	if err := rig.Module.Install(rec); err != nil {
		t.Fatal(err)
	}
	return rig, l, rec
}

// A run that times out names every loaded context by the process
// scheduled on it, so a hang on the monitor's context is not blamed on
// the victim.
func TestRunTimeoutNamesEveryContext(t *testing.T) {
	rig, l, _ := armed(t, 0)
	mon := monitor.PortContention(1000, 2)
	if err := rig.AddMonitor(mon); err != nil {
		t.Fatal(err)
	}
	l.Start(rig.Kernel, 0)
	mon.Start(rig.Kernel, 1)
	err := rig.Run(3000)
	if err == nil {
		t.Fatal("Run returned nil before either program could finish")
	}
	for _, want := range []string{"exceeded 3000 cycles", "victim spinning at pc=", "monitor spinning at pc="} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Run error %q does not contain %q", err, want)
		}
	}
}

// broken starts the control-flow victim under a recipe whose release
// fails: the handle's leaf PTE is zeroed after the recipe arms (as
// attack/microscope's failure test does), so the 20th fault's release
// halts the victim.
func broken(t *testing.T) *Rig {
	t.Helper()
	rig, l, rec := armed(t, 20)
	steps, err := rig.Module.SoftWalk(rig.Victim, rec.Handle)
	if err != nil {
		t.Fatal(err)
	}
	rig.Phys.Write64(steps[mem.PTE].EntryAddr, 0)
	l.Start(rig.Kernel, 0)
	return rig
}

// A fault-handler failure halts the victim, so the core stops; Run must
// still report the failure instead of a finished run.
func TestRunReturnsModuleFailure(t *testing.T) {
	err := broken(t).Run(1_000_000)
	if err == nil || !strings.Contains(err.Error(), "microscope: release failed") {
		t.Fatalf("Run = %v, want the module's release failure", err)
	}
}

// RunUntil stops where its condition first holds, returns the module's
// failure when a handler step fails mid-run, and leaves an exhausted
// budget to its caller: no error, the whole budget spent, and the
// timeout error Run would have built still to be asked for.
func TestRunUntil(t *testing.T) {
	never := func() bool { return false }

	t.Run("condition met", func(t *testing.T) {
		rig, l, rec := armed(t, 3)
		l.Start(rig.Kernel, 0)
		met, err := rig.RunUntil(func() bool { return rec.Replays() == 2 }, 10_000_000)
		if err != nil || !met {
			t.Fatalf("RunUntil = %v, %v; want the condition met", met, err)
		}
		if rig.Core.Halted() {
			t.Error("RunUntil ran to the halt past its condition")
		}
		if err := rig.Run(10_000_000); err != nil {
			t.Fatalf("Run after RunUntil: %v", err)
		}
		if rec.TotalFaults() != 3 {
			t.Errorf("the resumed run took %d handle faults, want 3", rec.TotalFaults())
		}
	})

	t.Run("module failure", func(t *testing.T) {
		met, err := broken(t).RunUntil(never, 1_000_000)
		if met || err == nil || !strings.Contains(err.Error(), "microscope: release failed") {
			t.Fatalf("RunUntil = %v, %v; want the module's release failure", met, err)
		}
	})

	t.Run("budget exhausted", func(t *testing.T) {
		const budget = 3000
		rig, l, _ := armed(t, 0)
		l.Start(rig.Kernel, 0)
		start := rig.Core.Cycle()
		met, err := rig.RunUntil(never, budget)
		if met || err != nil {
			t.Fatalf("RunUntil = %v, %v; want neither the condition nor an error", met, err)
		}
		if rig.Core.Halted() || rig.Core.Cycle()-start != budget {
			t.Fatalf("RunUntil stopped after %d of %d cycles (halted=%t)",
				rig.Core.Cycle()-start, budget, rig.Core.Halted())
		}
		twin, tl, _ := armed(t, 0)
		tl.Start(twin.Kernel, 0)
		want := twin.Run(budget)
		if got := rig.TimeoutErr(budget); want == nil || got.Error() != want.Error() {
			t.Errorf("TimeoutErr = %v, want Run's %v", got, want)
		}
	})
}

func TestAddMonitorNeedsSecondContext(t *testing.T) {
	cfg := cpu.DefaultConfig()
	cfg.Contexts = 1
	rig, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = rig.AddMonitor(monitor.PortContention(8, 1))
	if err == nil || !strings.Contains(err.Error(), "no second SMT context") {
		t.Fatalf("AddMonitor on a one-context core = %v, want an error", err)
	}
	if rig.Monitor != nil {
		t.Error("failed AddMonitor left a monitor handle")
	}
}

// An invalid core config is an error naming the field, from New before
// it builds anything and from UpdateTiming, never a panic.
func TestInvalidConfigIsAnError(t *testing.T) {
	cases := []struct {
		field string
		set   func(*cpu.Config)
	}{
		{"Contexts", func(c *cpu.Config) { c.Contexts = 0 }},
		{"ROBSize", func(c *cpu.Config) { c.ROBSize = -1 }},
		{"FetchWidth", func(c *cpu.Config) { c.FetchWidth = 0 }},
		{"IssueWidth", func(c *cpu.Config) { c.IssueWidth = 0 }},
		{"RetireWidth", func(c *cpu.Config) { c.RetireWidth = -2 }},
		{"DivLat", func(c *cpu.Config) { c.DivLat = 0 }},
		{"FDivLat", func(c *cpu.Config) { c.FDivLat = -24 }},
		{"BranchPredictorBits -1", func(c *cpu.Config) { c.BranchPredictorBits = -1 }},
		{"BranchPredictorBits 17", func(c *cpu.Config) { c.BranchPredictorBits = 17 }},
		{"Hierarchy.L1D", func(c *cpu.Config) { c.Hierarchy.L1D.Sets = 3 }},
		{"Hierarchy.L1I", func(c *cpu.Config) { c.Hierarchy.L1I.LineSize = 0 }},
		{"Hierarchy.L2", func(c *cpu.Config) { c.Hierarchy.L2.Latency = 0 }},
		{"Hierarchy.L3", func(c *cpu.Config) { c.Hierarchy.L3.Ways = 0 }},
	}
	live, err := New(cpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		cfg := cpu.DefaultConfig()
		c.set(&cfg)
		if rig, err := New(cfg); rig != nil || err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("New with a bad %s: rig %v, err %v", c.field, rig != nil, err)
		}
		if err := live.Core.UpdateTiming(cfg); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("UpdateTiming with a bad %s: err %v", c.field, err)
		}
	}
	if err := live.Core.UpdateTiming(cpu.DefaultConfig()); err != nil {
		t.Errorf("UpdateTiming with the default config: %v", err)
	}
}

// A victim script whose regions and page tables take every physical
// frame installs; one page more is a parse error
// (victim.TestParseScriptErrors).
func TestInstallScriptFillingMemory(t *testing.T) {
	l, err := victim.ParseScript("full", ";; region big 0x400000 rw 16349\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	rig, err := New(cpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := rig.InstallVictim(l); err != nil {
		t.Fatal(err)
	}
	if got, want := rig.Phys.AllocatedFrames(), rig.Phys.Frames(); got != want {
		t.Errorf("install took %d of %d frames, want all of them", got, want)
	}
}

// Restore resolves the Victim and Monitor handles by PID; a checkpoint
// naming a process the restored table lacks is an error, not a rig
// with a nil handle.
func TestRestoreRejectsMissingPIDs(t *testing.T) {
	rig, _, _ := armed(t, 20)
	cp, err := rig.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	badVictim, badMonitor := *cp, *cp
	badVictim.VictimPID = 99
	badMonitor.MonitorPID = 99
	for name, bad := range map[string]*Checkpoint{"victim": &badVictim, "monitor": &badMonitor} {
		err := rig.Restore(bad)
		if err == nil || !strings.Contains(err.Error(), name+" pid 99 missing from restored process table") {
			t.Errorf("Restore with a missing %s pid = %v, want an error", name, err)
		}
	}
	if err := rig.Restore(cp); err != nil {
		t.Fatalf("Restore of the intact checkpoint: %v", err)
	}
}

// warm returns a rig that has run the control-flow victim under a
// replay recipe to completion, so its caches, TLBs, page tables and
// module state are populated, and a checkpoint of it.
func warm(b *testing.B) (*Rig, *Checkpoint) {
	rig, l, _ := armed(b, 4)
	l.Start(rig.Kernel, 0)
	if err := rig.Run(10_000_000); err != nil {
		b.Fatal(err)
	}
	cp, err := rig.Checkpoint()
	if err != nil {
		b.Fatal(err)
	}
	return rig, cp
}

var sink *Rig

// BenchmarkNew boots a platform and installs the control-flow victim:
// the set-up every verifier run pays before its first cycle.
func BenchmarkNew(b *testing.B) {
	l := victim.ControlFlowSecret(true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rig, err := New(cpu.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if err := rig.InstallVictim(l); err != nil {
			b.Fatal(err)
		}
		sink = rig
	}
}

// BenchmarkCheckpoint captures a warm control-flow rig.
func BenchmarkCheckpoint(b *testing.B) {
	rig, _ := warm(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rig.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRestore rewinds a live rig to a warm control-flow
// checkpoint: what a run forked from that checkpoint pays instead of
// BenchmarkNew.
func BenchmarkRestore(b *testing.B) {
	rig, cp := warm(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rig.Restore(cp); err != nil {
			b.Fatal(err)
		}
	}
}
