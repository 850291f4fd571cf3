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

// A fault-handler failure halts the victim, so the core stops; Run must
// still report the failure instead of a finished run.
func TestRunReturnsModuleFailure(t *testing.T) {
	rig, l, rec := armed(t, 20)
	steps, err := rig.Module.SoftWalk(rig.Victim, rec.Handle)
	if err != nil {
		t.Fatal(err)
	}
	rig.Phys.Write64(steps[mem.PTE].EntryAddr, 0)
	l.Start(rig.Kernel, 0)
	err = rig.Run(1_000_000)
	if err == nil || !strings.Contains(err.Error(), "microscope: release failed") {
		t.Fatalf("Run = %v, want the module's release failure", err)
	}
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
