package cpu_test

import (
	"testing"

	"microscope/attack/microscope"
	"microscope/attack/monitor"
	"microscope/attack/platform"
	"microscope/attack/victim"
	"microscope/sim/cpu"
	"microscope/sim/cpu/cputest"
)

// The scheduler invariant: the issue stage trusts its ready lists and the
// load/store queues to be exact (an entry leaves them only by issuing
// from a ready list's front or retiring from a queue's front), so after
// every cycle they must equal what schedRebuild derives from the ROB.
// The generated programs cover forwarding, memory-order squashes,
// mispredicts and transactions; the SMT replay covers page-fault
// squashes, handler stalls and a monitor convoy behind the divider.

// runChecked runs core until it halts or maxCycles pass, checking the
// invariant before every Step (fast-forwarded cycles change nothing).
func runChecked(t *testing.T, name string, core *cpu.Core, maxCycles uint64) {
	t.Helper()
	chk := cpu.NewSchedChecker(core)
	var err error
	core.RunUntil(func() bool {
		err = chk.Check()
		return err != nil
	}, maxCycles)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !core.Halted() {
		t.Fatalf("%s: core did not halt within %d cycles", name, maxCycles)
	}
}

func TestSchedInvariantGenerated(t *testing.T) {
	var violations uint64
	for _, p := range genPrograms() {
		as, err := cputest.NewDataSpace(p.seed)
		if err != nil {
			t.Fatal(err)
		}
		core := cpu.NewCore(cpu.DefaultConfig(), as.Phys())
		core.Context(0).SetAddressSpace(as)
		core.Context(0).SetProgram(p.prog, 0)
		runChecked(t, p.name, core, 20_000_000)
		violations += core.Context(0).Stats().MemOrderViolations
	}
	if violations == 0 {
		t.Error("no memory-order violation: the invariant never saw a mid-pass squash")
	}
}

func TestSchedInvariantSMTReplay(t *testing.T) {
	cfg := cpu.DefaultConfig()
	cfg.JitterPeriod = 901
	cfg.JitterExtra = 150
	rig, err := platform.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vic := victim.ControlFlowSecret(true)
	if err := rig.InstallVictim(vic); err != nil {
		t.Fatal(err)
	}
	mon := monitor.PortContention(2000, 2)
	if err := rig.AddMonitor(mon); err != nil {
		t.Fatal(err)
	}
	rec := &microscope.Recipe{
		Name:           "schedcheck-controlflow-div",
		Victim:         rig.Victim,
		Handle:         vic.Sym("handle"),
		HandlerLatency: 2_000,
		OnReplay: func(microscope.Event) microscope.Decision {
			if rig.Core.Context(1).Halted() {
				return microscope.Release
			}
			return microscope.Replay
		},
	}
	if err := rig.Module.Install(rec); err != nil {
		t.Fatal(err)
	}
	vic.Start(rig.Kernel, 0)
	mon.Start(rig.Kernel, 1)
	runChecked(t, "controlflow-div", rig.Core, 5_000_000)
	if err := rig.Module.Err(); err != nil {
		t.Fatal(err)
	}
	if rec.Replays() == 0 {
		t.Error("no replay: the invariant never saw a fault squash")
	}
}
