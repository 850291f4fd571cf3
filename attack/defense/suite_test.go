package defense_test

import (
	"testing"

	"microscope/attack/defense"
	"microscope/attack/experiments"
	"microscope/attack/microscope"
	"microscope/attack/platform"
	"microscope/attack/victim"
	"microscope/sim/cache"
	"microscope/sim/cpu"
	"microscope/sim/isa"
	"microscope/sim/kernel"
	"microscope/sim/mem"
)

const (
	handleVA     mem.Addr = 0x0040_0000
	probeVA      mem.Addr = 0x0041_0000
	benignDataVA mem.Addr = 0x0060_0000
	rw                    = mem.FlagUser | mem.FlagWritable
)

// leakVictim is a handle-then-transmit victim: it loads the handle page,
// then the given cache line of the probe page.
func leakVictim(line int64) *victim.Layout {
	return &victim.Layout{
		Name: "leak",
		Prog: isa.NewBuilder().
			MovImm(isa.R1, int64(handleVA)).
			MovImm(isa.R2, int64(probeVA)).
			Load(isa.R3, isa.R1, 0).       // handle
			Load(isa.R4, isa.R2, 64*line). // transmit
			Halt().MustBuild(),
		Regions: []victim.Region{
			{Name: "handle", VA: handleVA, Size: mem.PageSize, Flags: rw},
			{Name: "probe", VA: probeVA, Size: mem.PageSize, Flags: rw},
		},
	}
}

// defended boots a rig with d active at all three layers — core config,
// victim hardening, kernel hooks — and l, hardened by d, installed.
func defended(t *testing.T, d defense.Defense, l *victim.Layout) (*platform.Rig, *victim.Layout) {
	t.Helper()
	cfg := cpu.DefaultConfig()
	d.Configure(&cfg)
	rig, err := platform.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hardened, err := d.Harden(l)
	if err != nil {
		t.Fatal(err)
	}
	if err := rig.InstallVictim(hardened); err != nil {
		t.Fatal(err)
	}
	if err := d.Install(rig.Kernel, rig.Victim); err != nil {
		t.Fatal(err)
	}
	return rig, hardened
}

// prober flushes the cache line at va and returns a sampler reporting
// whether the line was touched since the previous sample, re-flushing
// it when it was.
func prober(t *testing.T, rig *platform.Rig, va mem.Addr) func() bool {
	t.Helper()
	pa, err := rig.Victim.AddressSpace().Translate(va)
	if err != nil {
		t.Fatal(err)
	}
	h := rig.Core.Hierarchy()
	h.FlushAddr(pa)
	return func() bool {
		if h.LevelOf(pa) == cache.LevelMem {
			return false
		}
		h.FlushAddr(pa)
		return true
	}
}

// attackResult is what one canonical attack produced: the defense's
// verdict, the replays delivered, and the replay windows whose transmit
// footprint the attacker observed.
type attackResult struct {
	verdict defense.Verdict
	replays int
	leaky   int
}

// runCanonicalAttack mounts the baseline §5 page-fault replay attack
// against leakVictim(0) with d active, releasing after the given number
// of replays at the given handler latency.
func runCanonicalAttack(t *testing.T, d defense.Defense, replays int, latency uint64) attackResult {
	t.Helper()
	rig, hardened := defended(t, d, leakVictim(0))
	hot := prober(t, rig, probeVA)
	var res attackResult
	rec := &microscope.Recipe{
		Name: "canonical", Victim: rig.Victim, Handle: handleVA,
		HandlerLatency: latency, MaxReplays: replays,
	}
	rec.OnReplay = func(ev microscope.Event) microscope.Decision {
		res.replays = ev.Replays
		if hot() {
			res.leaky++
		}
		if ev.Replays >= replays {
			return microscope.Release
		}
		return microscope.Replay
	}
	if err := rig.Module.Install(rec); err != nil {
		t.Fatal(err)
	}
	hardened.Start(rig.Kernel, 0)
	if err := rig.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
	res.verdict = d.Verdict(rig.Kernel, rig.Core, rig.Victim, 0)
	return res
}

// TestDefenseRosterVsCanonicalReplay runs every roster defense against
// the same 8-replay page-fault attack and checks the expected outcome:
// detectors fire, preventers starve the channel, and the two known-weak
// schemes (none, pfoblivious) do neither.
func TestDefenseRosterVsCanonicalReplay(t *testing.T) {
	const replays = 8
	tests := []struct {
		name     string
		detect   bool
		minLeaky int // -1: don't check
		maxLeaky int // -1: don't check
	}{
		// Undefended baseline: nearly every window leaks.
		{"none", false, replays - 2, -1},
		// Jamais Vu: 8 squashes of one PC crosses threshold 6.
		{"jamaisvu", true, -1, -1},
		// Selective delay: the transmit never issues speculatively.
		{"delay", false, -1, 0},
		// LEASH: an 8-fault same-page burst trips the throttle.
		{"leash", true, -1, -1},
		// SIMF: the flush lands before the attacker's probe.
		{"simf", false, -1, 0},
		// Déjà Vu: 8 × 2500 handler cycles blows the 15k stall budget.
		{"dejavu", true, -1, -1},
		// T-SGX: in-tx faults become aborts; 8 aborts hits the budget.
		{"tsgx", true, -1, -1},
		// PF-obliviousness neither detects nor prevents (§8).
		{"pfoblivious", false, -1, -1},
		// Fence-after-flush: only the pre-flush first window may leak.
		{"fence", false, -1, 1},
		// Invisible speculation closes the cache channel entirely.
		{"invisispec", false, -1, 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			d := defense.Find(tc.name)
			if d == nil {
				t.Fatalf("defense %q not in roster", tc.name)
			}
			res := runCanonicalAttack(t, d, replays, 2_500)
			if res.verdict.Detected != tc.detect {
				t.Errorf("Detected = %v, want %v (counters %v)",
					res.verdict.Detected, tc.detect, res.verdict.Counters)
			}
			if tc.minLeaky >= 0 && res.leaky < tc.minLeaky {
				t.Errorf("leaky windows = %d, want >= %d", res.leaky, tc.minLeaky)
			}
			if tc.maxLeaky >= 0 && res.leaky > tc.maxLeaky {
				t.Errorf("leaky windows = %d, want <= %d", res.leaky, tc.maxLeaky)
			}
		})
	}
}

// TestDefenseRosterSilentOnConstantTime runs every defense over the
// PROVEN-SAFE constant-time control victim with no attack mounted: none
// may report a detection (the tournament's false-positive gate).
func TestDefenseRosterSilentOnConstantTime(t *testing.T) {
	for _, d := range defense.All() {
		t.Run(d.Name(), func(t *testing.T) {
			rig, hardened := defended(t, d, victim.ConstantTime())
			hardened.Start(rig.Kernel, 0)
			if err := rig.Run(50_000_000); err != nil {
				t.Fatal(err)
			}
			if v := d.Verdict(rig.Kernel, rig.Core, rig.Victim, 0); v.Detected {
				t.Errorf("false positive on benign run (counters %v)", v.Counters)
			}
		})
	}
}

// TestDefenseEpochReset checks that the stateful detectors forget: a
// Jamais Vu epoch shorter than the replay cadence clears the squash
// counters between faults, and a LEASH window shorter than the handler
// latency never accumulates a burst. Both must stay silent against an
// attack their default configurations catch.
func TestDefenseEpochReset(t *testing.T) {
	res := runCanonicalAttack(t, &defense.JamaisVu{Threshold: 6, Epoch: 200}, 8, 2_500)
	if res.verdict.Detected {
		t.Errorf("jamaisvu: epoch-cleared counters still alarmed (counters %v)", res.verdict.Counters)
	}
	res = runCanonicalAttack(t,
		&defense.Leash{Config: kernel.LeashConfig{Window: 900, Faults: 4, Penalty: 10_000}},
		8, 2_500)
	if res.verdict.Detected {
		t.Errorf("leash: burst outside the window still tripped (counters %v)", res.verdict.Counters)
	}
}

// benignLayout is a branchy, store-heavy, fault-free loop used to
// measure each defense's overhead on non-attack code. All regions are
// eagerly mapped, so T-SGX's transaction never aborts and the kernel
// defenses see no faults; what remains is each defense's steady-state
// pipeline tax.
func benignLayout() *victim.Layout {
	prog := isa.NewBuilder().
		MovImm(isa.R1, 2000).
		MovImm(isa.R2, int64(benignDataVA)).
		MovImm(isa.R3, 0).
		Label("loop").
		AndImm(isa.R4, isa.R1, 3).
		Beq(isa.R4, isa.R0, "skip"). // taken every 4th iteration
		AddImm(isa.R3, isa.R3, 1).
		Label("skip").
		ShlImm(isa.R5, isa.R1, 4).
		AndImm(isa.R5, isa.R5, 0x7ff8).
		Add(isa.R5, isa.R5, isa.R2).
		Store(isa.R3, isa.R5, 0).
		Load(isa.R6, isa.R5, 0).
		AddImm(isa.R1, isa.R1, -1).
		Bne(isa.R1, isa.R0, "loop").
		Halt().MustBuild()
	return &victim.Layout{
		Name: "benign",
		Prog: prog,
		Regions: []victim.Region{
			{Name: "data", VA: benignDataVA, Size: 8 * mem.PageSize, Flags: rw},
		},
	}
}

func benignCyclesUnder(t *testing.T, d defense.Defense) uint64 {
	t.Helper()
	rig, hardened := defended(t, d, benignLayout())
	hardened.Start(rig.Kernel, 0)
	if err := rig.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	return rig.Core.Cycle()
}

// TestDefenseRosterBoundedOverhead bounds every defense's slowdown on
// the benign workload at 3x the undefended baseline — the tournament
// reports the exact permille figures; this test just keeps a regression
// from making a defense pathologically expensive.
func TestDefenseRosterBoundedOverhead(t *testing.T) {
	base := benignCyclesUnder(t, defense.Find("none"))
	if base == 0 {
		t.Fatal("baseline ran in zero cycles")
	}
	for _, d := range defense.All() {
		t.Run(d.Name(), func(t *testing.T) {
			cycles := benignCyclesUnder(t, d)
			permille := (int64(cycles) - int64(base)) * 1000 / int64(base)
			t.Logf("overhead: %d permille (%d -> %d cycles)", permille, base, cycles)
			if cycles > 3*base {
				t.Errorf("overhead %d permille exceeds 3x baseline", permille)
			}
		})
	}
}

// TestRosterNamesUniqueAndFindable guards the matrix keys: every roster
// defense has a distinct, Find-able name.
func TestRosterNamesUniqueAndFindable(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range defense.All() {
		n := d.Name()
		if seen[n] {
			t.Errorf("duplicate defense name %q", n)
		}
		seen[n] = true
		if defense.Find(n) == nil {
			t.Errorf("Find(%q) = nil", n)
		}
	}
	if defense.Find("nonesuch") != nil {
		t.Error("Find(nonesuch) should be nil")
	}
}

// T-SGX (§8) runs the victim in a transaction whose abort handler halts
// at the budget: with the handle armed, every fault becomes an abort
// the OS never sees, and the enclave shuts down once the budget is
// spent — but each retry before that replays the transmit, "N−1
// replays" the attacker observes passively.
func TestTSGXHidesFaultsButAllowsNMinus1Replays(t *testing.T) { checkTSGX(t, 10) }

func TestTSGXSmallBudget(t *testing.T) { checkTSGX(t, 3) }

func checkTSGX(t *testing.T, budget int) {
	t.Helper()
	d := &defense.TSGX{Budget: budget}
	rig, hardened := defended(t, d, leakVictim(0))
	if _, err := rig.Victim.AddressSpace().SetPresent(handleVA, false); err != nil {
		t.Fatal(err)
	}
	rig.Kernel.Invlpg(rig.Victim, handleVA)
	hot := prober(t, rig, probeVA)
	hardened.Start(rig.Kernel, 0)
	ctx := rig.Core.Context(0)
	var aborts uint64
	leaks := 0
	for steps := 0; steps < 5_000_000 && !ctx.Halted(); steps++ {
		rig.Core.Step()
		if a := ctx.Stats().TxAborts; a != aborts {
			aborts = a
			if hot() {
				leaks++
			}
		}
	}
	if !ctx.Halted() {
		t.Fatal("T-SGX victim never halted")
	}
	if n := ctx.Stats().PageFaults; n != 0 {
		t.Errorf("OS saw %d faults; T-SGX must hide them", n)
	}
	// The handle stays armed, so only the exhausted budget ends the run.
	if aborts != uint64(budget) || !d.Verdict(rig.Kernel, rig.Core, rig.Victim, 0).Detected {
		t.Errorf("halted after %d aborts; want termination and detection at the budget %d", aborts, budget)
	}
	if leaks < budget-1 {
		t.Errorf("leak observations = %d, want >= %d", leaks, budget-1)
	}
}

// Déjà Vu (§8) clocks the victim's progress: 5 replays at a 5,000-cycle
// handler blow a budget that tolerates one ordinary demand fault — but
// only after the windows have leaked.
func TestDejaVuDetectsNaiveReplay(t *testing.T) {
	res := runCanonicalAttack(t, &defense.DejaVu{StallBudget: 10_000}, 5, 5_000)
	if !res.verdict.Detected {
		t.Errorf("5 replays at 5000-cycle handler not detected (counters %v)", res.verdict.Counters)
	}
	if res.leaky == 0 {
		t.Error("attack leaked nothing before detection")
	}
}

// The paper's bypass: keep the added delay within the budget the victim
// must tolerate for ordinary faults. Two fast replays fit under it and
// still leak.
func TestDejaVuEvadedByMaskedReplays(t *testing.T) {
	res := runCanonicalAttack(t, &defense.DejaVu{StallBudget: 10_000}, 2, 1_200)
	if res.verdict.Detected {
		t.Errorf("masked replays detected (counters %v)", res.verdict.Counters)
	}
	if res.leaky == 0 {
		t.Error("masked attack leaked nothing")
	}
	if res.replays != 2 {
		t.Errorf("replays = %d, want 2", res.replays)
	}
}

// PF-obliviousness (§8) pre-touches every data page, so the page-level
// trace stops depending on the secret (victim's
// TestWithPrefaceHidesPageSecret) — and every pre-touch is one more
// replay handle. With the handle page armed, the first fault is the
// preface's own load, and its window still carries the victim's
// same-page, line-granular secret to the attacker.
func TestPFObliviousnessHelpsTheAttacker(t *testing.T) {
	origLen := len(leakVictim(0).Prog.Instrs)
	for secret := int64(0); secret <= 1; secret++ {
		// Lines 1 and 2 carry the secret: the preface touches line 0.
		rig, hardened := defended(t, defense.PFOblivious{}, leakVictim(1+secret))
		hot := [2]func() bool{prober(t, rig, probeVA+64), prober(t, rig, probeVA+128)}
		firstFault := -1
		rig.Core.SetTracer(cpu.TracerFunc(func(ev cpu.Event) {
			if ev.Kind == cpu.EvFault && firstFault < 0 {
				firstFault = ev.PC
			}
		}))
		recovered := int64(-1)
		rec := &microscope.Recipe{Name: "pfobliv", Victim: rig.Victim, Handle: handleVA}
		rec.OnReplay = func(ev microscope.Event) microscope.Decision {
			hot0, hot1 := hot[0](), hot[1]()
			switch {
			case hot0 && !hot1:
				recovered = 0
			case hot1 && !hot0:
				recovered = 1
			}
			if recovered >= 0 || ev.Replays > 20 {
				return microscope.Release
			}
			return microscope.Replay
		}
		if err := rig.Module.Install(rec); err != nil {
			t.Fatal(err)
		}
		hardened.Start(rig.Kernel, 0)
		if err := rig.Run(50_000_000); err != nil {
			t.Fatal(err)
		}
		if firstFault < origLen {
			t.Errorf("secret %d: first fault at pc %d, want a preface load (pc >= %d)", secret, firstFault, origLen)
		}
		if recovered != secret {
			t.Errorf("secret %d: attacker recovered %d", secret, recovered)
		}
	}
}

// Fence-after-flush (§8): the first window is ordinary speculation and
// may leak, but every replay window after a flush is fenced — at the
// cost of serializing the benign workload's mispredict flushes too.
func TestFenceAfterFlushBlocksReplayWindows(t *testing.T) {
	if res := runCanonicalAttack(t, defense.Find("none"), 5, 2_500); res.leaky < 4 {
		t.Fatalf("baseline leaked in only %d windows; experiment broken", res.leaky)
	}
	if res := runCanonicalAttack(t, defense.Fence{}, 5, 2_500); res.leaky > 1 {
		t.Errorf("fence-after-flush left %d leaky windows, want <= 1", res.leaky)
	}
	base, fenced := benignCyclesUnder(t, defense.Find("none")), benignCyclesUnder(t, defense.Fence{})
	if fenced <= base {
		t.Errorf("no overhead measured: %d vs %d cycles", fenced, base)
	}
}

// Invisible speculation (§8) stops the cache channel but not port
// contention — "these protections do not address side channels on the
// other shared processor resources".
func TestInvisibleSpeculationPartialCoverage(t *testing.T) {
	if res := runCanonicalAttack(t, defense.Find("none"), 5, 2_500); res.leaky == 0 {
		t.Fatal("baseline cache attack leaked nothing; experiment broken")
	}
	if res := runCanonicalAttack(t, defense.InvisiSpec{}, 5, 2_500); res.leaky != 0 {
		t.Errorf("invisible speculation left %d leaky cache windows", res.leaky)
	}
	m, err := experiments.RunTournament(experiments.TournamentOptions{
		Workers:  1,
		Victims:  []string{"singlesecret"},
		Defenses: []string{"invisispec"},
		Handles:  []string{"pagefault"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if c := m.Cell("singlesecret", "pagefault", "invisispec"); c == nil || c.LeakWindows == 0 {
		t.Error("port channel should SURVIVE invisible speculation")
	}
}
