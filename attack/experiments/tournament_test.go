package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"microscope/attack/defense"
	"microscope/attack/victim"
	"microscope/sim/cpu"
)

// The full matrix is expensive (7 victims x 10 defenses x 5 runs), so
// every test that needs it shares one computation.
var (
	tournOnce   sync.Once
	tournMatrix *TournamentMatrix
	tournErr    error
)

func fullTournament(t *testing.T) *TournamentMatrix {
	t.Helper()
	tournOnce.Do(func() {
		tournMatrix, tournErr = RunTournament(TournamentOptions{})
	})
	if tournErr != nil {
		t.Fatal(tournErr)
	}
	return tournMatrix
}

// TestTournamentGolden gates the full matrix bytes against the
// committed golden file. Regenerate with: go test -run Golden -update
func TestTournamentGolden(t *testing.T) {
	m := fullTournament(t)
	got, err := m.JSON()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden_tournament.json")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden rewritten: %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("tournament matrix diverges from golden %s (rerun with -update after intended changes)", path)
	}
}

// TestTournamentShape checks the acceptance floor: at least 7 victims x
// 4 handles x 5 defenses including the undefended baseline, with a
// fully populated cell grid.
func TestTournamentShape(t *testing.T) {
	m := fullTournament(t)
	if len(m.Victims) < 7 || len(m.Handles) < 4 || len(m.Defenses) < 5 {
		t.Fatalf("matrix %dx%dx%d below the 7x4x5 floor",
			len(m.Victims), len(m.Handles), len(m.Defenses))
	}
	hasNone := false
	for _, d := range m.Defenses {
		if d == "none" {
			hasNone = true
		}
	}
	if !hasNone {
		t.Error("roster lacks the undefended baseline")
	}
	want := len(m.Victims) * len(m.Handles) * len(m.Defenses)
	if len(m.Cells) != want {
		t.Errorf("got %d cells, want %d", len(m.Cells), want)
	}
	if len(m.Controls) != len(m.Victims)*len(m.Defenses) {
		t.Errorf("got %d controls, want %d", len(m.Controls), len(m.Victims)*len(m.Defenses))
	}
	for _, v := range m.Victims {
		for _, h := range m.Handles {
			for _, d := range m.Defenses {
				if m.Cell(v, h, d) == nil {
					t.Fatalf("missing cell %s/%s/%s", v, h, d)
				}
			}
		}
	}
}

// TestTournamentAcceptance asserts the matrix's headline claims:
//
//  1. Zero false positives anywhere — in particular on the PROVEN-SAFE
//     constant-time control victim.
//  2. The undefended baseline page-fault attack leaks on every
//     transmitting victim.
//  3. Every defense except the two known-ineffective entries (none,
//     pfoblivious) either detects the baseline loopsecret page-fault
//     attack or delays it into harmlessness (at most one leaky window).
func TestTournamentAcceptance(t *testing.T) {
	m := fullTournament(t)
	for _, c := range m.Controls {
		if c.FalsePositive {
			t.Errorf("false positive: %s under %s", c.Victim, c.Defense)
		}
	}
	for _, v := range m.Victims {
		if v == "ctcontrol" {
			continue
		}
		c := m.Cell(v, "pagefault", "none")
		if c == nil || c.LeakWindows == 0 {
			t.Errorf("undefended page-fault attack on %s leaked nothing", v)
		}
	}
	for _, c := range m.Cells {
		if c.Victim == "ctcontrol" && c.LeakWindows > 0 {
			t.Errorf("constant-time control leaked under %s/%s", c.Handle, c.Defense)
		}
	}
	for _, d := range m.Defenses {
		if d == "none" || d == "pfoblivious" {
			continue
		}
		c := m.Cell("loopsecret", "pagefault", d)
		if c == nil {
			t.Fatalf("missing baseline cell for %s", d)
		}
		if !c.Detected && c.LeakWindows > 1 {
			t.Errorf("defense %s neither detected nor defused the baseline attack (%d leaky windows)",
				d, c.LeakWindows)
		}
	}
}

// TestTournamentExpectedAsymmetries pins the matrix's scientific
// content: each handle class evades exactly the defenses whose
// observation point it bypasses.
func TestTournamentExpectedAsymmetries(t *testing.T) {
	m := fullTournament(t)
	check := func(victimName, handle, def string, wantDetected bool, why string) {
		t.Helper()
		c := m.Cell(victimName, handle, def)
		if c == nil {
			t.Fatalf("missing cell %s/%s/%s", victimName, handle, def)
		}
		if c.Detected != wantDetected {
			t.Errorf("%s/%s/%s: Detected=%v, want %v (%s)",
				victimName, handle, def, c.Detected, wantDetected, why)
		}
	}
	// §7.2 selective replay releases at 4 leaky windows — under the
	// Jamais Vu (6), LEASH (6) and Déjà Vu (15k-cycle) budgets.
	check("loopsecret", "selective", "jamaisvu", false, "4 faults duck threshold 6")
	check("loopsecret", "selective", "leash", false, "4 faults duck the burst threshold")
	check("loopsecret", "selective", "dejavu", false, "10k stall cycles duck the 15k budget")
	// TSX aborts never reach the kernel: the OS-side observers are
	// blind even against an attacker forced through 40 windows. Jamais
	// Vu DOES see the in-pipeline squashes — but only bites when the
	// attacker needs more windows than its threshold: a leaking victim
	// is released after 4 aborts (evasion), the constant-time control
	// starves the probe into the 40-abort backstop (alarm).
	check("loopsecret", "tsxabort", "leash", false, "no kernel faults to burst-count")
	check("loopsecret", "tsxabort", "dejavu", false, "no handler stalls to clock")
	check("ctcontrol", "tsxabort", "leash", false, "40 aborts, still no kernel faults")
	check("ctcontrol", "tsxabort", "dejavu", false, "40 aborts, still no handler stalls")
	check("loopsecret", "tsxabort", "jamaisvu", false, "4 aborts duck threshold 6")
	check("ctcontrol", "tsxabort", "jamaisvu", true, "40 in-tx squashes of one PC")
	// Mispredict replay raises no fault at all: only fault-centric
	// detectors miss it, and Jamais Vu (fault-squash counters) is
	// fault-centric too — the documented limitation.
	check("loopsecret", "mispredict", "jamaisvu", false, "fault-centric counters miss branch squashes")
	check("loopsecret", "mispredict", "leash", false, "no faults")
	// The page-fault baseline is the case every detector handles.
	check("loopsecret", "pagefault", "jamaisvu", true, "10 same-PC fault squashes")
	check("loopsecret", "pagefault", "leash", true, "10-fault same-page burst")
	check("loopsecret", "pagefault", "dejavu", true, "25k stall cycles blow the budget")

	// Prevention-side: selective delay and invisible speculation close
	// the cache channel; invisible speculation leaves port contention
	// open (§8), which the port-probed victims demonstrate.
	for _, v := range []string{"loopsecret", "aes", "modexp", "rdrand"} {
		if c := m.Cell(v, "pagefault", "delay"); c != nil && c.LeakWindows > 0 {
			t.Errorf("%s/pagefault/delay: %d leaky windows, want 0", v, c.LeakWindows)
		}
		if c := m.Cell(v, "pagefault", "invisispec"); c != nil && c.LeakWindows > 0 {
			t.Errorf("%s/pagefault/invisispec: %d leaky windows, want 0", v, c.LeakWindows)
		}
	}
	if c := m.Cell("singlesecret", "pagefault", "invisispec"); c != nil && c.LeakWindows == 0 {
		t.Error("singlesecret/pagefault/invisispec: port channel should survive invisible speculation")
	}
	if c := m.Cell("singlesecret", "pagefault", "none"); c != nil && c.LeakWindows == 0 {
		t.Error("singlesecret/pagefault/none: port channel leaked nothing")
	}
	// SIMF scrubs the probe before the handler runs on every fault…
	if c := m.Cell("loopsecret", "pagefault", "simf"); c != nil && c.LeakWindows > 0 {
		t.Errorf("loopsecret/pagefault/simf: %d leaky windows, want 0", c.LeakWindows)
	}
	// …but never sees TSX-abort replays (no fault delivered to the OS).
	if c := m.Cell("loopsecret", "tsxabort", "simf"); c != nil && c.LeakWindows == 0 {
		t.Error("loopsecret/tsxabort/simf: abort windows should bypass the multi-flush")
	}
	// Mispredict replay needs conditional branches: straight-line
	// victims cannot be attacked that way.
	for _, v := range []string{"aes", "singlesecret", "rdrand", "ctcontrol"} {
		if c := m.Cell(v, "mispredict", "none"); c != nil && c.Mounted {
			t.Errorf("%s/mispredict mounted on straight-line code", v)
		}
	}
	for _, v := range []string{"loopsecret", "modexp", "controlflow"} {
		c := m.Cell(v, "mispredict", "none")
		if c == nil || !c.Mounted || c.Replays == 0 {
			t.Errorf("%s/mispredict: expected a mounted attack with replays, got %+v", v, c)
		}
	}

	// §8, T-SGX: page faults become aborts the OS never sees and the
	// enclave halts at its budget — detected, no replay delivered — but
	// the attacker's own abort-driven replay leaks undetected.
	if c := loopCell(t, m, "pagefault", "tsgx"); c.Replays != 0 || !c.Detected {
		t.Errorf("loopsecret/pagefault/tsgx: want 0 replays and detection, got %+v", c)
	}
	if c := loopCell(t, m, "tsxabort", "tsgx"); c.Detected || c.LeakWindows == 0 {
		t.Errorf("loopsecret/tsxabort/tsgx: want an undetected leak, got %+v", c)
	}
	// Déjà Vu flags the 10-replay attack only after its windows leaked,
	// and the selective attack ducks the clock while leaking.
	for _, h := range []string{"pagefault", "selective"} {
		if c := loopCell(t, m, h, "dejavu"); c.LeakWindows == 0 {
			t.Errorf("loopsecret/%s/dejavu: leaked nothing", h)
		}
	}
	// Fence-after-flush taxes benign flushes.
	if c := m.Control("loopsecret", "fence"); c == nil || c.OverheadPermille <= 0 {
		t.Errorf("loopsecret/fence control: want a positive overhead, got %+v", c)
	}
}

// loopCell returns the loopsecret cell of the full matrix for handle ×
// defense.
func loopCell(t *testing.T, m *TournamentMatrix, handle, def string) *TournamentCell {
	t.Helper()
	c := m.Cell("loopsecret", handle, def)
	if c == nil {
		t.Fatalf("missing cell loopsecret/%s/%s", handle, def)
	}
	return c
}

// The Fig. 12 handle classes, read off the undefended loopsecret cells.

// TestPageFaultHandleReplays: the page-fault handle replays exactly as
// often as the attacker asks, and every window leaks.
func TestPageFaultHandleReplays(t *testing.T) {
	c := loopCell(t, fullTournament(t), "pagefault", "none")
	if !c.Mounted || c.Replays != tournPFReplays || c.LeakWindows != c.Replays {
		t.Errorf("loopsecret/pagefault/none: want %d replays, all leaking, got %+v", tournPFReplays, c)
	}
}

// TestTSXAbortHandleReplays: transaction aborts replay the victim with
// no fault at all, and every abort window leaks.
func TestTSXAbortHandleReplays(t *testing.T) {
	c := loopCell(t, fullTournament(t), "tsxabort", "none")
	if !c.Mounted || c.Replays == 0 || c.LeakWindows != c.Replays {
		t.Errorf("loopsecret/tsxabort/none: want abort replays, all leaking, got %+v", c)
	}
}

// TestTSXAbortDefeatsFence: a fence does not stop TSX-abort replays,
// because the window is the whole transaction and the transmit retires
// inside it before each abort (§7.1).
func TestTSXAbortDefeatsFence(t *testing.T) {
	m := fullTournament(t)
	c := loopCell(t, m, "tsxabort", "fence")
	if want := loopCell(t, m, "tsxabort", "none").Replays; c.Replays != want {
		t.Errorf("loopsecret/tsxabort/fence: %d replays, want the undefended %d", c.Replays, want)
	}
	if c.LeakWindows == 0 {
		t.Error("loopsecret/tsxabort/fence: the fence stopped a TSX-abort replay")
	}
}

// TestMispredictHandleIsBounded: the mispredict handle leaks, but
// predictor training bounds its replays by the re-primes the attacker
// gets.
func TestMispredictHandleIsBounded(t *testing.T) {
	c := loopCell(t, fullTournament(t), "mispredict", "none")
	if !c.Mounted || c.LeakWindows == 0 || c.Replays == 0 || c.Replays > tournReprimes {
		t.Errorf("loopsecret/mispredict/none: want a mounted, leaking attack bounded by %d re-primes, got %+v",
			tournReprimes, c)
	}
}

// tournSubset is the reduced roster the invariance tests sweep: two
// victims (one cache-probed with every handle class applicable, one
// port-probed) across a detector, a preventer, an OS defense and the
// baseline — small enough to run twice, wide enough to cover all four
// drivers and all three defense layers.
func tournSubset() TournamentOptions {
	return TournamentOptions{
		Victims:  []string{"loopsecret", "controlflow"},
		Defenses: []string{"none", "jamaisvu", "delay", "leash", "tsgx"},
	}
}

// TestTournamentWorkerInvariance: matrix bytes are identical whether
// trials run on one worker or many.
func TestTournamentWorkerInvariance(t *testing.T) {
	opt1 := tournSubset()
	opt1.Workers = 1
	optN := tournSubset()
	optN.Workers = 4
	m1, err := RunTournament(opt1)
	if err != nil {
		t.Fatal(err)
	}
	mN, err := RunTournament(optN)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := m1.JSON()
	if err != nil {
		t.Fatal(err)
	}
	bN, err := mN.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, bN) {
		t.Error("matrix bytes depend on the worker count")
	}
}

// defenseHookCfgs are the per-defense core-config tweaks that reach
// into the cycle engine; each must preserve the fast-forward
// equivalence contract.
func defenseHookCfgs() []struct {
	name  string
	tweak func(*cpu.Config)
} {
	return []struct {
		name  string
		tweak func(*cpu.Config)
	}{
		{"jamaisvu", func(c *cpu.Config) { c.SquashThreshold = 6; c.SquashEpoch = 1_000_000 }},
		{"delay", func(c *cpu.Config) { c.DelaySpeculative = true }},
		{"fence", func(c *cpu.Config) { c.FenceAfterFlush = true }},
		{"invisispec", func(c *cpu.Config) { c.InvisibleSpeculation = true }},
	}
}

// ffDefenseScenarios is the differential subset: a loop victim, a
// divider victim (delay interacts with the FP port) and the RNG victim
// (per-window state advance).
func ffDefenseScenarios() []ffScenario {
	var out []ffScenario
	for _, sc := range ffScenarios() {
		switch sc.name {
		case "loopsecret", "singlesecret-subnormal", "rdrand-bias":
			out = append(out, sc)
		}
	}
	return out
}

// TestDefenseHooksFastForwardEquivalence extends the fast-forward
// differential to every defense config hook: skip-on and skip-off runs
// must stay observationally identical with the hook active.
func TestDefenseHooksFastForwardEquivalence(t *testing.T) {
	for _, dc := range defenseHookCfgs() {
		dc := dc
		for _, sc := range ffDefenseScenarios() {
			sc := sc
			t.Run(dc.name+"/"+sc.name, func(t *testing.T) {
				t.Parallel()
				onCfg := ffJitterConfig()
				dc.tweak(&onCfg)
				onCfg.FastForward = true
				offCfg := ffJitterConfig()
				dc.tweak(&offCfg)
				offCfg.FastForward = false
				on := runFFScenario(t, sc, onCfg)
				off := runFFScenario(t, sc, offCfg)
				ffAssertEqual(t, on, off, " on", "off")
			})
		}
	}
}

// mutantTournVictim adapts a fuzz mutant into a tournament competitor,
// pairing each mutant family with its probe channel.
func mutantTournVictim(sel uint8, a uint64, tail []byte) (tournVictim, bool) {
	lay, handleSym := mutantLayout(sel, a, tail)
	if lay == nil || lay.Sym(handleSym) == 0 {
		return tournVictim{}, false
	}
	tv := tournVictim{SanTarget: SanTarget{
		Name:   "mutant",
		Handle: handleSym,
		Build: func() (*victim.Layout, error) {
			l, _ := mutantLayout(sel, a, tail)
			return l, nil
		},
	}}
	switch sel % 4 {
	case 0, 1: // singlesecret, controlflow: divider transmitters
		tv.probe = probePort
	default: // loopsecret, modexp: probe-page transmitters
		tv.probe = probeCache
		tv.probeSym = "probe"
	}
	return tv, true
}

// FuzzTournamentDeterminism runs a mini-tournament (one mutant victim,
// the undefended baseline plus one fuzz-chosen defense, all four handle
// classes) at two worker counts and requires byte-identical matrices —
// and, implicitly, no panics anywhere in the drivers.
func FuzzTournamentDeterminism(f *testing.F) {
	f.Add(uint8(0), uint64(7), []byte{}, uint8(1))
	f.Add(uint8(1), uint64(1), []byte{}, uint8(3))
	f.Add(uint8(2), uint64(3), []byte{1, 4, 2}, uint8(5))
	f.Add(uint8(3), uint64(0x03050b07), []byte{}, uint8(7))
	f.Fuzz(func(t *testing.T, sel uint8, a uint64, tail []byte, defSel uint8) {
		tv, ok := mutantTournVictim(sel, a, tail)
		if !ok {
			t.Skip("constructor rejected mutant")
		}
		roster := defense.All()
		defs := []defense.Defense{roster[0], roster[1+int(defSel)%(len(roster)-1)]}
		handles := TournamentHandles()
		run := func(workers int) []byte {
			m, err := runTournamentMatrix([]tournVictim{tv}, defs, handles,
				cpu.DefaultConfig(), workers)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			b, err := m.JSON()
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		if !bytes.Equal(run(1), run(3)) {
			t.Errorf("mini-matrix bytes depend on worker count (sel=%d a=%#x def=%s)",
				sel, a, defs[1].Name())
		}
	})
}
