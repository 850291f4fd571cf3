package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"microscope/attack/defense"
	"microscope/attack/microscope"
	"microscope/attack/platform"
	"microscope/attack/victim"
	"microscope/sim/cpu"
	"microscope/sim/mem"
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

	// A restricted roster lists its picks in the order given, not the
	// roster's, and an unknown name fails naming the roster and the name.
	for _, tc := range []struct {
		opt TournamentOptions
		err string
	}{
		{TournamentOptions{Victims: []string{"loopsecret", "singlesecret"}, Defenses: []string{"fence", "none"}}, ""},
		{TournamentOptions{Victims: []string{"loopsecret", "nonesuch"}}, `unknown victim "nonesuch"`},
		{TournamentOptions{Defenses: []string{"none", "nonesuch"}}, `unknown defense "nonesuch"`},
	} {
		got, err := RunTournament(tc.opt)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("%+v: err = %v, want %s", tc.opt, err, tc.err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%+v: %v", tc.opt, err)
		}
		if !slices.Equal(got.Victims, tc.opt.Victims) || !slices.Equal(got.Defenses, tc.opt.Defenses) {
			t.Errorf("%+v: matrix lists victims %v and defenses %v", tc.opt, got.Victims, got.Defenses)
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

// breakRelease zeroes the leaf PTE of rec's handle page, as
// attack/microscope's failure test does: the recipe stays armed, and the
// release its fault handler attempts fails and halts the victim.
func breakRelease(t testing.TB, rig *platform.Rig, rec *microscope.Recipe) {
	t.Helper()
	steps, err := rig.Module.SoftWalk(rec.Victim, rec.Handle)
	if err != nil {
		t.Fatal(err)
	}
	rig.Phys.Write64(steps[mem.PTE].EntryAddr, 0)
}

// The TSX-abort and mispredict drives fail with the module's error
// instead of scoring a victim the fault handler halted as a finished
// run. A recipe on loopsecret's pivot page releases at its first fault
// and the release fails; the TSX drive reaches that fault once the
// wrap's abort budget runs out and the victim runs untracked.
func TestDrivesReportHandlerFailure(t *testing.T) {
	v, err := FindSanTarget("loopsecret")
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []string{"tsxabort", "mispredict"} {
		lay, err := v.Build()
		if err != nil {
			t.Fatal(err)
		}
		rig, err := platform.New(cpu.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := rig.InstallVictim(lay); err != nil {
			t.Fatal(err)
		}
		rec := &microscope.Recipe{Name: "broken", Victim: rig.Victim, Handle: lay.Sym("pivot"), MaxReplays: 1}
		if err := rig.Module.Install(rec); err != nil {
			t.Fatal(err)
		}
		breakRelease(t, rig, rec)
		res, err := driveHandle(rig, v, lay, h)
		if err == nil || !strings.Contains(err.Error(), "microscope: release failed") {
			t.Errorf("%s drive = %+v, %v; want the module's release failure", h, res, err)
		}
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

// tournSubsetJSON runs the tournSubset matrix on a core with the given
// fast-forward setting and worker count and returns its JSON.
func tournSubsetJSON(t *testing.T, fastForward bool, workers int) []byte {
	t.Helper()
	victims, defenses, err := tournSubset().rosters()
	if err != nil {
		t.Fatal(err)
	}
	cfg := cpu.DefaultConfig()
	cfg.FastForward = fastForward
	m, err := runTournamentMatrix(victims, defenses, cfg, workers)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTournamentWorkerInvariance: matrix bytes are identical whether
// trials run on one worker or many.
func TestTournamentWorkerInvariance(t *testing.T) {
	if !bytes.Equal(tournSubsetJSON(t, true, 1), tournSubsetJSON(t, true, 4)) {
		t.Error("matrix bytes depend on the worker count")
	}
}

// TestTournamentFastForwardInvariance: every drive runs on the rig
// loop, which skips the cycles in which no pipeline stage can act; with
// Config.FastForward off it steps every cycle. The matrix bytes must
// not depend on which.
func TestTournamentFastForwardInvariance(t *testing.T) {
	if !bytes.Equal(tournSubsetJSON(t, true, 2), tournSubsetJSON(t, false, 2)) {
		t.Error("matrix bytes depend on fast-forward")
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
// differential to every roster defense's core hook, the hooks that
// reach into the cycle engine: skip-on and skip-off runs must stay
// observationally identical with the hook active.
func TestDefenseHooksFastForwardEquivalence(t *testing.T) {
	for _, d := range defense.All() {
		if d.Core == nil {
			continue
		}
		d := d
		for _, sc := range ffDefenseScenarios() {
			sc := sc
			t.Run(d.Name+"/"+sc.name, func(t *testing.T) {
				t.Parallel()
				onCfg := ffJitterConfig()
				d.Core(&onCfg)
				onCfg.FastForward = true
				offCfg := ffJitterConfig()
				d.Core(&offCfg)
				offCfg.FastForward = false
				on := runFFScenario(t, sc, onCfg)
				off := runFFScenario(t, sc, offCfg)
				ffAssertEqual(t, on, off, " on", "off")
			})
		}
	}
}

// mutantTournVictim adapts a fuzz mutant into a tournament competitor,
// pairing each mutant family with its probe channel: the families with
// a probe page (loopsecret, modexp) transmit through it, the rest
// (singlesecret, controlflow, ctchain) through the divider.
func mutantTournVictim(sel uint8, a uint64, tail []byte) (SanTarget, bool) {
	lay, handleSym := mutantLayout(sel, a, tail)
	if lay == nil || lay.Sym(handleSym) == 0 {
		return SanTarget{}, false
	}
	pb := probe{kind: probePort}
	if _, ok := lay.Symbols["probe"]; ok {
		pb = probe{probeCache, "probe"}
	}
	return SanTarget{
		Name:   "mutant",
		Handle: handleSym,
		Build: func() (*victim.Layout, error) {
			l, _ := mutantLayout(sel, a, tail)
			return l, nil
		},
		probe: pb,
	}, true
}

// FuzzTournamentDeterminism runs a mini-tournament (one mutant victim,
// the undefended baseline plus one fuzz-chosen defense, all four handle
// classes) at two worker counts and with fast-forward off, and requires
// byte-identical matrices — and, implicitly, no panics anywhere in the
// drivers.
func FuzzTournamentDeterminism(f *testing.F) {
	f.Add(uint8(0), uint64(7), []byte{}, uint8(1))
	f.Add(uint8(1), uint64(1), []byte{}, uint8(3))
	f.Add(uint8(2), uint64(3), []byte{1, 4, 2}, uint8(5))
	f.Add(uint8(3), uint64(0x03050b07), []byte{}, uint8(7))
	// mutantLayout picks the family by sel%5: ctchain, and controlflow
	// at a sel whose residue mod 4 is a probe-page family's.
	f.Add(uint8(4), uint64(9), []byte{}, uint8(2))
	f.Add(uint8(86), uint64(3), []byte("0"), uint8(5))
	f.Fuzz(func(t *testing.T, sel uint8, a uint64, tail []byte, defSel uint8) {
		tv, ok := mutantTournVictim(sel, a, tail)
		if !ok {
			t.Skip("constructor rejected mutant")
		}
		roster := defense.All()
		defs := []defense.Defense{roster[0], roster[1+int(defSel)%(len(roster)-1)]}
		run := func(workers int, fastForward bool) []byte {
			cfg := cpu.DefaultConfig()
			cfg.FastForward = fastForward
			m, err := runTournamentMatrix([]SanTarget{tv}, defs, cfg, workers)
			if err != nil {
				t.Fatalf("workers=%d fast-forward=%t: %v", workers, fastForward, err)
			}
			b, err := m.JSON()
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		want := run(1, true)
		if !bytes.Equal(want, run(3, true)) {
			t.Errorf("mini-matrix bytes depend on worker count (sel=%d a=%#x def=%s)",
				sel, a, defs[1].Name)
		}
		if !bytes.Equal(want, run(1, false)) {
			t.Errorf("mini-matrix bytes depend on fast-forward (sel=%d a=%#x def=%s)",
				sel, a, defs[1].Name)
		}
	})
}

var tournSink *TournamentMatrix

// BenchmarkTournament runs the default matrix on one worker: the work of
// one msbench tournament unit without the sweep's parallelism, so
// allocs/op counts every allocation a cell makes.
func BenchmarkTournament(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := RunTournament(TournamentOptions{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		tournSink = m
	}
}
