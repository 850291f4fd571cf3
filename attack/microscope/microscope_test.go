package microscope

import (
	"fmt"
	"strings"
	"testing"

	"microscope/attack/victim"
	"microscope/sim/cache"
	"microscope/sim/cpu"
	"microscope/sim/kernel"
	"microscope/sim/mem"
	"microscope/sim/tlb"
)

// tlbTranslation builds a TLB entry for tests.
func tlbTranslation(va mem.Addr, pcid uint16) tlb.Translation {
	return tlb.Translation{VPN: mem.PageNum(va), PPN: 1, PCID: pcid}
}

type rig struct {
	k    *kernel.Kernel
	core *cpu.Core
	m    *Module
	proc *kernel.Process
}

func newRig(t *testing.T, cfg cpu.Config) *rig {
	t.Helper()
	phys := mem.NewPhysMem(64 << 20)
	core := cpu.NewCore(cfg, phys)
	k := kernel.New(kernel.DefaultConfig(), phys, core)
	m := NewModule(k)
	proc, err := k.NewProcess("victim")
	if err != nil {
		t.Fatal(err)
	}
	k.Schedule(0, proc)
	return &rig{k: k, core: core, m: m, proc: proc}
}

func (r *rig) install(t *testing.T, l *victim.Layout) {
	t.Helper()
	if err := l.Install(r.k, r.proc); err != nil {
		t.Fatal(err)
	}
}

// TestReplayCountAndRelease: the module keeps the victim replaying on the
// handle for MaxReplays faults of a single logical run, then releases it
// and the victim completes normally.
func TestReplayCountAndRelease(t *testing.T) {
	r := newRig(t, cpu.DefaultConfig())
	l := victim.ControlFlowSecret(true)
	r.install(t, l)

	rec := &Recipe{
		Name:       "basic",
		Victim:     r.proc,
		Handle:     l.Sym("handle"),
		MaxReplays: 20,
	}
	if err := r.m.Install(rec); err != nil {
		t.Fatal(err)
	}
	l.Start(r.k, 0)
	r.core.Run(10_000_000)
	if !r.core.Context(0).Halted() {
		t.Fatal("victim did not complete after release")
	}
	if rec.Replays() != 20 {
		t.Errorf("replays = %d, want 20", rec.Replays())
	}
	// Victim made forward progress exactly once.
	v, err := r.proc.AddressSpace().Read64Virt(l.Sym("out"))
	if err != nil || v != 1 {
		t.Errorf("victim result = %d, %v", v, err)
	}
	// The div side executed speculatively during every replay window:
	// ~2 divider occupancies per replay.
	minBusy := uint64(20) * 2 * uint64(r.core.Config().FDivLat)
	if got := r.core.Ports().DivBusyCycles; got < minBusy {
		t.Errorf("DivBusyCycles = %d, want >= %d", got, minBusy)
	}
}

// TestDenoiseControlFlowSecret runs the whole §4.3-style attack twice
// (secret=0, secret=1) and distinguishes the two via divider occupancy
// accumulated over replays — the denoising claim in miniature.
func TestDenoiseControlFlowSecret(t *testing.T) {
	run := func(secret bool) uint64 {
		r := newRig(t, cpu.DefaultConfig())
		l := victim.ControlFlowSecret(secret)
		r.install(t, l)
		rec := &Recipe{
			Name:       "denoise",
			Victim:     r.proc,
			Handle:     l.Sym("handle"),
			MaxReplays: 50,
		}
		if err := r.m.Install(rec); err != nil {
			t.Fatal(err)
		}
		l.Start(r.k, 0)
		r.core.Run(20_000_000)
		return r.core.Ports().DivBusyCycles
	}
	mulBusy := run(false)
	divBusy := run(true)
	if divBusy < 50*48 {
		t.Errorf("div-side divider busy = %d, want >= %d", divBusy, 50*48)
	}
	if mulBusy != 0 {
		t.Errorf("mul-side divider busy = %d, want 0", mulBusy)
	}
}

// TestWalkLevelTuning: more levels flushed -> longer page walks observed
// by the handle load (§4.1.2: a few cycles to over one thousand).
func TestWalkLevelTuning(t *testing.T) {
	walkOf := func(levels int) int {
		r := newRig(t, cpu.DefaultConfig())
		l := victim.ControlFlowSecret(false)
		r.install(t, l)
		var walk int
		rec := &Recipe{
			Name:       "walk",
			Victim:     r.proc,
			Handle:     l.Sym("handle"),
			WalkLevels: levels,
			MaxReplays: 1,
		}
		if err := r.m.Install(rec); err != nil {
			t.Fatal(err)
		}
		// Measure fault delivery time relative to victim start: the walk
		// duration dominates it.
		l.Start(r.k, 0)
		start := r.core.Cycle()
		r.core.RunUntil(func() bool { return rec.Replays() >= 1 }, 10_000_000)
		walk = int(r.core.Cycle() - start)
		return walk
	}
	short := walkOf(1)
	long := walkOf(4)
	if long <= short+300 {
		t.Errorf("walk tuning ineffective: levels=1 -> %d cycles, levels=4 -> %d", short, long)
	}
}

// TestProbe: NewProbe resolves a line on a page whose present bit is
// clear, fails naming the first line without a translation, and the
// probe's reads and flushes allocate nothing.
func TestProbe(t *testing.T) {
	r := newRig(t, cpu.DefaultConfig())
	l := victim.LoopSecret([]byte{1})
	r.install(t, l)
	base := l.Sym("probe") // a one-page region
	pa, err := r.proc.AddressSpace().Translate(base + 128)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.proc.AddressSpace().SetPresent(base, false); err != nil {
		t.Fatal(err)
	}
	p, err := r.m.NewProbe(r.proc, []mem.Addr{base, base + 64, base + 128})
	if err != nil {
		t.Fatal(err)
	}
	p.FlushAll()
	r.core.Hierarchy().WarmTo(pa, cache.LevelL2)
	if hot, lvl := p.Hot(), p.Level(2); hot != 0b100 || lvl != cache.LevelL2 {
		t.Errorf("after warming line 2 to L2: Hot() = %03b, Level(2) = %s; want 100, L2", hot, lvl)
	}
	p.Flush(2)
	if hot := p.Hot(); hot != 0 {
		t.Errorf("after Flush(2): Hot() = %03b, want 0", hot)
	}
	if n := testing.AllocsPerRun(100, func() {
		p.Hot()
		p.Level(1)
		p.Flush(0)
		p.FlushAll()
	}); n != 0 {
		t.Errorf("a sample allocates %v times, want 0", n)
	}

	end := base + mem.PageSize
	_, err = r.m.NewProbe(r.proc, []mem.Addr{base, end, end + mem.PageSize})
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%#x", end)) {
		t.Errorf("NewProbe past the region: error %v, want one naming %#x", err, end)
	}
}

// TestLoopSecretPivotExtraction mounts the full Loop Secret attack of
// §4.2.2: alternate handle and pivot faults walk the victim loop one
// iteration at a time; cache probing between replays recovers every
// per-iteration secret of a single logical run, without noise.
func TestLoopSecretPivotExtraction(t *testing.T) {
	secrets := []byte{3, 17, 9, 60, 3, 42, 0, 25}
	want := make([]int, len(secrets))
	for i, s := range secrets {
		want[i] = int(s) % 64
	}

	cfg := cpu.DefaultConfig()
	// A small ROB bounds the speculative window to roughly one loop
	// iteration — the walk-duration tuning of §4.2.2 achieves the same
	// "one transmission per replay" effect on real hardware.
	cfg.ROBSize = 12
	r := newRig(t, cfg)
	l := victim.LoopSecret(secrets)
	r.install(t, l)

	probeBase := l.Sym("probe")
	probeLines := make([]mem.Addr, 64)
	for i := range probeLines {
		probeLines[i] = probeBase + mem.Addr(i)*64
	}
	probe, err := r.m.NewProbe(r.proc, probeLines)
	if err != nil {
		t.Fatal(err)
	}

	var got []int
	rec := &Recipe{
		Name:   "loopsecret",
		Victim: r.proc,
		Handle: l.Sym("handle"),
		Pivot:  l.Sym("pivot"),
	}
	rec.OnReplay = func(ev Event) Decision {
		if ev.OnPivot {
			return Pivot // swap roles back; next iteration faults on handle
		}
		if ev.Replays == 1 {
			// First fault of this iteration: prime the probe array, then
			// replay once so the transmit re-executes into a clean cache.
			probe.FlushAll()
			return Replay
		}
		// Second fault: the window re-executed the transmit. Probe.
		line := -1
		for i := range probe.Len() {
			if probe.Level(i) != cache.LevelMem {
				if line != -1 {
					t.Fatalf("iteration %d: multiple probe lines hot (%d and %d)", len(got), line, i)
				}
				line = i
			}
		}
		if line == -1 {
			t.Fatalf("iteration %d: no probe line hot", len(got))
		}
		got = append(got, line)
		if len(got) == len(secrets) {
			return Release
		}
		return Pivot
	}
	if err := r.m.Install(rec); err != nil {
		t.Fatal(err)
	}
	l.Start(r.k, 0)
	r.core.Run(50_000_000)
	if !r.core.Context(0).Halted() {
		t.Fatal("victim did not complete")
	}
	if len(got) != len(want) {
		t.Fatalf("extracted %d secrets, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("secret[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestUserAPITable2 exercises the five Table 2 operations end to end.
func TestUserAPITable2(t *testing.T) {
	r := newRig(t, cpu.DefaultConfig())
	l := victim.LoopSecret([]byte{1, 2})
	r.install(t, l)

	u := r.m.User(r.proc)
	u.ProvideReplayHandle(l.Sym("handle"))
	u.ProvidePivot(l.Sym("pivot"))
	u.ProvideMonitorAddr(l.Sym("probe"))
	u.ProvideMonitorAddr(l.Sym("probe") + 64)
	if err := u.InitiatePageWalk(l.Sym("probe"), 2); err != nil {
		t.Fatal(err)
	}
	rec := u.Recipe()
	rec.MaxReplays = 3
	if err := u.Activate(); err != nil {
		t.Fatal(err)
	}
	if len(rec.MonitorAddrs) != 2 {
		t.Errorf("monitor addrs = %d", len(rec.MonitorAddrs))
	}
	l.Start(r.k, 0)
	r.core.Run(20_000_000)
	if rec.Replays() < 3 {
		t.Errorf("replays = %d, want >= 3", rec.Replays())
	}
	if !r.core.Context(0).Halted() {
		t.Error("victim did not finish")
	}
}

func TestUserAPIRequiresHandle(t *testing.T) {
	r := newRig(t, cpu.DefaultConfig())
	u := r.m.User(r.proc)
	if err := u.Activate(); err == nil {
		t.Error("Activate without handle succeeded")
	}
}

func TestInstallValidation(t *testing.T) {
	r := newRig(t, cpu.DefaultConfig())
	l := victim.LoopSecret([]byte{1})
	r.install(t, l)
	if err := r.m.Install(&Recipe{Name: "novictim", Handle: l.Sym("handle")}); err == nil {
		t.Error("recipe without victim accepted")
	}
	if err := r.m.Install(&Recipe{
		Name: "samepage", Victim: r.proc,
		Handle: l.Sym("handle"), Pivot: l.Sym("handle") + 8,
	}); err == nil {
		t.Error("pivot on handle page accepted")
	}
	if err := r.m.Install(&Recipe{
		Name: "badwalk", Victim: r.proc,
		Handle: l.Sym("handle"), WalkLevels: 7,
	}); err == nil {
		t.Error("walk levels 7 accepted")
	}
}

func TestRemoveRestoresPresent(t *testing.T) {
	r := newRig(t, cpu.DefaultConfig())
	l := victim.LoopSecret([]byte{1})
	r.install(t, l)
	rec := &Recipe{Name: "rm", Victim: r.proc, Handle: l.Sym("handle"), Pivot: l.Sym("pivot")}
	if err := r.m.Install(rec); err != nil {
		t.Fatal(err)
	}
	if _, err := r.proc.AddressSpace().Translate(l.Sym("handle")); err == nil {
		t.Fatal("handle still translates after arming")
	}
	if err := r.m.Remove(rec); err != nil {
		t.Fatal(err)
	}
	if _, err := r.proc.AddressSpace().Translate(l.Sym("handle")); err != nil {
		t.Errorf("handle does not translate after Remove: %v", err)
	}
	if err := r.m.Remove(rec); err == nil {
		t.Error("double Remove succeeded")
	}
}

func TestSoftWalkToleratesArmedLeaf(t *testing.T) {
	r := newRig(t, cpu.DefaultConfig())
	l := victim.LoopSecret([]byte{1})
	r.install(t, l)
	if _, err := r.proc.AddressSpace().SetPresent(l.Sym("handle"), false); err != nil {
		t.Fatal(err)
	}
	steps, err := r.m.SoftWalk(r.proc, l.Sym("handle"))
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != mem.Levels {
		t.Errorf("soft walk returned %d steps", len(steps))
	}
	if steps[mem.PTE].Entry.Present() {
		t.Error("leaf unexpectedly present")
	}
}

func TestSignalWord(t *testing.T) {
	r := newRig(t, cpu.DefaultConfig())
	l := victim.LoopSecret([]byte{1})
	r.install(t, l)
	s, err := r.m.NewSignalWord(r.proc, l.Sym("probe"))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.m.Set(s, SignalStart); err != nil {
		t.Fatal(err)
	}
	v, err := r.m.Get(s)
	if err != nil || v != SignalStart {
		t.Errorf("signal = %d, %v", v, err)
	}
	if _, err := r.m.NewSignalWord(r.proc, 0xdead_0000); err == nil {
		t.Error("signal word on unmapped page accepted")
	}
}

func TestTimelineRecordsFig3Sequence(t *testing.T) {
	r := newRig(t, cpu.DefaultConfig())
	l := victim.ControlFlowSecret(false)
	r.install(t, l)
	rec := &Recipe{Name: "tl", Victim: r.proc, Handle: l.Sym("handle"), MaxReplays: 3}
	if err := r.m.Install(rec); err != nil {
		t.Fatal(err)
	}
	l.Start(r.k, 0)
	r.core.Run(10_000_000)
	evs := r.m.Timeline()
	var kinds []TimelineKind
	for _, ev := range evs {
		kinds = append(kinds, ev.Kind)
	}
	// setup, fault+replay ×2, fault+release.
	want := []TimelineKind{EvSetup, EvHandleFault, EvReplay, EvHandleFault, EvReplay, EvHandleFault, EvRelease}
	if len(kinds) != len(want) {
		t.Fatalf("timeline = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("timeline[%d] = %s, want %s", i, kinds[i], want[i])
		}
	}
	if FormatTimeline(evs) == "" {
		t.Error("empty formatted timeline")
	}
	r.m.ClearTimeline()
	if len(r.m.Timeline()) != 0 {
		t.Error("ClearTimeline did not clear")
	}
}

// TestUnloadStopsInterception: after Unload, faults take the default
// kernel path (present restored by the kernel, one minor fault).
func TestUnloadStopsInterception(t *testing.T) {
	r := newRig(t, cpu.DefaultConfig())
	l := victim.ControlFlowSecret(false)
	r.install(t, l)
	rec := &Recipe{Name: "un", Victim: r.proc, Handle: l.Sym("handle"), MaxReplays: 100}
	if err := r.m.Install(rec); err != nil {
		t.Fatal(err)
	}
	r.m.Unload()
	l.Start(r.k, 0)
	r.core.Run(10_000_000)
	if !r.core.Context(0).Halted() {
		t.Fatal("victim did not finish")
	}
	if rec.Replays() != 0 {
		t.Errorf("module intercepted %d faults after unload", rec.Replays())
	}
	if got := r.core.Context(0).Stats().PageFaults; got != 1 {
		t.Errorf("page faults = %d, want 1 (kernel minor-fault path)", got)
	}
}

func TestOpsFlushAndInvalidate(t *testing.T) {
	r := newRig(t, cpu.DefaultConfig())
	l := victim.LoopSecret([]byte{1})
	r.install(t, l)
	va := l.Sym("probe")

	steps, err := r.m.SoftWalk(r.proc, va)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the PT entry lines into the cache.
	for _, s := range steps {
		r.core.Hierarchy().Access(s.EntryAddr)
	}
	if err := r.m.FlushTranslationPath(r.proc, va); err != nil {
		t.Fatal(err)
	}
	for _, s := range steps {
		if _, lvl := r.core.Hierarchy().Probe(s.EntryAddr); lvl != cache.LevelMem {
			t.Errorf("PT entry %#x still cached at %s", s.EntryAddr, lvl)
		}
	}

	// InvalidateTLB drops a warm translation.
	pcid := r.proc.AddressSpace().PCID()
	r.core.TLBs().InsertData(tlbTranslation(va, pcid))
	r.m.InvalidateTLB(r.proc, va)
	if _, lvl := r.core.TLBs().LookupData(mem.PageNum(va), pcid); lvl != 0 {
		t.Error("translation survived InvalidateTLB")
	}
}

func TestUserAPIInitiatePageFault(t *testing.T) {
	r := newRig(t, cpu.DefaultConfig())
	l := victim.LoopSecret([]byte{1, 2})
	r.install(t, l)
	u := r.m.User(r.proc)
	u.Recipe().MaxReplays = 2
	if err := u.InitiatePageFault(l.Sym("handle")); err != nil {
		t.Fatal(err)
	}
	// The page must now be non-present.
	if _, err := r.proc.AddressSpace().Translate(l.Sym("handle")); err == nil {
		t.Error("handle still translates after InitiatePageFault")
	}
	l.Start(r.k, 0)
	r.core.Run(20_000_000)
	if u.Recipe().Replays() != 2 {
		t.Errorf("replays = %d", u.Recipe().Replays())
	}
}

func TestPivotReleaseDecision(t *testing.T) {
	// Release on a pivot fault must restore the pivot and stand down.
	r := newRig(t, cpu.DefaultConfig())
	l := victim.LoopSecret([]byte{1, 2, 3})
	r.install(t, l)
	rec := &Recipe{
		Name: "pr", Victim: r.proc,
		Handle: l.Sym("handle"), Pivot: l.Sym("pivot"),
	}
	sawPivot := false
	rec.OnReplay = func(ev Event) Decision {
		if ev.OnPivot {
			sawPivot = true
			return Release
		}
		return Pivot
	}
	if err := r.m.Install(rec); err != nil {
		t.Fatal(err)
	}
	l.Start(r.k, 0)
	r.core.Run(20_000_000)
	if !sawPivot {
		t.Fatal("pivot fault never seen")
	}
	if !r.core.Context(0).Halted() {
		t.Fatal("victim did not finish after pivot release")
	}
	if _, err := r.proc.AddressSpace().Translate(l.Sym("pivot")); err != nil {
		t.Error("pivot page not restored")
	}
}

func TestDecisionAndTimelineStrings(t *testing.T) {
	for _, d := range []Decision{Replay, Pivot, Release, Decision(99)} {
		if d.String() == "" {
			t.Errorf("Decision(%d) empty", d)
		}
	}
	for k := EvSetup; k <= EvHandleArm+1; k++ {
		if k.String() == "" {
			t.Errorf("TimelineKind(%d) empty", k)
		}
	}
}

func TestModuleKernelAccessor(t *testing.T) {
	r := newRig(t, cpu.DefaultConfig())
	if r.m.Kernel() != r.k {
		t.Error("Kernel() accessor wrong")
	}
}
