// The defense tournament: every built-in victim crossed with every
// replay-handle class and every roster defense (including the
// undefended baseline), on rigs forked from one warm checkpoint per
// victim. Each cell mounts the attack with the defense active at all
// three layers (core config, victim hardening, kernel hooks) and
// records what the attacker measured and what the defense reported; a
// control run per (victim, defense) with no attack mounted supplies the
// false-positive and overhead columns. The resulting matrix is
// byte-deterministic, independent of worker count (sweep.Run's indexed
// merge), so it gates as a committed golden file.
package experiments

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"microscope/analysis/sweep"
	"microscope/attack/defense"
	"microscope/attack/microscope"
	"microscope/attack/platform"
	"microscope/attack/victim"
	"microscope/sim/cache"
	"microscope/sim/cpu"
	"microscope/sim/mem"
)

// Tournament drive parameters. The page-fault recipe replays a fixed 10
// windows; the §7.2 selective recipe releases at 4 leaky windows
// (under the default Jamais Vu, LEASH and Déjà Vu budgets) with a
// 40-replay backstop when the defense starves its probe; the TSX and
// mispredict drives use the same 4/40 policy.
const (
	tournPFReplays       = 10
	tournSelectiveLeaks  = 4
	tournBackstopReplays = 40
	tournHandlerLatency  = 2500
	tournMaxCycles       = 50_000_000
	tournDriveMaxCycles  = 4_000_000
	tournReprimes        = 12
)

// TournamentHandles returns the replay-handle classes in matrix order.
func TournamentHandles() []string {
	return []string{"pagefault", "selective", "tsxabort", "mispredict"}
}

// probeKind selects the attacker's measurement channel for a victim.
type probeKind int

const (
	probeNone  probeKind = iota // control victim: nothing to measure
	probeCache                  // flush+reload of a probe page's lines
	probePort                   // divider-port occupancy deltas
)

// probe is the channel the tournament's attacker samples against one
// victim, declared in its SanTargets entry: cache-probed victims
// transmit through the page at a layout symbol, port-probed victims
// through divider occupancy, and the constant-time control through
// nothing at all.
type probe struct {
	kind probeKind
	sym  string // probeCache: the probe page's layout symbol
}

// TournamentOptions configures RunTournament.
type TournamentOptions struct {
	// Workers is the sweep worker count (<= 0: GOMAXPROCS). The matrix
	// bytes never depend on it.
	Workers int
	// Victims/Defenses, when non-empty, restrict the roster to the
	// named entries; the matrix lists them in the order given. Unknown
	// names are an error.
	Victims  []string
	Defenses []string
}

// rosters picks the victims and defenses opt names.
func (opt TournamentOptions) rosters() ([]SanTarget, []defense.Defense, error) {
	victims, err := pick("victim", SanTargets(), func(t SanTarget) string { return t.Name }, opt.Victims)
	if err != nil {
		return nil, nil, err
	}
	defenses, err := pick("defense", defense.All(), func(d defense.Defense) string { return d.Name }, opt.Defenses)
	if err != nil {
		return nil, nil, err
	}
	return victims, defenses, nil
}

// pick returns the entries of roster with the given names, in the
// order given, or the whole roster when names is empty. An unknown
// name is an error naming the roster.
func pick[T any](what string, roster []T, name func(T) string, names []string) ([]T, error) {
	if len(names) == 0 {
		return roster, nil
	}
	out := make([]T, 0, len(names))
	for _, n := range names {
		i := slices.IndexFunc(roster, func(t T) bool { return name(t) == n })
		if i < 0 {
			return nil, fmt.Errorf("tournament: unknown %s %q", what, n)
		}
		out = append(out, roster[i])
	}
	return out, nil
}

// TournamentCell is one (victim, handle, defense) attack run.
type TournamentCell struct {
	Victim  string `json:"victim"`
	Handle  string `json:"handle"`
	Defense string `json:"defense"`
	// Mounted is false when the handle class does not apply to the
	// victim (e.g. mispredict replay on straight-line code); the rest of
	// the row is then a defended-but-unattacked run.
	Mounted bool `json:"mounted"`
	// Replays counts the replay events the attacker induced (handle
	// faults, transaction aborts, or mispredict squashes).
	Replays int `json:"replays"`
	// LeakWindows counts replay windows whose probe sample was hot.
	LeakWindows int  `json:"leak_windows"`
	Detected    bool `json:"detected"`
	// Counters are the defense's own counters after the run.
	Counters map[string]uint64 `json:"counters,omitempty"`
	Cycles   uint64            `json:"cycles"`
}

// TournamentControl is the unattacked run of one (victim, defense):
// the defense's false-positive and overhead measurement.
type TournamentControl struct {
	Victim        string `json:"victim"`
	Defense       string `json:"defense"`
	FalsePositive bool   `json:"false_positive"`
	Cycles        uint64 `json:"cycles"`
	// OverheadPermille is this control's slowdown relative to the same
	// victim's undefended control, in parts per thousand.
	OverheadPermille int64 `json:"overhead_permille"`
}

// TournamentSummary aggregates one defense's column.
type TournamentSummary struct {
	Defense     string `json:"defense"`
	AttackCells int    `json:"attack_cells"`
	// DetectedPermille / LeakyPermille are over mounted attack cells.
	DetectedPermille int64 `json:"detected_permille"`
	LeakyPermille    int64 `json:"leaky_permille"`
	FalsePositives   int   `json:"false_positives"`
	// MeanOverheadPermille averages the per-victim control overheads.
	MeanOverheadPermille int64 `json:"mean_overhead_permille"`
}

// TournamentMatrix is the full cross-product result.
type TournamentMatrix struct {
	Schema    string              `json:"schema"`
	Victims   []string            `json:"victims"`
	Handles   []string            `json:"handles"`
	Defenses  []string            `json:"defenses"`
	Cells     []TournamentCell    `json:"cells"`
	Controls  []TournamentControl `json:"controls"`
	Summaries []TournamentSummary `json:"summaries"`
}

// JSON renders the matrix as stable, indented JSON with a trailing
// newline — the byte-exact golden format.
func (m *TournamentMatrix) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Cell returns the cell for (victim, handle, defense), or nil.
func (m *TournamentMatrix) Cell(victim, handle, def string) *TournamentCell {
	for i := range m.Cells {
		c := &m.Cells[i]
		if c.Victim == victim && c.Handle == handle && c.Defense == def {
			return c
		}
	}
	return nil
}

// Control returns the control row for (victim, defense), or nil.
func (m *TournamentMatrix) Control(victim, def string) *TournamentControl {
	for i := range m.Controls {
		c := &m.Controls[i]
		if c.Victim == victim && c.Defense == def {
			return c
		}
	}
	return nil
}

// Render formats the per-defense summary table plus a detection grid
// per handle class (D = detected, L = leaked undetected, . = clean,
// "-" = not mounted) for human consumption.
func (m *TournamentMatrix) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "defense tournament: %d victims x %d handles x %d defenses\n\n",
		len(m.Victims), len(m.Handles), len(m.Defenses))
	fmt.Fprintf(&sb, "%-12s %8s %8s %6s %9s\n",
		"defense", "detect‰", "leaky‰", "FPs", "overhead‰")
	for _, s := range m.Summaries {
		fmt.Fprintf(&sb, "%-12s %8d %8d %6d %9d\n",
			s.Defense, s.DetectedPermille, s.LeakyPermille,
			s.FalsePositives, s.MeanOverheadPermille)
	}
	for _, h := range m.Handles {
		fmt.Fprintf(&sb, "\nhandle %s (rows: victim, cols: defense)\n", h)
		fmt.Fprintf(&sb, "%-14s", "")
		for _, d := range m.Defenses {
			fmt.Fprintf(&sb, " %-10.10s", d)
		}
		sb.WriteByte('\n')
		for _, v := range m.Victims {
			fmt.Fprintf(&sb, "%-14s", v)
			for _, d := range m.Defenses {
				mark := "?"
				if c := m.Cell(v, h, d); c != nil {
					switch {
					case !c.Mounted:
						mark = "-"
					case c.Detected:
						mark = "D"
					case c.LeakWindows > 0:
						mark = "L"
					default:
						mark = "."
					}
				}
				fmt.Fprintf(&sb, " %-10s", mark)
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// tournTrial is one sweep trial's output: the four attack cells and the
// control run of a single (victim, defense) pair.
type tournTrial struct {
	cells   []TournamentCell
	control TournamentControl
}

// RunTournament runs the full cross-product and assembles the matrix.
func RunTournament(opt TournamentOptions) (*TournamentMatrix, error) {
	victims, defenses, err := opt.rosters()
	if err != nil {
		return nil, err
	}
	return runTournamentMatrix(victims, defenses, cpu.DefaultConfig(), opt.Workers)
}

// runTournamentMatrix is the roster-agnostic engine behind
// RunTournament; the fuzz harness feeds it mutant victims directly.
func runTournamentMatrix(victims []SanTarget, defenses []defense.Defense,
	baseCfg cpu.Config, workers int) (*TournamentMatrix, error) {
	// One warm checkpoint per victim: build, boot, install, capture.
	// Every trial forks from here, so the 64 MB platform boots once per
	// victim plus once per concurrent worker, not once per cell.
	warms := make([]tournWarm, len(victims))
	for i, v := range victims {
		lay, err := v.Build()
		if err != nil {
			return nil, fmt.Errorf("tournament: build %s: %w", v.Name, err)
		}
		rig, err := platform.New(baseCfg)
		if err != nil {
			return nil, err
		}
		if err := rig.InstallVictim(lay); err != nil {
			return nil, fmt.Errorf("tournament: install %s: %w", v.Name, err)
		}
		cp, err := rig.Checkpoint()
		if err != nil {
			return nil, fmt.Errorf("tournament: checkpoint %s: %w", v.Name, err)
		}
		warms[i] = tournWarm{lay: lay, cp: cp, pool: newRigPool(cp, rig)}
	}

	handles := TournamentHandles()
	trials := len(victims) * len(defenses)
	results, err := sweep.Run(trials, sweep.Options{Workers: workers},
		func(trial int) (tournTrial, error) {
			v := victims[trial/len(defenses)]
			d := defenses[trial%len(defenses)]
			return runTournTrial(warms[trial/len(defenses)], baseCfg, v, d, handles)
		})
	if err != nil {
		return nil, err
	}

	m := &TournamentMatrix{Schema: "microscope/tournament/v1"}
	for _, v := range victims {
		m.Victims = append(m.Victims, v.Name)
	}
	m.Handles = handles
	for _, d := range defenses {
		m.Defenses = append(m.Defenses, d.Name)
	}
	for _, r := range results {
		m.Cells = append(m.Cells, r.cells...)
		m.Controls = append(m.Controls, r.control)
	}

	// Overhead: each control against the same victim's undefended one.
	base := map[string]uint64{}
	for _, c := range m.Controls {
		if c.Defense == "none" {
			base[c.Victim] = c.Cycles
		}
	}
	for i := range m.Controls {
		c := &m.Controls[i]
		if b := base[c.Victim]; b > 0 {
			c.OverheadPermille = (int64(c.Cycles) - int64(b)) * 1000 / int64(b)
		}
	}

	for _, d := range m.Defenses {
		s := TournamentSummary{Defense: d}
		detected, leaky := 0, 0
		for _, c := range m.Cells {
			if c.Defense != d || !c.Mounted {
				continue
			}
			s.AttackCells++
			if c.Detected {
				detected++
			}
			if c.LeakWindows > 0 {
				leaky++
			}
		}
		if s.AttackCells > 0 {
			s.DetectedPermille = int64(detected) * 1000 / int64(s.AttackCells)
			s.LeakyPermille = int64(leaky) * 1000 / int64(s.AttackCells)
		}
		var overheads, n int64
		for _, c := range m.Controls {
			if c.Defense != d {
				continue
			}
			if c.FalsePositive {
				s.FalsePositives++
			}
			overheads += c.OverheadPermille
			n++
		}
		if n > 0 {
			s.MeanOverheadPermille = overheads / n
		}
		m.Summaries = append(m.Summaries, s)
	}
	return m, nil
}

// tournWarm is one victim's warm state: its layout, the checkpoint of a
// rig with the layout installed, and the pool of rigs forked from it.
// Trials share the layout read-only; a defense that hardens it returns
// a copy.
type tournWarm struct {
	lay  *victim.Layout
	cp   *platform.Checkpoint
	pool *rigPool
}

// runTournTrial runs one (victim, defense) pair: the control plus one
// cell per handle class, all on a single pooled rig restored to the
// victim's checkpoint between runs.
func runTournTrial(w tournWarm, baseCfg cpu.Config,
	v SanTarget, d defense.Defense, handles []string) (tournTrial, error) {
	rig, err := w.pool.get() // arrives restored to w.cp
	if err != nil {
		return tournTrial{}, err
	}
	defer w.pool.put(rig)

	cfg, hardened, err := d.Prepare(baseCfg, w.lay)
	if err != nil {
		return tournTrial{}, fmt.Errorf("tournament: harden %s/%s: %w", v.Name, d.Name, err)
	}

	var out tournTrial
	if err := d.Apply(rig, cfg); err != nil {
		return out, err
	}
	start := rig.Core.Cycle()
	hardened.Start(rig.Kernel, 0)
	if err := rig.Run(tournMaxCycles); err != nil {
		return out, fmt.Errorf("tournament: control %s/%s: %w", v.Name, d.Name, err)
	}
	out.control = TournamentControl{
		Victim:        v.Name,
		Defense:       d.Name,
		FalsePositive: d.Judge(rig).Detected,
		Cycles:        rig.Core.Cycle() - start,
	}

	for _, h := range handles {
		if err := rig.Restore(w.cp); err != nil {
			return out, err
		}
		if err := d.Apply(rig, cfg); err != nil {
			return out, err
		}
		res, err := driveHandle(rig, v, hardened, h)
		if err != nil {
			return out, fmt.Errorf("tournament: %s/%s/%s: %w", v.Name, h, d.Name, err)
		}
		verdict := d.Judge(rig)
		out.cells = append(out.cells, TournamentCell{
			Victim:      v.Name,
			Handle:      h,
			Defense:     d.Name,
			Mounted:     res.mounted,
			Replays:     res.replays,
			LeakWindows: res.leaky,
			Detected:    verdict.Detected,
			Counters:    verdict.Counters,
			Cycles:      res.cycles,
		})
	}
	return out, nil
}

// prober samples the attacker's channel once per replay window.
type prober struct {
	kind  probeKind
	core  *cpu.Core
	lines []mem.Addr // physical addresses of the probe page's lines
	busy  uint64
}

// newProber sets the channel up cold: cache probes translate and flush
// every line of the probe page; port probes latch the divider counter.
func newProber(rig *platform.Rig, v SanTarget, lay *victim.Layout) (*prober, error) {
	p := &prober{kind: v.probe.kind, core: rig.Core}
	switch v.probe.kind {
	case probeCache:
		base := lay.Sym(v.probe.sym)
		for off := mem.Addr(0); off < mem.PageSize; off += 64 {
			pa, err := rig.Victim.AddressSpace().Translate(base + off)
			if err != nil {
				return nil, err
			}
			p.lines = append(p.lines, pa)
			rig.Core.Hierarchy().FlushAddr(pa)
		}
	case probePort:
		p.busy = rig.Core.Ports().DivBusyCycles
	}
	return p, nil
}

// sample reports whether the window since the previous sample leaked,
// re-arming the channel (re-flushing hot lines / re-latching the
// counter) as it goes.
func (p *prober) sample() bool {
	switch p.kind {
	case probeCache:
		hot := false
		for _, pa := range p.lines {
			if p.core.Hierarchy().LevelOf(pa) != cache.LevelMem {
				hot = true
				p.core.Hierarchy().FlushAddr(pa)
			}
		}
		return hot
	case probePort:
		busy := p.core.Ports().DivBusyCycles
		leaked := busy > p.busy
		p.busy = busy
		return leaked
	}
	return false
}

// driveResult is what the attacker took away from one cell.
type driveResult struct {
	mounted bool
	replays int
	leaky   int
	cycles  uint64
}

func driveHandle(rig *platform.Rig, v SanTarget, hardened *victim.Layout, handle string) (driveResult, error) {
	switch handle {
	case "pagefault":
		return driveRecipe(rig, v, hardened, false)
	case "selective":
		return driveRecipe(rig, v, hardened, true)
	case "tsxabort":
		return driveTSX(rig, v, hardened)
	case "mispredict":
		return driveMispredict(rig, v, hardened)
	}
	return driveResult{}, fmt.Errorf("unknown handle class %q", handle)
}

// driveRecipe mounts the module page-fault recipe on the victim's
// handle page. The plain variant replays a fixed tournPFReplays
// windows; the selective (§7.2) variant releases as soon as
// tournSelectiveLeaks windows have leaked — few enough faults to duck
// the default detector budgets — with a backstop when the defense
// starves the probe.
func driveRecipe(rig *platform.Rig, v SanTarget, hardened *victim.Layout, selective bool) (driveResult, error) {
	pb, err := newProber(rig, v, hardened)
	if err != nil {
		return driveResult{}, err
	}
	res := driveResult{mounted: true}
	rec := &microscope.Recipe{
		Name:           "tournament",
		Victim:         rig.Victim,
		Handle:         hardened.Sym(v.Handle),
		HandlerLatency: tournHandlerLatency,
	}
	rec.OnReplay = func(ev microscope.Event) microscope.Decision {
		res.replays = ev.Replays
		if pb.sample() {
			res.leaky++
		}
		if selective {
			if res.leaky >= tournSelectiveLeaks || ev.Replays >= tournBackstopReplays {
				return microscope.Release
			}
		} else if ev.Replays >= tournPFReplays {
			return microscope.Release
		}
		return microscope.Replay
	}
	if err := rig.Module.Install(rec); err != nil {
		return driveResult{}, err
	}
	start := rig.Core.Cycle()
	hardened.Start(rig.Kernel, 0)
	if err := rig.Run(tournMaxCycles); err != nil {
		return driveResult{}, err
	}
	res.cycles = rig.Core.Cycle() - start
	return res, nil
}

// driveTSX arms the handle page and wraps the (already hardened)
// victim in the attacker's own transaction: in-transaction faults
// become aborts the kernel never sees, and each abort-retry is a
// replay window observed passively. The wrap falls back to untracked
// execution after its budget so the victim always finishes.
func driveTSX(rig *platform.Rig, v SanTarget, hardened *victim.Layout) (driveResult, error) {
	wrapped, err := victim.WrapTx(hardened, int64(tournBackstopReplays+24), false)
	if err != nil {
		return driveResult{}, err
	}
	pb, err := newProber(rig, v, hardened)
	if err != nil {
		return driveResult{}, err
	}
	handleVA := hardened.Sym(v.Handle)
	as := rig.Victim.AddressSpace()
	if _, err := as.SetPresent(handleVA, false); err != nil {
		return driveResult{}, err
	}
	rig.Kernel.Invlpg(rig.Victim, handleVA)

	res := driveResult{mounted: true}
	start := rig.Core.Cycle()
	wrapped.Start(rig.Kernel, 0)
	ctx := rig.Core.Context(0)
	lastAborts := ctx.Stats().TxAborts
	released := false
	aborted := func() bool { return ctx.Stats().TxAborts != lastAborts }
	err = runReacting(rig, tournDriveMaxCycles, aborted, func() error {
		a := ctx.Stats().TxAborts
		res.replays += int(a - lastAborts)
		lastAborts = a
		if pb.sample() {
			res.leaky++
		}
		if !released && (res.leaky >= tournSelectiveLeaks || res.replays >= tournBackstopReplays) {
			if _, err := as.SetPresent(handleVA, true); err != nil {
				return err
			}
			rig.Kernel.Invlpg(rig.Victim, handleVA)
			released = true
		}
		return nil
	})
	if err != nil {
		return driveResult{}, err
	}
	res.cycles = rig.Core.Cycle() - start
	return res, nil
}

// driveMispredict primes the branch predictor against every conditional
// branch in the victim and re-primes after each observed mispredict:
// each wrong prediction squashes and re-executes the branch shadow — a
// replay window with no fault for any fault-centric defense to see.
// Victims without conditional branches cannot be attacked this way;
// the cell runs unmounted.
func driveMispredict(rig *platform.Rig, v SanTarget, hardened *victim.Layout) (driveResult, error) {
	var branches []int
	for i, in := range hardened.Prog.Instrs {
		if in.Op.IsCondBranch() {
			branches = append(branches, i)
		}
	}
	res := driveResult{mounted: len(branches) > 0}
	ctx := rig.Core.Context(0)
	prime := func() {
		for _, pc := range branches {
			// Pin every branch to predicted-not-taken: taken branches
			// (loop back-edges, secret-taken paths) then mispredict.
			ctx.Predictor().Prime(pc, false, pc+1)
		}
	}
	pb, err := newProber(rig, v, hardened)
	if err != nil {
		return driveResult{}, err
	}
	if res.mounted {
		prime()
	}
	start := rig.Core.Cycle()
	startMis := ctx.Stats().Mispredicts
	hardened.Start(rig.Kernel, 0)
	if !res.mounted {
		if err := rig.Run(tournMaxCycles); err != nil {
			return driveResult{}, err
		}
		res.cycles = rig.Core.Cycle() - start
		return res, nil
	}
	last := startMis
	reprimes := 0
	mispredicted := func() bool { return ctx.Stats().Mispredicts != last }
	err = runReacting(rig, tournDriveMaxCycles, mispredicted, func() error {
		last = ctx.Stats().Mispredicts
		if pb.sample() {
			res.leaky++
		}
		if reprimes < tournReprimes {
			prime()
			reprimes++
		}
		return nil
	})
	if err != nil {
		return driveResult{}, err
	}
	res.replays = int(last - startMis)
	res.cycles = rig.Core.Cycle() - start
	return res, nil
}

// runReacting runs the rig until every loaded context halts, calling
// react each time event holds; react must make event false again. The
// cycles fast-forward skips are no-ops, so react runs after the same
// cycles as it would with the core stepped one cycle at a time.
// maxCycles bounds the whole run. It returns the module's fault-handler
// failure, react's error, or the rig's timeout error.
func runReacting(rig *platform.Rig, maxCycles uint64, event func() bool, react func() error) error {
	end := rig.Core.Cycle() + maxCycles
	for {
		met, err := rig.RunUntil(event, end-rig.Core.Cycle())
		if err != nil {
			return err
		}
		if !met {
			break
		}
		if err := react(); err != nil {
			return err
		}
	}
	if !rig.Core.Halted() {
		return rig.TimeoutErr(maxCycles)
	}
	return nil
}
