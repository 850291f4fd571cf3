package experiments

import (
	"errors"
	"fmt"

	"microscope/analysis/sidechan"
	"microscope/analysis/stats"
	"microscope/analysis/sweep"
	"microscope/attack/microscope"
	"microscope/attack/monitor"
	"microscope/attack/platform"
	"microscope/attack/victim"
	"microscope/sim/cpu"
)

// Fig10Config parameterizes the port-contention experiment of §6.1.
type Fig10Config struct {
	// Samples is the number of monitor measurements (paper: 10,000).
	Samples int
	// Cont is the number of divisions per measurement (Fig. 7a's inner
	// loop count).
	Cont int
	// HandlerLatency is the replayer's per-fault handler time; the paper
	// notes the handler runs considerably longer than the victim code per
	// replay, which is why most samples land below the threshold.
	HandlerLatency uint64
	// WalkLevels tunes the replay window length (§4.1.2).
	WalkLevels int
	// Quantile/Guard calibrate the contention threshold from the
	// quiet (mul-side) distribution, mirroring the paper's "slightly
	// less than 120 cycles" procedure.
	Quantile float64
	Guard    uint64
	// JitterPeriod/JitterExtra inject the ambient platform noise that
	// gives the paper's quiet distribution its 4-of-10,000 outliers.
	JitterPeriod int
	JitterExtra  int
	// Workers bounds the goroutines used to run independent simulations
	// (the two victim sides, and the trials of RunFig10Sweep) in
	// parallel. <= 0 selects runtime.GOMAXPROCS. The worker count never
	// changes results — each side/trial owns its whole simulated
	// platform — only wall-clock time.
	Workers int
}

// DefaultFig10Config matches the paper's measurement count.
func DefaultFig10Config() Fig10Config {
	return Fig10Config{
		Samples:        10_000,
		Cont:           2,
		HandlerLatency: 5_000,
		WalkLevels:     4,
		Quantile:       0.99,
		Guard:          8,
		JitterPeriod:   9001,
		JitterExtra:    150,
	}
}

// Fig10Side holds one victim-side run (mul or div).
type Fig10Side struct {
	Samples []uint64
	Replays int
	Cycles  uint64
}

// Fig10Result is the full experiment outcome.
type Fig10Result struct {
	Config    Fig10Config
	Mul       Fig10Side
	Div       Fig10Side
	Threshold uint64
	MulOver   int
	DivOver   int
	// SeparationX is DivOver / max(MulOver,1) — the paper reports 16x.
	SeparationX float64
}

// RunFig10 reproduces Figures 10a and 10b: the monitor takes Samples
// latency measurements of its own divisions while the victim replays the
// control-flow-secret victim's mul side (10a) or div side (10b), in a
// single logical victim run per side.
func RunFig10(cfg Fig10Config) (*Fig10Result, error) {
	return RunFig10WithCore(cfg, nil)
}

// RunFig10WithCore is RunFig10 with a core-configuration override applied
// to both sides (used by the divider-latency ablation). The two sides are
// fully independent simulations (each builds its own Rig), so they run as
// a two-trial sweep; the result is identical to running them back to back.
func RunFig10WithCore(cfg Fig10Config, tweak func(*cpu.Config)) (*Fig10Result, error) {
	sides, err := sweep.Run(2, sweep.Options{Workers: cfg.Workers},
		func(trial int) (Fig10Side, error) {
			return runFig10Side(cfg, trial == 1, tweak)
		})
	if err != nil {
		var te *sweep.TrialError
		if errors.As(err, &te) {
			return nil, fmt.Errorf("%s side: %w", [2]string{"mul", "div"}[te.Trial], te.Err)
		}
		return nil, err
	}
	return assembleFig10(cfg, sides[0], sides[1]), nil
}

// assembleFig10 classifies both sides into the full result, with the
// threshold calibrated on the quiet (mul) side.
func assembleFig10(cfg Fig10Config, mul, div Fig10Side) *Fig10Result {
	d := sidechan.Distinguish(mul.Samples, div.Samples, cfg.Quantile, cfg.Guard)
	return &Fig10Result{
		Config: cfg, Mul: mul, Div: div,
		Threshold: d.Threshold, MulOver: d.OverA, DivOver: d.OverB, SeparationX: d.Separation,
	}
}

// SecretDetected reports the attack's verdict: the victim executed the
// div side iff the over-threshold count is well above the quiet side's.
func (r *Fig10Result) SecretDetected() bool { return r.SeparationX >= 4 }

// fig10Rig is one side's assembled platform: the rig plus the victim
// and monitor layouts (needed for symbols and program start).
type fig10Rig struct {
	rig *platform.Rig
	vic *victim.Layout
	mon *victim.Layout
}

// buildFig10Rig boots a platform and installs the victim and monitor —
// the checkpointable prefix of a Fig. 10 side (no recipe, no cycles).
// Every Fig. 10 entry point builds its sides here, so this is where the
// monitor parameters are checked.
func buildFig10Rig(coreCfg cpu.Config, cfg Fig10Config, secret bool) (*fig10Rig, error) {
	switch {
	case cfg.Samples <= 0:
		return nil, fmt.Errorf("experiments: fig10 needs Samples > 0, got %d", cfg.Samples)
	case cfg.Cont <= 0:
		return nil, fmt.Errorf("experiments: fig10 needs Cont > 0, got %d", cfg.Cont)
	}
	rig, err := platform.New(coreCfg)
	if err != nil {
		return nil, err
	}
	vic := victim.ControlFlowSecret(secret)
	if err := rig.InstallVictim(vic); err != nil {
		return nil, err
	}
	mon := monitor.PortContention(cfg.Samples, cfg.Cont)
	if err := rig.AddMonitor(mon); err != nil {
		return nil, err
	}
	return &fig10Rig{rig: rig, vic: vic, mon: mon}, nil
}

func runFig10Side(cfg Fig10Config, secret bool, tweak func(*cpu.Config)) (Fig10Side, error) {
	coreCfg := cpu.DefaultConfig()
	coreCfg.JitterPeriod = cfg.JitterPeriod
	coreCfg.JitterExtra = cfg.JitterExtra
	if tweak != nil {
		tweak(&coreCfg)
	}
	fr, err := buildFig10Rig(coreCfg, cfg, secret)
	if err != nil {
		return Fig10Side{}, err
	}
	return mountFig10(fr, cfg)
}

// mountFig10 installs the replay recipe, starts both programs and runs
// the measurement on an assembled side — cold-booted (runFig10Side) or
// restored from a post-install checkpoint (forkFig10Side); the two
// arrive with identical machine state.
func mountFig10(fr *fig10Rig, cfg Fig10Config) (Fig10Side, error) {
	rig, vic, mon := fr.rig, fr.vic, fr.mon

	// The replayer keeps the victim replaying for the monitor's entire
	// measurement run, then releases it: one logical victim run.
	rec := &microscope.Recipe{
		Name:           "fig10",
		Victim:         rig.Victim,
		Handle:         vic.Sym("handle"),
		WalkLevels:     cfg.WalkLevels,
		HandlerLatency: cfg.HandlerLatency,
	}
	rec.OnReplay = func(ev microscope.Event) microscope.Decision {
		if rig.Core.Context(1).Halted() {
			return microscope.Release
		}
		return microscope.Replay
	}
	if err := rig.Module.Install(rec); err != nil {
		return Fig10Side{}, err
	}

	vic.Start(rig.Kernel, 0)
	mon.Start(rig.Kernel, 1)
	start := rig.Core.Cycle()
	// Budget: a sample takes tens of cycles; replays are thousands.
	budget := uint64(cfg.Samples)*2_000 + 10_000_000
	if err := rig.Run(budget); err != nil {
		return Fig10Side{}, err
	}
	samples, err := monitor.ReadSamples(rig.Monitor, cfg.Samples)
	if err != nil {
		return Fig10Side{}, err
	}
	return Fig10Side{
		Samples: samples,
		Replays: rec.Replays(),
		Cycles:  rig.Core.Cycle() - start,
	}, nil
}

// Fig10SweepResult aggregates a many-trial repetition of the Fig. 10
// experiment (a LEASH-style detection study needs exactly this kind of
// cheap repeated-trial sweep).
type Fig10SweepResult struct {
	Trials []*Fig10Result
	// Detected counts trials whose separation revealed the secret.
	Detected int
	// Mul/Div are the monitor-latency summaries merged across every
	// trial's samples (exact, accumulator-based — no re-sort of the
	// union).
	Mul, Div stats.Summary
	// Separation summarizes the per-trial separation factors.
	Separation stats.Summary
}

// RunFig10Sweep runs the full two-sided Fig. 10 experiment `trials`
// times over the worker pool. Each trial is a complete, independent
// simulation; the ambient-jitter phase is varied deterministically per
// trial (the simulated analogue of re-running the experiment on a live
// machine), so the sweep measures the attack's robustness to platform
// noise. Trials fork from two warm post-install checkpoints (one per
// victim side) rather than booting four fresh 64 MB platforms per
// trial; the per-trial jitter is applied to the restored core via
// UpdateTiming, which leaves results byte-identical to the cold-boot
// reference (RunFig10SweepColdBoot). Results are ordered by trial index
// and identical for any cfg.Workers value.
func RunFig10Sweep(cfg Fig10Config, trials int) (*Fig10SweepResult, error) {
	if trials <= 0 {
		return nil, fmt.Errorf("experiments: fig10 sweep needs trials > 0, got %d", trials)
	}
	// One template + checkpoint + pool per victim side (mul, div).
	baseCfg := cpu.DefaultConfig()
	baseCfg.JitterPeriod = cfg.JitterPeriod
	baseCfg.JitterExtra = cfg.JitterExtra
	var templates [2]*fig10Rig
	var pools [2]*rigPool
	for side := 0; side < 2; side++ {
		fr, err := buildFig10Rig(baseCfg, cfg, side == 1)
		if err != nil {
			return nil, err
		}
		cp, err := fr.rig.Checkpoint()
		if err != nil {
			return nil, err
		}
		templates[side] = fr
		pools[side] = newRigPool(cp, fr.rig)
	}
	results, err := sweep.Run(trials, sweep.Options{Workers: cfg.Workers},
		func(trial int) (*Fig10Result, error) {
			c := cfg
			c.Workers = 1 // the trial is the unit of parallelism
			c.JitterPeriod = cfg.JitterPeriod + 17*trial
			var sides [2]Fig10Side
			for side := 0; side < 2; side++ {
				s, err := forkFig10Side(pools[side], templates[side], c)
				if err != nil {
					return nil, fmt.Errorf("%s side: %w", [2]string{"mul", "div"}[side], err)
				}
				sides[side] = s
			}
			return assembleFig10(c, sides[0], sides[1]), nil
		})
	if err != nil {
		return nil, err
	}
	return sweepSummary(results), nil
}

// forkFig10Side draws a pooled rig (restored to the side's post-install
// checkpoint), retunes the restored core's jitter to the trial's, and
// mounts the measurement on it.
func forkFig10Side(pool *rigPool, tmpl *fig10Rig, cfg Fig10Config) (Fig10Side, error) {
	rig, err := pool.get()
	if err != nil {
		return Fig10Side{}, err
	}
	defer pool.put(rig)
	coreCfg := rig.Core.Config()
	coreCfg.JitterPeriod = cfg.JitterPeriod
	coreCfg.JitterExtra = cfg.JitterExtra
	if err := rig.Core.UpdateTiming(coreCfg); err != nil {
		return Fig10Side{}, err
	}
	return mountFig10(&fig10Rig{rig: rig, vic: tmpl.vic, mon: tmpl.mon}, cfg)
}

// RunFig10SweepColdBoot is RunFig10Sweep without the shared
// checkpoints: every trial boots its own platforms. It is the reference
// implementation the forked sweep is tested for identity against.
func RunFig10SweepColdBoot(cfg Fig10Config, trials int) (*Fig10SweepResult, error) {
	if trials <= 0 {
		return nil, fmt.Errorf("experiments: fig10 sweep needs trials > 0, got %d", trials)
	}
	results, err := sweep.Run(trials, sweep.Options{Workers: cfg.Workers},
		func(trial int) (*Fig10Result, error) {
			c := cfg
			c.Workers = 1 // the trial is the unit of parallelism
			c.JitterPeriod = cfg.JitterPeriod + 17*trial
			return RunFig10(c)
		})
	if err != nil {
		return nil, err
	}
	return sweepSummary(results), nil
}

// sweepSummary folds per-trial Fig. 10 results into the sweep summary.
func sweepSummary(results []*Fig10Result) *Fig10SweepResult {
	res := &Fig10SweepResult{Trials: results}
	mul, div, sep := stats.NewAccumulator(), stats.NewAccumulator(), stats.NewAccumulator()
	for _, r := range results {
		if r.SecretDetected() {
			res.Detected++
		}
		mul.AddSamples(r.Mul.Samples)
		div.AddSamples(r.Div.Samples)
		sep.Add(r.SeparationX)
	}
	res.Mul, res.Div, res.Separation = mul.Summary(), div.Summary(), sep.Summary()
	return res
}
