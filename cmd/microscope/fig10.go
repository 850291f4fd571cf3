package main

import (
	"errors"
	"flag"
	"fmt"
	"io"

	"microscope/analysis/stats"
	"microscope/attack/experiments"
)

// fig10Options is the parsed command line of `fig10`, the §6.1
// port-contention attack. A monitor thread on the victim core's sibling
// SMT context times its own floating-point divisions while the victim —
// which executes either two multiplies or two divides depending on a
// secret branch, once, with no loop — is replayed on a page-faulting
// load. The report is the pair of latency distributions (Fig. 10a/10b)
// and the over-threshold counts that reveal the secret. With -trials N
// > 1 the whole experiment repeats N times as a parallel sweep
// (per-trial deterministic jitter phases), reporting the merged
// distributions and the detection rate.
type fig10Options struct {
	cfg    experiments.Fig10Config
	hist   bool
	trials int
}

// parseFig10 parses and validates the arguments after `fig10`.
func parseFig10(args []string, errw io.Writer) (*fig10Options, error) {
	o := &fig10Options{cfg: experiments.DefaultFig10Config()}
	fs := flag.NewFlagSet("fig10", flag.ContinueOnError)
	fs.SetOutput(errw)
	fs.IntVar(&o.cfg.Samples, "samples", o.cfg.Samples, "monitor measurements per side")
	fs.IntVar(&o.cfg.Cont, "cont", o.cfg.Cont, "divisions per measurement")
	fs.Uint64Var(&o.cfg.HandlerLatency, "handler", o.cfg.HandlerLatency, "replayer handler latency (cycles)")
	fs.IntVar(&o.cfg.WalkLevels, "walk", o.cfg.WalkLevels, "page-table levels served from memory (1-4)")
	fs.BoolVar(&o.hist, "hist", true, "print latency histograms")
	fs.IntVar(&o.trials, "trials", 1, "independent repetitions of the full experiment")
	if err := parseFlags(fs, args); err != nil {
		return nil, err
	}
	if err := noArgs("fig10", fs.Args()); err != nil {
		return nil, err
	}
	switch {
	case o.cfg.Samples < 1:
		return nil, fmt.Errorf("fig10: -samples must be >= 1, got %d", o.cfg.Samples)
	case o.cfg.Cont < 1:
		return nil, fmt.Errorf("fig10: -cont must be >= 1, got %d", o.cfg.Cont)
	case o.cfg.HandlerLatency < 1:
		return nil, errors.New("fig10: -handler must be >= 1, got 0")
	case o.cfg.WalkLevels < 1 || o.cfg.WalkLevels > 4:
		return nil, fmt.Errorf("fig10: -walk must be 1-4, got %d", o.cfg.WalkLevels)
	case o.trials < 1:
		return nil, fmt.Errorf("fig10: -trials must be >= 1, got %d", o.trials)
	}
	o.cfg.Workers = workers
	return o, nil
}

func (o *fig10Options) run(out io.Writer) error {
	if o.trials > 1 {
		return o.runSweep(out)
	}
	res, err := experiments.RunFig10(o.cfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "Figure 10 — port contention attack (%d samples/side)\n\n", o.cfg.Samples)
	fmt.Fprintf(out, "victim mul side: %s  (replays: %d, %d cycles)\n",
		stats.Summarize(res.Mul.Samples), res.Mul.Replays, res.Mul.Cycles)
	fmt.Fprintf(out, "victim div side: %s  (replays: %d, %d cycles)\n\n",
		stats.Summarize(res.Div.Samples), res.Div.Replays, res.Div.Cycles)

	if o.hist {
		fmt.Fprintln(out, "Fig. 10a — monitor latencies, victim executes two multiplies:")
		if err := printHist(out, res.Mul.Samples); err != nil {
			return err
		}
		fmt.Fprintln(out, "Fig. 10b — monitor latencies, victim executes two divides:")
		if err := printHist(out, res.Div.Samples); err != nil {
			return err
		}
	}

	fmt.Fprintf(out, "contention threshold (calibrated on mul side): %d cycles\n", res.Threshold)
	fmt.Fprintf(out, "over threshold: mul side %d, div side %d  (paper: 4 vs 64, 16x)\n",
		res.MulOver, res.DivOver)
	fmt.Fprintf(out, "separation: %.1fx -> secret branch %s\n", res.SeparationX,
		map[bool]string{true: "DETECTED (div side)", false: "not detected"}[res.SecretDetected()])
	return nil
}

// runSweep repeats the experiment as a parallel sweep and prints the
// merged picture.
func (o *fig10Options) runSweep(out io.Writer) error {
	res, err := experiments.RunFig10Sweep(o.cfg, o.trials)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "Figure 10 sweep — %d trials × %d samples/side (workers=%d)\n\n",
		o.trials, o.cfg.Samples, o.cfg.Workers)
	fmt.Fprintf(out, "merged mul side: %s\n", res.Mul)
	fmt.Fprintf(out, "merged div side: %s\n\n", res.Div)
	if o.hist {
		var all []uint64
		for _, r := range res.Trials {
			all = append(all, r.Div.Samples...)
		}
		fmt.Fprintln(out, "merged div-side latencies:")
		if err := printHist(out, all); err != nil {
			return err
		}
	}
	for i, r := range res.Trials {
		fmt.Fprintf(out, "trial %2d: threshold=%3d over mul/div=%3d/%3d separation=%5.1fx detected=%t\n",
			i, r.Threshold, r.MulOver, r.DivOver, r.SeparationX, r.SecretDetected())
	}
	fmt.Fprintf(out, "\nsecret detected in %d/%d trials; separation %s\n",
		res.Detected, o.trials, res.Separation)
	return nil
}

func printHist(out io.Writer, xs []uint64) error {
	h, err := stats.NewHistogram(xs, 0, 250, 25)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, h.Render(48))
	return nil
}
