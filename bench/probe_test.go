package msbench

import (
	"bytes"
	"fmt"

	"microscope/analysis/static"
	"microscope/analysis/verify"
	"microscope/attack/experiments"
	"microscope/attack/microscope"
	"microscope/attack/monitor"
	"microscope/attack/victim"
	"microscope/sim/cpu"
	"microscope/sim/snapshot"
	"microscope/sim/trace"
)

// The layer probe. A workload's entry point builds its rigs internally,
// so the traced run rebuilds the workload's starting platforms from
// public calls, runs the same attacks on them with one span per call,
// and reads the counters the simulator exposes. One probe repetition
// also runs the analysis layers (static scan, verifier, SpecSan) over
// the workload's victims.

// Probe replay parameters. probeWindows is the replay count of the
// tournament's undefended page-fault column, which runs at a
// 2,500-cycle handler (attack/experiments/tournament.go); the AES probe
// replays as many windows.
const (
	probeWindows        = 10
	tournHandlerLatency = 2500
	tournMaxCycles      = 50_000_000
)

// probe accumulates one probe repetition.
type probe struct {
	tr *tracer
	// counts are the simulated counters of the detached runs and the
	// analyses; they must repeat exactly.
	counts counts
	// verifyAlloc is the heap bytes allocated inside verify.Verify.
	verifyAlloc uint64
}

// run round-trips a platform's checkpoint through snapshot.Encode and
// Decode, then twice restores the rig from the decoded image, mounts the
// attack and runs it: detached, then with a trace.Hasher attached. It
// adds the detached run's counters to p.counts and leaves the rig as the
// hashed run left it, which must be the same machine state.
func (p *probe) run(rig *experiments.Rig, cp *experiments.Checkpoint, budget uint64,
	mount func(*experiments.Rig) error) error {
	var buf bytes.Buffer
	if err := p.tr.do("snapshot.Encode", func() error { return snapshot.Encode(&buf, cp.Machine) }); err != nil {
		return err
	}
	p.counts["image_bytes"] += uint64(buf.Len())
	dec := *cp
	err := p.tr.do("snapshot.Decode", func() (err error) {
		dec.Machine, err = snapshot.Decode(&buf)
		return err
	})
	if err != nil {
		return err
	}
	var detached counts
	for _, hashed := range []bool{false, true} {
		if err := p.tr.do("experiments.Rig.Restore", func() error { return rig.Restore(&dec) }); err != nil {
			return err
		}
		if err := p.tr.do("microscope.Module.Install", func() error { return mount(rig) }); err != nil {
			return err
		}
		name := "experiments.Rig.Run"
		var h *trace.Hasher
		if hashed {
			name += "+trace.Hasher"
			h = trace.NewHasher()
			rig.Core.SetTracer(h)
		}
		before := readCounters(rig.Core)
		if err := p.tr.do(name, func() error { return rig.Run(budget) }); err != nil {
			return err
		}
		d := readCounters(rig.Core).minus(before)
		if !hashed {
			detached = d
			continue
		}
		rig.Core.SetTracer(nil)
		if d["cycles"] != detached["cycles"] || d["retired"] != detached["retired"] {
			return fmt.Errorf("probe: attaching a trace.Hasher changed the run (%d vs %d cycles)",
				d["cycles"], detached["cycles"])
		}
		p.counts["trace_events"] += h.Events()
	}
	p.counts.add(detached)
	return nil
}

// readCounters reads the core's public counters.
func readCounters(core *cpu.Core) counts {
	c := counts{"cycles": core.Cycle(), "skipped": core.SkippedCycles()}
	for i := 0; i < core.Contexts(); i++ {
		s := core.Context(i).Stats()
		c["retired"] += s.Retired
		c["squashed"] += s.Squashed
		c["faults"] += s.PageFaults
	}
	ms := core.MemoStats()
	c["memo_hits"], c["memo_misses"], c["spliced"] = ms.Hits, ms.Misses, ms.SplicedCycles
	h := core.Hierarchy()
	_, c["l1d_misses"] = h.L1D().Stats()
	_, c["l2_misses"] = h.L2().Stats()
	_, c["l3_misses"] = h.L3().Stats()
	c["pwc_hits"], c["pwc_misses"] = core.PWC().Stats()
	_, c["dtlb_misses"] = core.TLBs().L1D.Stats()
	_, c["stlb_misses"] = core.TLBs().L2.Stats()
	return c
}

func (c counts) minus(before counts) counts {
	d := counts{}
	for k, v := range c {
		d[k] = v - before[k]
	}
	return d
}

// analyze runs the three analysis layers over one victim with its replay
// handle: the static scan, the verifier and the SpecSan run.
func (p *probe) analyze(name string, lay *victim.Layout, handle string) error {
	sub := verify.NewSubject(lay)
	sub.Handle = lay.Symbols[handle]
	err := p.tr.do("static.Analyze", func() error {
		_, err := static.Analyze(lay.Name, lay.Prog, sub.Secrets, static.DefaultConfig())
		return err
	})
	if err != nil {
		return err
	}
	var res *verify.Result
	alloc := readRuntime()[0].Value.Uint64()
	err = p.tr.do("verify.Verify", func() (err error) {
		res, err = verify.Verify(sub, verify.DefaultConfig())
		return err
	})
	if err != nil {
		return err
	}
	p.verifyAlloc += readRuntime()[0].Value.Uint64() - alloc
	p.counts["verify_steps"] += uint64(res.Steps)
	var ss *experiments.SpecSanResult
	err = p.tr.do("experiments.RunSpecSanLayout", func() (err error) {
		ss, err = experiments.RunSpecSanLayout(name, lay, handle, experiments.DefaultSpecSanConfig())
		return err
	})
	if err != nil {
		return err
	}
	p.counts["sanitizer_findings"] += uint64(len(ss.Findings))
	return nil
}

// fig10Probe rebuilds both Fig. 10 sides of unit 0 and analyses the
// control-flow victim they share.
func fig10Probe(seed int64, p *probe) error {
	if _, err := fig10ProbeSides(fig10Config(seed, 0), p); err != nil {
		return err
	}
	return p.analyze("controlflow", victim.ControlFlowSecret(true), "handle")
}

// fig10ProbeSides runs the mul and div sides as RunFig10 does, on rigs
// restored from a decoded checkpoint, and returns what each side
// measured; the result must equal RunFig10's.
func fig10ProbeSides(cfg experiments.Fig10Config, p *probe) ([2]experiments.Fig10Side, error) {
	var sides [2]experiments.Fig10Side
	for side := range sides {
		vic := victim.ControlFlowSecret(side == 1)
		mon := monitor.PortContention(cfg.Samples, cfg.Cont)
		rig, cp, err := bootPlatform(p.tr, fig10CoreConfig(cfg), vic, mon)
		if err != nil {
			return sides, err
		}
		var rec *microscope.Recipe
		mount := func(rig *experiments.Rig) error {
			rec = &microscope.Recipe{Name: "fig10", Victim: rig.Victim, Handle: vic.Sym("handle"),
				WalkLevels: cfg.WalkLevels, HandlerLatency: cfg.HandlerLatency}
			rec.OnReplay = func(microscope.Event) microscope.Decision {
				if rig.Core.Context(1).Halted() {
					return microscope.Release
				}
				return microscope.Replay
			}
			if err := rig.Module.Install(rec); err != nil {
				return err
			}
			vic.Start(rig.Kernel, 0)
			mon.Start(rig.Kernel, 1)
			return nil
		}
		// Every restore returns the rig to the cycle it was checkpointed at.
		start := rig.Core.Cycle()
		if err := p.run(rig, cp, uint64(cfg.Samples)*2_000+10_000_000, mount); err != nil {
			return sides, err
		}
		samples, err := monitor.ReadSamples(rig.Monitor, cfg.Samples)
		if err != nil {
			return sides, err
		}
		sides[side] = experiments.Fig10Side{Samples: samples, Replays: rec.Replays(), Cycles: rig.Core.Cycle() - start}
	}
	return sides, nil
}

// aesProbe boots unit 0's AES platform once and forks it for each of the
// 8 trial ciphertexts, as the key sweep does, replaying 10 windows of
// the stack handle (the verifier's AES handle) on each fork; the memo
// splices 3 of the 10.
func aesProbe(seed int64, p *probe) error {
	key, _ := sweepKey(seed, 0)
	cfg := experiments.DefaultAESConfig()
	vic, err := aesVictim(key, cfg.Plaintext)
	if err != nil {
		return err
	}
	rig, cp, err := bootPlatform(p.tr, cpu.DefaultConfig(), vic.Layout, nil)
	if err != nil {
		return err
	}
	for trial := 0; trial < keySweepTrials; trial++ {
		ct := make([]byte, 16)
		vic.Cipher.Encrypt(ct, experiments.TrialPlaintext(trial))
		img, err := victim.AESInImage(ct)
		if err != nil {
			return err
		}
		mount := func(rig *experiments.Rig) error {
			if err := rig.Victim.AddressSpace().WriteVirt(victim.AESInVA, img); err != nil {
				return err
			}
			rec := &microscope.Recipe{Name: "aes-stack", Victim: rig.Victim, Handle: vic.Sym("stack"),
				WalkLevels: cfg.WalkLevels, HandlerLatency: cfg.HandlerLatency, MaxReplays: probeWindows}
			if err := rig.Module.Install(rec); err != nil {
				return err
			}
			vic.Start(rig.Kernel, 0)
			return nil
		}
		if err := p.run(rig, cp, tournMaxCycles, mount); err != nil {
			return err
		}
	}
	return p.analyze("aes", vic.Layout, "stack")
}

// targetsProbe boots each built-in victim, replays its handle page with
// the given recipe parameters (the tournament's undefended page-fault
// column, or the verifier's dynamic run) and analyses it.
func targetsProbe(handlerLatency uint64, replays int, budget uint64) func(int64, *probe) error {
	return func(_ int64, p *probe) error {
		for _, t := range experiments.SanTargets() {
			lay, err := t.Build()
			if err != nil {
				return err
			}
			rig, cp, err := bootPlatform(p.tr, cpu.DefaultConfig(), lay, nil)
			if err != nil {
				return err
			}
			mount := func(rig *experiments.Rig) error {
				rec := &microscope.Recipe{Name: "probe-" + t.Name, Victim: rig.Victim, Handle: lay.Sym(t.Handle),
					HandlerLatency: handlerLatency, MaxReplays: replays}
				if err := rig.Module.Install(rec); err != nil {
					return err
				}
				lay.Start(rig.Kernel, 0)
				return nil
			}
			if err := p.run(rig, cp, budget, mount); err != nil {
				return err
			}
			if err := p.analyze(t.Name, lay, t.Handle); err != nil {
				return err
			}
		}
		return nil
	}
}
