package msbench

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"microscope/analysis/sweep"
	"microscope/analysis/verify"
	"microscope/attack/experiments"
	"microscope/attack/monitor"
	"microscope/attack/victim"
	"microscope/crypto/taes"
	"microscope/sim/cpu"
)

// counts are simulated counters. They depend only on the code and the
// inputs, so two builds that differ only in speed must report them
// equal.
type counts map[string]uint64

func (c counts) add(d counts) {
	for k, v := range d {
		c[k] += v
	}
}

// workload is one named closed-loop job: a single client runs unit after
// unit, each starting when the previous one returns.
type workload struct {
	name string
	// parallel is how many goroutines a unit keeps busy, and so how many
	// lanes the host reference kernel runs before each unit.
	parallel int
	// setup builds the warm starting platforms the workload's entry point
	// builds for itself, through the same public calls; its CPU time gives
	// setup_s.
	setup func(seed int64) error
	// unit makes input i of the seed's input stream and returns the call
	// that runs the program on it, checks the output and returns the
	// simulated counters the output exposes. Only that call is timed.
	unit func(seed int64, i int) func(tr *tracer) (counts, error)
	// probe is the traced run's layer probe: it rebuilds the workload's
	// starting platforms from public calls and reads the public counters
	// (see probe_test.go).
	probe func(seed int64, p *probe) error
}

// workloadNames lists the workloads in the order BENCHMARK.json gives
// them.
var workloadNames = []string{"fig10-smt", "aes-keysweep", "tournament", "mscan"}

const (
	// keySweepTrials is aesattack -keysweep 8: one §6.2 extraction per
	// trial plaintext.
	keySweepTrials = 8
	// tournamentWorkers is the sweep pool size of the tournament unit. It
	// is fixed rather than taken from the host so that every host runs
	// the same schedule; it is the core count of the reference host.
	tournamentWorkers = 2
	goldenTournament  = "attack/experiments/testdata/golden_tournament.json"
	goldenVerdicts    = "cmd/mscan/testdata/golden_verdicts.json"
)

// newWorkload returns the named workload. The output checks read the
// repository's own golden files under repo.
func newWorkload(name, repo string) (*workload, error) {
	switch name {
	case "fig10-smt":
		return &workload{name: name, parallel: 1, setup: fig10Setup, unit: fig10Unit, probe: fig10Probe}, nil
	case "aes-keysweep":
		return &workload{name: name, parallel: 1, setup: aesSetup, unit: aesUnit, probe: aesProbe}, nil
	case "tournament":
		golden, err := os.ReadFile(filepath.Join(repo, goldenTournament))
		if err != nil {
			return nil, err
		}
		return &workload{name: name, parallel: tournamentWorkers, setup: targetsSetup, unit: tournamentUnit(golden),
			probe: targetsProbe(tournHandlerLatency, probeWindows, tournMaxCycles)}, nil
	case "mscan":
		data, err := os.ReadFile(filepath.Join(repo, goldenVerdicts))
		if err != nil {
			return nil, err
		}
		var verdicts map[string]string
		if err := json.Unmarshal(data, &verdicts); err != nil {
			return nil, fmt.Errorf("%s: %w", goldenVerdicts, err)
		}
		v := verify.DefaultConfig()
		return &workload{name: name, parallel: 1, setup: targetsSetup, unit: mscanUnit(verdicts),
			probe: targetsProbe(v.HandlerLatency, v.Replays, v.MaxCycles)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// bootPlatform builds a warm starting platform the way the workloads do:
// NewRig, InstallVictim, AddMonitor when mon is non-nil, Checkpoint.
func bootPlatform(tr *tracer, cfg cpu.Config, vic, mon *victim.Layout) (*experiments.Rig, *experiments.Checkpoint, error) {
	var rig *experiments.Rig
	err := tr.do("experiments.NewRig", func() (err error) {
		rig, err = experiments.NewRig(cfg)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	if err := tr.do("experiments.Rig.InstallVictim", func() error { return rig.InstallVictim(vic) }); err != nil {
		return nil, nil, err
	}
	if mon != nil {
		if err := tr.do("experiments.Rig.AddMonitor", func() error { return rig.AddMonitor(mon) }); err != nil {
			return nil, nil, err
		}
	}
	var cp *experiments.Checkpoint
	err = tr.do("experiments.Rig.Checkpoint", func() (err error) {
		cp, err = rig.Checkpoint()
		return err
	})
	return rig, cp, err
}

// ---------------------------------------------------------------------
// fig10-smt: the §6.1 port-contention attack at the paper's 10,000
// samples, victim and monitor co-resident on the two SMT contexts.

// fig10Config is input i of the seed's stream: the paper's configuration
// with the ambient-jitter period moved to one of 24 phases.
func fig10Config(seed int64, i int) experiments.Fig10Config {
	cfg := experiments.DefaultFig10Config()
	cfg.Workers = 1
	phase := (16*seed + int64(i)) % 24
	if phase < 0 {
		phase += 24
	}
	cfg.JitterPeriod += 17 * int(phase)
	return cfg
}

// fig10CoreConfig is the core configuration RunFig10 gives both sides.
func fig10CoreConfig(cfg experiments.Fig10Config) cpu.Config {
	c := cpu.DefaultConfig()
	c.JitterPeriod = cfg.JitterPeriod
	c.JitterExtra = cfg.JitterExtra
	return c
}

func fig10Setup(seed int64) error {
	cfg := fig10Config(seed, 0)
	for _, secret := range []bool{false, true} {
		_, _, err := bootPlatform(nil, fig10CoreConfig(cfg), victim.ControlFlowSecret(secret),
			monitor.PortContention(cfg.Samples, cfg.Cont))
		if err != nil {
			return err
		}
	}
	return nil
}

func fig10Unit(seed int64, i int) func(*tracer) (counts, error) {
	cfg := fig10Config(seed, i)
	return func(tr *tracer) (counts, error) {
		var res *experiments.Fig10Result
		err := tr.do("experiments.RunFig10", func() (err error) {
			res, err = experiments.RunFig10(cfg)
			return err
		})
		if err != nil {
			return nil, err
		}
		if !res.SecretDetected() {
			return nil, fmt.Errorf("fig10 jitter period %d: secret not detected (separation %.2fx)",
				cfg.JitterPeriod, res.SeparationX)
		}
		return counts{
			"cycles":    res.Mul.Cycles + res.Div.Cycles,
			"replays":   uint64(res.Mul.Replays + res.Div.Replays),
			"threshold": res.Threshold,
			"mul_over":  uint64(res.MulOver),
			"div_over":  uint64(res.DivOver),
		}, nil
	}
}

// ---------------------------------------------------------------------
// aes-keysweep: aesattack -keysweep 8 on a key drawn from the seed.

// sweepKey is input i of the seed's stream: the first key of a splitmix
// stream whose first-round key nibbles the 8 trial plaintexts pin down
// exactly, with the sweep's expected candidates. Keys they cannot pin
// down are skipped, because for them an incomplete sweep is the right
// answer, not a failure.
func sweepKey(seed int64, i int) ([]byte, [16]uint16) {
	base := sweep.SeedFor(seed, i)
	for try := 0; ; try++ {
		s := sweep.SeedFor(base, try)
		key := make([]byte, 16)
		binary.LittleEndian.PutUint64(key, uint64(s))
		binary.LittleEndian.PutUint64(key[8:], uint64(sweep.SeedFor(s, 1)))
		if cands := refCandidates(key); singletons(cands) {
			return key, cands
		}
	}
}

// refCandidates is the key sweep's expected output computed from the
// cipher's reference decryption trace instead of the simulator: the
// surviving high-nibble candidates of each first-round key byte when
// every trial reveals exactly the lines round 1 touches.
func refCandidates(key []byte) [16]uint16 {
	var cands [16]uint16
	c, err := taes.NewCipher(key)
	if err != nil {
		panic(err) // only key lengths other than 16, 24 or 32 bytes fail
	}
	for b := range cands {
		cands[b] = 0xffff
	}
	ct := make([]byte, taes.BlockSize)
	out := make([]byte, taes.BlockSize)
	for trial := 0; trial < keySweepTrials; trial++ {
		c.Encrypt(ct, experiments.TrialPlaintext(trial))
		var lines [4]uint16
		for _, a := range c.DecryptTrace(out, ct) {
			if a.Round == 1 {
				lines[a.Table] |= 1 << uint(a.Line())
			}
		}
		for b := range cands {
			ctHi := int(ct[b]) >> 4
			var keep uint16
			for hn := 0; hn < 16; hn++ {
				if lines[b%4]&(1<<uint(ctHi^hn)) != 0 {
					keep |= 1 << uint(hn)
				}
			}
			cands[b] &= keep
		}
	}
	return cands
}

func singletons(cands [16]uint16) bool {
	for _, m := range cands {
		if m == 0 || m&(m-1) != 0 {
			return false
		}
	}
	return true
}

// aesVictim builds the key's AES victim around the ciphertext of pt.
func aesVictim(key, pt []byte) (*victim.AESVictim, error) {
	c, err := taes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	ct := make([]byte, taes.BlockSize)
	c.Encrypt(ct, pt)
	return victim.NewAESVictim(key, ct)
}

func aesSetup(seed int64) error {
	key, _ := sweepKey(seed, 0)
	vic, err := aesVictim(key, experiments.DefaultAESConfig().Plaintext)
	if err != nil {
		return err
	}
	_, _, err = bootPlatform(nil, cpu.DefaultConfig(), vic.Layout, nil)
	return err
}

func aesUnit(seed int64, i int) func(*tracer) (counts, error) {
	cfg := experiments.DefaultAESConfig()
	key, want := sweepKey(seed, i)
	cfg.Key = key
	return func(tr *tracer) (counts, error) {
		var ks *experiments.KeySweepResult
		err := tr.do("experiments.RunAESKeyByteSweep", func() (err error) {
			ks, err = experiments.RunAESKeyByteSweep(cfg, keySweepTrials, 1)
			return err
		})
		if err != nil {
			return nil, err
		}
		if !ks.Complete() || ks.Candidates != want {
			return nil, fmt.Errorf("key %x: recovered %d/16 nibbles, candidates %04x, want %04x",
				cfg.Key, ks.RecoveredExactly(), ks.Candidates, want)
		}
		return counts{"faults": uint64(ks.Faults)}, nil
	}
}

// ---------------------------------------------------------------------
// tournament and mscan: both sweep the seven built-in victims, so they
// share their starting platforms.

func targetsSetup(int64) error {
	for _, t := range experiments.SanTargets() {
		lay, err := t.Build()
		if err != nil {
			return err
		}
		if _, _, err := bootPlatform(nil, cpu.DefaultConfig(), lay, nil); err != nil {
			return err
		}
	}
	return nil
}

// tournamentUnit runs the full defense tournament. Its input is the
// fixed roster, so the seed selects nothing.
func tournamentUnit(golden []byte) func(int64, int) func(*tracer) (counts, error) {
	return func(int64, int) func(*tracer) (counts, error) {
		return func(tr *tracer) (counts, error) {
			var m *experiments.TournamentMatrix
			err := tr.do("experiments.RunTournament", func() (err error) {
				m, err = experiments.RunTournament(experiments.TournamentOptions{Workers: tournamentWorkers})
				return err
			})
			if err != nil {
				return nil, err
			}
			got, err := m.JSON()
			if err != nil {
				return nil, err
			}
			if !bytes.Equal(got, golden) {
				return nil, fmt.Errorf("tournament matrix differs from %s", goldenTournament)
			}
			c := counts{}
			for _, cell := range m.Cells {
				c["cycles"] += cell.Cycles
				c["replays"] += uint64(cell.Replays)
				c["leak_windows"] += uint64(cell.LeakWindows)
			}
			for _, ctl := range m.Controls {
				c["cycles"] += ctl.Cycles
			}
			return c, nil
		}
	}
}

// mscanUnit is mscan -prove plus -sanitize over every built-in victim,
// with the verifier's randomized differential seeded from the input
// stream.
func mscanUnit(golden map[string]string) func(int64, int) func(*tracer) (counts, error) {
	return func(seed int64, i int) func(*tracer) (counts, error) {
		cfg := verify.DefaultConfig()
		cfg.Seed = sweep.SeedFor(seed, i)
		return func(tr *tracer) (counts, error) {
			c := counts{}
			for _, t := range experiments.SanTargets() {
				lay, err := t.Build()
				if err != nil {
					return nil, err
				}
				sub := verify.NewSubject(lay)
				sub.Handle = lay.Symbols[t.Handle]
				var res *verify.Result
				err = tr.do("verify.Verify", func() (err error) {
					res, err = verify.Verify(sub, cfg)
					return err
				})
				if err != nil {
					return nil, err
				}
				if want, got := golden[t.Name], res.Verdict.String(); got != want {
					return nil, fmt.Errorf("mscan %s (verify seed %#x): verdict %s, golden %q", t.Name, cfg.Seed, got, want)
				}
				var ss *experiments.SpecSanResult
				err = tr.do("experiments.RunSpecSan", func() (err error) {
					ss, err = experiments.RunSpecSan(t, experiments.DefaultSpecSanConfig())
					return err
				})
				if err != nil {
					return nil, err
				}
				if un := ss.Reconciliation.Unexplained(); len(un) > 0 {
					return nil, fmt.Errorf("mscan %s: %d unexplained static/dynamic disagreements", t.Name, len(un))
				}
				c["verify_steps"] += uint64(res.Steps)
				c["verify_paths"] += uint64(res.Paths)
				c["sanitizer_findings"] += uint64(len(ss.Findings))
				c["sanitizer_replays"] += uint64(ss.Replays)
			}
			return c, nil
		}
	}
}
