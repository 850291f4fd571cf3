package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"

	"microscope/attack/microscope"
	"microscope/attack/platform"
	"microscope/sim/cpu"
)

// The image golden: the sha256 of the JSON encoding of a checkpoint's
// machine image, for the set-up image of every SanTargets victim, the
// AES victim mid-replay (context 0's ROB full with operands pending and
// its predictor primed, context 1 idle) and a Fig. 10 side mid-run
// (both contexts running). Each image is also restored onto a freshly
// booted rig and captured again, which must give the same digest. A
// change to how the core holds its state, such as allocating an idle
// context's structures lazily, must leave every image byte-identical.
// Regenerate after an intentional format change with:
//
//	go test ./attack/experiments -run TestGoldenImages -update
//
// The digest is taken over JSON, not snapshot.Encode: gob numbers types
// per process, so its bytes depend on what else the test binary encoded
// first.

const imageGoldenPath = "testdata/golden_images.json"

// imageDigest returns the hex sha256 of cp's machine image as JSON.
func imageDigest(t *testing.T, cp *platform.Checkpoint) string {
	t.Helper()
	data, err := json.Marshal(cp.Machine)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// imageCase builds one rig whose checkpoint the golden pins.
type imageCase struct {
	name  string
	build func(t *testing.T) *platform.Rig
}

func imageCases() []imageCase {
	var cases []imageCase
	for _, st := range SanTargets() {
		st := st
		cases = append(cases, imageCase{"setup-" + st.Name, func(t *testing.T) *platform.Rig {
			l, err := st.Build()
			if err != nil {
				t.Fatal(err)
			}
			rig, err := platform.New(cpu.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if err := rig.InstallVictim(l); err != nil {
				t.Fatal(err)
			}
			return rig
		}})
	}
	cases = append(cases,
		imageCase{"aes-mid-replay", func(t *testing.T) *platform.Rig {
			rig, _, rec := mountSnapScenario(t, ffScenarioNamed(t, "aes"))
			ctx := rig.Core.Context(0)
			// The AES victim has no conditional branch to train the
			// predictor, so prime one entry as an adversary would.
			ctx.Predictor().Prime(0, true, 0)
			robSize := rig.Core.Config().ROBSize
			full := func() bool {
				entries := ctx.ROBEntries()
				if rec.Replays() < 1 || len(entries) < robSize {
					return false
				}
				for _, e := range entries {
					if !e.Src[0].Ready || !e.Src[1].Ready {
						return true
					}
				}
				return false
			}
			if met, err := rig.RunUntil(full, snapBudget); err != nil || !met {
				t.Fatalf("no full ROB with a pending operand during a replay (met %v, err %v)", met, err)
			}
			if rig.Core.Context(1).Program() != nil {
				t.Fatal("context 1 holds a program")
			}
			return rig
		}},
		imageCase{"fig10-mid-run", func(t *testing.T) *platform.Rig {
			cfg := DefaultFig10Config()
			cfg.Samples = 400
			coreCfg := cpu.DefaultConfig()
			coreCfg.JitterPeriod, coreCfg.JitterExtra = cfg.JitterPeriod, cfg.JitterExtra
			fr, err := buildFig10Rig(coreCfg, cfg, true)
			if err != nil {
				t.Fatal(err)
			}
			rig := fr.rig
			rec := &microscope.Recipe{
				Name:           "fig10",
				Victim:         rig.Victim,
				Handle:         fr.vic.Sym("handle"),
				WalkLevels:     cfg.WalkLevels,
				HandlerLatency: cfg.HandlerLatency,
				MaxReplays:     64,
			}
			if err := rig.Module.Install(rec); err != nil {
				t.Fatal(err)
			}
			fr.vic.Start(rig.Kernel, 0)
			fr.mon.Start(rig.Kernel, 1)
			// A later replay's window, while the monitor samples.
			both := func() bool {
				return rec.Replays() >= 2 &&
					len(rig.Core.Context(0).ROBEntries()) > 0 && len(rig.Core.Context(1).ROBEntries()) > 0
			}
			if met, err := rig.RunUntil(both, snapBudget); err != nil || !met {
				t.Fatalf("victim and monitor never ran together (met %v, err %v)", met, err)
			}
			return rig
		}},
	)
	return cases
}

// ffScenarioNamed returns the fast-forward scenario called name.
func ffScenarioNamed(t *testing.T, name string) ffScenario {
	t.Helper()
	for _, sc := range ffScenarios() {
		if sc.name == name {
			return sc
		}
	}
	t.Fatalf("no scenario %q", name)
	return ffScenario{}
}

func TestGoldenImages(t *testing.T) {
	got := map[string]string{}
	for _, c := range imageCases() {
		cp, err := c.build(t).Checkpoint()
		if err != nil {
			t.Fatalf("%s: checkpoint: %v", c.name, err)
		}
		d := imageDigest(t, cp)
		fresh, err := cp.Boot()
		if err != nil {
			t.Fatalf("%s: boot: %v", c.name, err)
		}
		again, err := fresh.Checkpoint()
		if err != nil {
			t.Fatalf("%s: checkpoint after restore: %v", c.name, err)
		}
		if d2 := imageDigest(t, again); d2 != d {
			t.Errorf("%s: image changed across a restore onto a fresh rig: %s, then %s", c.name, d, d2)
		}
		got[c.name] = d
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(imageGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d images", imageGoldenPath, len(got))
		return
	}
	data, err := os.ReadFile(imageGoldenPath)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create it): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parsing %s: %v", imageGoldenPath, err)
	}
	for name, d := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: no golden digest committed (run with -update)", name)
		} else if d != w {
			t.Errorf("%s: image sha256 %s, golden %s", name, d, w)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: golden image no longer produced", name)
		}
	}
}
