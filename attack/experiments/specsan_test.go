package experiments

// The SpecSan headline gate: three-way static/abstract/dynamic
// cross-validation on every builtin victim (and fuzzed mutants).
//
//   - dynamic vs static: every sanitizer finding is machine-reconciled
//     against the static scanner, with zero Unexplained entries;
//   - dynamic vs abstract: every simulator-checked LEAKY witness the
//     verifier produces must have its channel covered by the
//     sanitizer's findings when the witness assignments are replayed
//     under the sanitizer (no-false-negative invariant);
//   - off-mode: attaching the sanitizer must not perturb the simulated
//     machine (trace-hash identity over a full attack), and
//     checkpoint/restore must round-trip shadow state bit-identically
//     mid-attack.

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"microscope/analysis/verify"
	"microscope/attack/microscope"
	"microscope/attack/platform"
	"microscope/attack/victim"
	"microscope/sim/cpu"
	"microscope/sim/sanitizer"
	"microscope/sim/trace"
)

// sanVerifyConfig trades differential trials for speed, like the
// verifier's own unit tests; the witness search itself is untouched.
func sanVerifyConfig() verify.Config {
	cfg := verify.DefaultConfig()
	cfg.Trials = 8
	return cfg
}

func mustRunSpecSan(t *testing.T, tgt SanTarget, cfg SpecSanConfig) *SpecSanResult {
	t.Helper()
	res, err := RunSpecSan(tgt, cfg)
	if err != nil {
		t.Fatalf("RunSpecSan(%s): %v", tgt.Name, err)
	}
	return res
}

func TestSpecSanThreeWayCrossValidation(t *testing.T) {
	for _, tgt := range SanTargets() {
		tgt := tgt
		t.Run(tgt.Name, func(t *testing.T) {
			// Leg 1+2: dynamic run reconciled against the static scanner.
			res := mustRunSpecSan(t, tgt, DefaultSpecSanConfig())
			if res.Replays == 0 {
				t.Errorf("module never replayed the handle (windows=%d)", len(res.Windows))
			}
			if un := res.Reconciliation.Unexplained(); len(un) > 0 {
				t.Errorf("unexplained static/dynamic disagreements:\n%v", un)
			}
			if got, want := len(res.Reconciliation.Entries), len(res.Report.Findings); got < want {
				t.Errorf("reconciliation covers %d entries, static has %d findings", got, want)
			}

			// Leg 3: the verifier's simulator-checked witnesses.
			lay, err := tgt.Build()
			if err != nil {
				t.Fatal(err)
			}
			sub := verify.NewSubject(lay)
			sub.Handle = lay.Sym(tgt.Handle)
			vres, err := verify.Verify(sub, sanVerifyConfig())
			if err != nil {
				t.Fatalf("verify: %v", err)
			}
			switch vres.Verdict {
			case verify.Leaky:
				w := vres.Witness
				if w == nil {
					t.Fatal("LEAKY verdict without a witness")
				}
				covered := make(map[string]bool)
				for _, asg := range []verify.Assignment{w.A, w.B} {
					cfg := DefaultSpecSanConfig()
					cfg.Assignment = &asg
					wres := mustRunSpecSan(t, tgt, cfg)
					if un := wres.Reconciliation.Unexplained(); len(un) > 0 {
						t.Errorf("witness run: unexplained disagreements:\n%v", un)
					}
					for ch := range wres.Channels() {
						covered[ch] = true
					}
				}
				if !covered[w.Channel.String()] {
					t.Errorf("witness channel %s not covered by sanitizer findings %v (false negative)",
						w.Channel, covered)
				}
			case verify.ProvenSafe:
				if len(res.Findings) > 0 {
					t.Errorf("verifier proved %s safe but sanitizer found %d transmits (false positive)",
						tgt.Name, len(res.Findings))
				}
			default:
				t.Logf("verdict %s (%s); witness coverage not applicable", vres.Verdict, vres.Reason)
			}
		})
	}
}

// assembleSanRig builds a rig with the target installed and armed,
// optionally with a seeded sanitizer attached, ready for Start+Run.
// It mirrors RunSpecSanLayout's setup but leaves the tracer and run
// loop to the caller.
func assembleSanRig(t *testing.T, tgt SanTarget, attach bool) (*platform.Rig, *sanitizer.Sanitizer, *victim.Layout) {
	t.Helper()
	lay, err := tgt.Build()
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
	var san *sanitizer.Sanitizer
	if attach {
		san = sanitizer.New(rig.Core, sanitizer.DefaultConfig())
		for _, r := range lay.SecretRegs {
			san.SeedReg(0, r, r.String())
		}
		for i, name := range lay.SecretRegions {
			rng := lay.SecretMems()[i]
			if err := san.SeedMemory(rig.Victim.AddressSpace(), rng[0], rng[1], name); err != nil {
				t.Fatal(err)
			}
		}
		rig.Core.SetShadow(san)
	}
	d := verify.DefaultConfig()
	rcp := &microscope.Recipe{
		Name:           "specsan-" + lay.Name,
		Victim:         rig.Victim,
		Handle:         lay.Sym(tgt.Handle),
		HandlerLatency: d.HandlerLatency,
		MaxReplays:     d.Replays,
	}
	if err := rig.Module.Install(rcp); err != nil {
		t.Fatal(err)
	}
	return rig, san, lay
}

// TestSpecSanAttachedTraceIdentity runs the same full attack twice —
// sanitizer detached and attached — hashing every tracer event. The
// hashes must agree: the shadow engine observes the machine, it never
// steers it.
func TestSpecSanAttachedTraceIdentity(t *testing.T) {
	run := func(attach bool) (uint64, uint64) {
		tgt, err := FindSanTarget("loopsecret")
		if err != nil {
			t.Fatal(err)
		}
		rig, _, lay := assembleSanRig(t, tgt, attach)
		h := trace.NewHasher()
		rig.Core.SetTracer(h)
		lay.Start(rig.Kernel, 0)
		if err := rig.Run(verify.DefaultConfig().MaxCycles); err != nil {
			t.Fatal(err)
		}
		return h.Sum64(), h.Events()
	}
	offSum, offN := run(false)
	onSum, onN := run(true)
	if offSum != onSum || offN != onN {
		t.Errorf("attached sanitizer perturbed the trace: off=(%#x,%d events) on=(%#x,%d events)",
			offSum, offN, onSum, onN)
	}
}

// TestSpecSanCheckpointShadowRoundTrip pauses a sanitized attack
// mid-flight, checkpoints the whole machine plus the shadow snapshot,
// resumes both the original rig and a freshly booted restore, and
// requires the two final states — events, dispositions, and the full
// gob-encoded shadow snapshot — to be bit-identical to each other and
// to an uninterrupted run.
func TestSpecSanCheckpointShadowRoundTrip(t *testing.T) {
	tgt, err := FindSanTarget("loopsecret")
	if err != nil {
		t.Fatal(err)
	}
	budget := verify.DefaultConfig().MaxCycles

	// Uninterrupted reference run.
	rigA, sanA, layA := assembleSanRig(t, tgt, true)
	layA.Start(rigA.Kernel, 0)
	if err := rigA.Run(budget); err != nil {
		t.Fatal(err)
	}
	sanA.Flush()
	total := rigA.Core.Cycle()
	if total < 4 {
		t.Fatalf("run too short to pause: %d cycles", total)
	}

	// Paused run: stop halfway, checkpoint machine + shadow.
	rigB, sanB, layB := assembleSanRig(t, tgt, true)
	layB.Start(rigB.Kernel, 0)
	rigB.Core.Run(total / 2)
	if rigB.Core.Halted() {
		t.Fatalf("halted before the pause point (%d cycles)", total/2)
	}
	cp, err := rigB.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	shadowAtPause := gobBytes(t, sanB.Snap())

	// Restore into a fresh platform and fresh sanitizer.
	rigC, err := cp.Boot()
	if err != nil {
		t.Fatal(err)
	}
	var snap sanitizer.Snapshot
	if err := gob.NewDecoder(bytes.NewReader(shadowAtPause)).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	sanC := sanitizer.New(rigC.Core, sanitizer.DefaultConfig())
	if err := sanC.Restore(&snap); err != nil {
		t.Fatal(err)
	}
	rigC.Core.SetShadow(sanC)
	if got := gobBytes(t, sanC.Snap()); !bytes.Equal(got, shadowAtPause) {
		t.Fatal("shadow snapshot not bit-identical immediately after restore")
	}

	// Resume both; they must converge on the reference run exactly.
	if err := rigB.Run(budget); err != nil {
		t.Fatal(err)
	}
	sanB.Flush()
	if err := rigC.Run(budget); err != nil {
		t.Fatal(err)
	}
	sanC.Flush()

	if b, c := rigB.Core.Cycle(), rigC.Core.Cycle(); b != c || b != total {
		t.Errorf("cycle counts diverged: uninterrupted=%d paused=%d restored=%d", total, b, c)
	}
	if !reflect.DeepEqual(sanB.Events(), sanC.Events()) {
		t.Error("restored run's transmit events differ from the paused run's")
	}
	finalA := gobBytes(t, sanA.Snap())
	finalB := gobBytes(t, sanB.Snap())
	finalC := gobBytes(t, sanC.Snap())
	if !bytes.Equal(finalA, finalB) {
		t.Error("pausing perturbed the final shadow state")
	}
	if !bytes.Equal(finalB, finalC) {
		t.Error("checkpoint/restore did not round-trip shadow state bit-identically")
	}
}

// mutantLayout derives a victim mutant from fuzz input: a builtin family
// selector plus parameter entropy. Returns nil for parameterizations the
// victim constructors reject.
func mutantLayout(sel uint8, a uint64, tail []byte) (*victim.Layout, string) {
	switch sel % 4 {
	case 0:
		return victim.SingleSecret(int(a%64), a&1 == 0), "count"
	case 1:
		return victim.ControlFlowSecret(a&1 == 1), "handle"
	case 2:
		secrets := tail
		if len(secrets) == 0 {
			secrets = []byte{byte(a)}
		}
		if len(secrets) > 8 {
			secrets = secrets[:8]
		}
		clipped := make([]byte, len(secrets))
		for i, b := range secrets {
			clipped[i] = b & 0x0f
		}
		return victim.LoopSecret(clipped), "handle"
	default:
		base := 2 + a%13
		exp := 1 + (a>>8)%31
		mod := 3 + (a>>16)%94
		bits := 1 + int((a>>24)%4)
		v, err := victim.NewModExpVictim(base, exp, mod, bits)
		if err != nil {
			return nil, ""
		}
		return v.Layout, "handle"
	}
}

// FuzzSpecSanCoverage mutates victims and asserts the no-false-negative
// invariant: whenever the verifier proves a mutant LEAKY with a
// simulator-checked witness, replaying the witness assignments under
// SpecSan must surface the witness channel, and the static/dynamic
// reconciliation must stay fully explained.
func FuzzSpecSanCoverage(f *testing.F) {
	// Seed corpus: the builtin parameterizations of each mutant family.
	f.Add(uint8(0), uint64(3), []byte{})                     // singlesecret(3, subnormal)
	f.Add(uint8(0), uint64(7), []byte{})                     // singlesecret, int divide
	f.Add(uint8(1), uint64(1), []byte{})                     // controlflow(true)
	f.Add(uint8(1), uint64(0), []byte{})                     // controlflow(false)
	f.Add(uint8(2), uint64(0), []byte{3, 1, 4, 1, 5})        // loopsecret builtin
	f.Add(uint8(3), uint64(5|0xb<<8|94<<16|3<<24), []byte{}) // modexp-like
	f.Fuzz(func(t *testing.T, sel uint8, a uint64, tail []byte) {
		lay, handleSym := mutantLayout(sel, a, tail)
		if lay == nil {
			t.Skip("constructor rejected parameterization")
		}
		if _, ok := lay.Symbols[handleSym]; !ok {
			t.Skip("mutant has no replay handle symbol")
		}
		vcfg := verify.DefaultConfig()
		vcfg.Trials = 4
		vcfg.MaxWitnessPairs = 3
		sub := verify.NewSubject(lay)
		sub.Handle = lay.Sym(handleSym)
		vres, err := verify.Verify(sub, vcfg)
		if err != nil {
			t.Skipf("verifier rejected mutant: %v", err)
		}
		if vres.Verdict != verify.Leaky {
			return
		}
		w := vres.Witness
		if w == nil {
			t.Fatal("LEAKY verdict without witness")
		}
		covered := make(map[string]bool)
		for _, asg := range []verify.Assignment{w.A, w.B} {
			cfg := DefaultSpecSanConfig()
			cfg.Assignment = &asg
			// Rebuild per run: RunSpecSanLayout patches a copy, but the
			// mutant layout itself is cheap to share.
			res, err := RunSpecSanLayout(lay.Name, lay, handleSym, cfg)
			if err != nil {
				t.Fatalf("sanitized replay of witness: %v", err)
			}
			if un := res.Reconciliation.Unexplained(); len(un) > 0 {
				t.Errorf("unexplained static/dynamic disagreement on mutant:\n%v", un)
			}
			for ch := range res.Channels() {
				covered[ch] = true
			}
		}
		if !covered[w.Channel.String()] {
			t.Errorf("sel=%d a=%#x: witness channel %s not covered by sanitizer findings %v",
				sel, a, w.Channel, covered)
		}
	})
}
