package experiments

import (
	"testing"

	"microscope/attack/platform"
	"microscope/attack/victim"
	"microscope/sim/cpu"
)

func TestEnclaveEndToEnd(t *testing.T) {
	for _, secret := range []bool{false, true} {
		res, err := RunEnclaveAttack(secret)
		if err != nil {
			t.Fatal(err)
		}
		if !res.DirectReadBlocked {
			t.Error("OS read of enclave memory was not blocked")
		}
		if !res.PredictorFlushed {
			t.Error("enclave entry did not flush the branch predictor")
		}
		if res.RecoveredSecret != res.TrueSecret {
			t.Errorf("secret=%t: recovered %d, want %d",
				secret, res.RecoveredSecret, res.TrueSecret)
		}
		if res.AEXCount == 0 {
			t.Error("no AEX events during the replay attack")
		}
		if res.Replays < 10 {
			t.Errorf("replays = %d", res.Replays)
		}
	}
}

func TestSubnormalDetection(t *testing.T) {
	res, err := RunSubnormal(2_000)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("threshold=%d normalOver=%d subnormalOver=%d maxN=%d maxS=%d",
		res.Threshold, res.NormalOver, res.SubnormalOver, res.MaxNormal, res.MaxSubnormal)
	if !res.Detected() {
		t.Error("subnormal divide not detected")
	}
	// The subnormal divide's occupancy is ~SubnormalPenalty longer: the
	// strongest contended sample reflects that.
	if res.MaxSubnormal < res.MaxNormal+50 {
		t.Errorf("max sample %d vs %d: penalty not visible", res.MaxSubnormal, res.MaxNormal)
	}
}

func TestDenoiseConfidence(t *testing.T) {
	for _, secret := range []bool{false, true} {
		res, err := RunDenoise(secret, 20)
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != res.Truth {
			t.Errorf("secret=%t: verdict %t", secret, res.Verdict)
		}
		if len(res.Observations) != 20 {
			t.Errorf("observations = %d", len(res.Observations))
		}
		if res.ReplaysTo90 < 0 || res.ReplaysTo90 > 5 {
			t.Errorf("secret=%t: replays to 90%% = %d; denoising should converge fast",
				secret, res.ReplaysTo90)
		}
	}
}

func TestModExpExponentExtraction(t *testing.T) {
	for _, exp := range []uint64{0xB5C3, 0x8001, 0xFFFF, 0x0001} {
		res, err := RunModExp(0x1234, exp, 0xF001D, 16)
		if err != nil {
			t.Fatalf("exp %#x: %v", exp, err)
		}
		if !res.Match() {
			t.Errorf("exp %#x: recovered %#x", res.TrueExp, res.RecoveredExp)
		}
		if !res.ResultOK {
			t.Errorf("exp %#x: victim result wrong", exp)
		}
	}
}

func TestModExpVictimComputesCorrectly(t *testing.T) {
	// Pure victim run (no attack): result must match software modexp.
	vic, err := victim.NewModExpVictim(777, 0xA5A5, 99991, 16)
	if err != nil {
		t.Fatal(err)
	}
	rig, err := platform.New(cpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := rig.InstallVictim(vic.Layout); err != nil {
		t.Fatal(err)
	}
	vic.Start(rig.Kernel, 0)
	if err := rig.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	out, err := rig.Victim.AddressSpace().Read64Virt(vic.Sym("out"))
	if err != nil {
		t.Fatal(err)
	}
	if out != vic.ModExpResult() {
		t.Errorf("victim computed %d, want %d", out, vic.ModExpResult())
	}
	// Cross-check the software helper against naive exponentiation.
	want := uint64(1)
	for i := 0; i < 0xA5A5; i++ {
		want = want * 777 % 99991
	}
	if vic.ModExpResult() != want {
		t.Errorf("ModExpResult = %d, naive = %d", vic.ModExpResult(), want)
	}
}
