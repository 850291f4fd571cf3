package experiments

import (
	"strings"
	"testing"

	"microscope/attack/microscope"
	"microscope/attack/platform"
)

func TestRDRANDBiasSucceedsUnfenced(t *testing.T) {
	for _, target := range []uint64{0, 1} {
		res, err := RunRDRANDBias(target, 200, false)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Observed {
			t.Fatalf("target %d: side channel never observed the draw", target)
		}
		if !res.Achieved {
			t.Errorf("target %d: bias failed (final bit %d, windows %d)",
				target, res.FinalLowBit, res.Windows)
		}
	}
}

// With Intel's fence inside RDRAND, the transmit never executes in the
// shadow of the walk: the attacker is blind and the attack fails — the
// paper's conclusion that the fence (accidentally) provides security.
func TestRDRANDBiasBlockedByFence(t *testing.T) {
	res, err := RunRDRANDBias(0, 50, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Observed {
		t.Error("fenced RDRAND was observable over the side channel")
	}
	if res.Achieved {
		t.Error("fenced RDRAND was biased")
	}
	if res.Windows < 50 {
		t.Errorf("attacker gave up after %d windows, want %d (blind replays)", res.Windows, 50)
	}
}

// A fault-handler failure halts the victim; the attack reports the
// module's error instead of reading the halted victim's output as a
// result. The fenced attacker is blind and gives up, so the release it
// asks for is the step that fails.
func TestRDRANDBiasReportsHandlerFailure(t *testing.T) {
	res, err := runRDRANDBias(0, 5, true, func(rig *platform.Rig, rec *microscope.Recipe) {
		breakRelease(t, rig, rec)
	})
	if err == nil || !strings.Contains(err.Error(), "microscope: release failed") {
		t.Fatalf("runRDRANDBias = %+v, %v; want the module's release failure", res, err)
	}
}
