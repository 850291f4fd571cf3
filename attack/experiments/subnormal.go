package experiments

import (
	"fmt"

	"microscope/analysis/sidechan"
	"microscope/attack/microscope"
	"microscope/attack/monitor"
	"microscope/attack/platform"
	"microscope/attack/victim"
	"microscope/sim/cpu"
)

// SubnormalResult reports the Fig. 5 attack: detecting whether a single
// floating-point divide received a subnormal input, by denoising the
// divider-occupancy channel across replays of getSecret.
type SubnormalResult struct {
	// Samples are the monitor's latency measurements for the subnormal
	// and normal victims.
	NormalSamples    []uint64
	SubnormalSamples []uint64
	// Threshold separates contended from uncontended samples; both
	// victims contend equally often (one divide per replay window).
	Threshold     uint64
	NormalOver    int
	SubnormalOver int
	// HighThreshold sits above the strongest contention a *normal*
	// divide can cause; only the subnormal divide's ~6x-longer occupancy
	// pushes samples past it.
	HighThreshold uint64
	NormalHigh    int
	SubnormalHigh int
	MaxNormal     uint64
	MaxSubnormal  uint64
}

// Detected reports the verdict: subnormal inputs produce dramatically
// longer contention events (the magnitude, not the rate, is the signal).
func (r *SubnormalResult) Detected() bool {
	return r.SubnormalHigh > 3 && r.NormalHigh == 0 && r.MaxSubnormal > r.MaxNormal
}

// RunSubnormal runs the Fig. 5 single-secret attack for both a normal and
// a subnormal secrets[id], replaying the victim while an SMT monitor
// measures division latencies.
func RunSubnormal(samples int) (*SubnormalResult, error) {
	run := func(subnormal bool) ([]uint64, error) {
		rig, err := platform.New(cpu.DefaultConfig())
		if err != nil {
			return nil, err
		}
		vic := victim.SingleSecret(7, subnormal)
		if err := rig.InstallVictim(vic); err != nil {
			return nil, err
		}
		mon := monitor.PortContention(samples, 2)
		if err := rig.AddMonitor(mon); err != nil {
			return nil, err
		}
		rec := &microscope.Recipe{
			Name:           "fig5",
			Victim:         rig.Victim,
			Handle:         vic.Sym("count"),
			HandlerLatency: 5_000,
		}
		rec.OnReplay = func(ev microscope.Event) microscope.Decision {
			if rig.Core.Context(1).Halted() {
				return microscope.Release
			}
			return microscope.Replay
		}
		if err := rig.Module.Install(rec); err != nil {
			return nil, err
		}
		vic.Start(rig.Kernel, 0)
		mon.Start(rig.Kernel, 1)
		if err := rig.Run(uint64(samples)*2_000 + 10_000_000); err != nil {
			return nil, err
		}
		return monitor.ReadSamples(rig.Monitor, samples)
	}

	normal, err := run(false)
	if err != nil {
		return nil, fmt.Errorf("normal victim: %w", err)
	}
	sub, err := run(true)
	if err != nil {
		return nil, fmt.Errorf("subnormal victim: %w", err)
	}
	res := &SubnormalResult{NormalSamples: normal, SubnormalSamples: sub}
	res.Threshold = sidechan.CalibrateThreshold(normal, 0.99, 8)
	res.NormalOver = sidechan.Classify(normal, res.Threshold).Over
	res.SubnormalOver = sidechan.Classify(sub, res.Threshold).Over
	for _, s := range normal {
		if s > res.MaxNormal {
			res.MaxNormal = s
		}
	}
	for _, s := range sub {
		if s > res.MaxSubnormal {
			res.MaxSubnormal = s
		}
	}
	res.HighThreshold = res.MaxNormal + 10
	res.NormalHigh = sidechan.Classify(normal, res.HighThreshold).Over
	res.SubnormalHigh = sidechan.Classify(sub, res.HighThreshold).Over
	return res, nil
}

// DenoiseCurve measures how classification confidence grows with replay
// count for the control-flow-secret victim: each replay contributes one
// boolean observation ("was divider occupancy seen this window?"), and
// the attack majority-votes over them — the generic denoising loop of
// §4.1.4 steps 2–5.
type DenoiseCurve struct {
	// Observations[i] is the per-replay verdict for replay i+1.
	Observations []bool
	// ReplaysTo90 is the number of replays after which the majority vote
	// first reaches 90% confidence (-1 if never).
	ReplaysTo90 int
	// Verdict is the final majority decision; Truth the actual secret.
	Verdict bool
	Truth   bool
}

// RunDenoise runs the denoising loop for the given secret with the given
// replay budget.
func RunDenoise(secret bool, replays int) (*DenoiseCurve, error) {
	rig, err := platform.New(cpu.DefaultConfig())
	if err != nil {
		return nil, err
	}
	vic := victim.ControlFlowSecret(secret)
	if err := rig.InstallVictim(vic); err != nil {
		return nil, err
	}
	res := &DenoiseCurve{Truth: secret}
	var lastBusy uint64
	rec := &microscope.Recipe{
		Name:       "denoise",
		Victim:     rig.Victim,
		Handle:     vic.Sym("handle"),
		MaxReplays: replays,
	}
	rec.OnReplay = func(ev microscope.Event) microscope.Decision {
		busy := rig.Core.Ports().DivBusyCycles
		res.Observations = append(res.Observations, busy > lastBusy)
		lastBusy = busy
		if ev.Replays >= replays {
			return microscope.Release
		}
		return microscope.Replay
	}
	if err := rig.Module.Install(rec); err != nil {
		return nil, err
	}
	vic.Start(rig.Kernel, 0)
	if err := rig.Run(100_000_000); err != nil {
		return nil, err
	}
	res.Verdict, _ = sidechan.MajorityVote(res.Observations)
	res.ReplaysTo90 = sidechan.ReplaysToConfidence(res.Observations, 0.9)
	return res, nil
}
