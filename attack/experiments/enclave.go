package experiments

import (
	"errors"

	"microscope/attack/microscope"
	"microscope/attack/platform"
	"microscope/attack/victim"
	"microscope/sim/cpu"
	"microscope/sim/enclave"
	"microscope/sim/mem"
)

// EnclaveAttackResult is the end-to-end SGX scenario of the paper's
// threat model (§3): the victim runs inside an enclave, the OS cannot
// read its memory, and MicroScope still extracts the secret through
// translation control — in one logical run.
type EnclaveAttackResult struct {
	// DirectReadBlocked: the OS's attempt to read the secret from
	// enclave memory was refused by the EPC check.
	DirectReadBlocked bool
	// AEXCount is how many asynchronous exits the enclave observed (one
	// per replay fault).
	AEXCount int
	// RecoveredSecret is the secret bit extracted over the side channel.
	RecoveredSecret int
	// TrueSecret is the bit the enclave actually held.
	TrueSecret int
	// PredictorFlushed confirms the enclave entry flushed the branch
	// predictor (the [12] countermeasure is on and is bypassed anyway).
	PredictorFlushed bool
	Replays          int
}

// RunEnclaveAttack mounts the whole scenario. The enclave manager's AEX
// observer must see every handle fault, and the first fault hook to
// handle a fault wins, so the MicroScope module is reloaded after the
// manager registers its observer.
func RunEnclaveAttack(secret bool) (*EnclaveAttackResult, error) {
	rig, err := platform.New(cpu.DefaultConfig())
	if err != nil {
		return nil, err
	}
	rig.Module.Unload()
	mgr := enclave.NewManager(rig.Kernel, rig.Core)
	rig.Module = microscope.NewModule(rig.Kernel)
	core, proc := rig.Core, rig.Victim

	// The victim program and its data pages: we reuse the control-flow
	// victim but house its secret page inside an enclave region. The
	// other regions are ordinary process memory.
	l := victim.ControlFlowSecret(secret)
	public := *l
	public.Regions = nil
	for _, reg := range l.Regions {
		if reg.Name != "secret" {
			public.Regions = append(public.Regions, reg)
		}
	}
	if err := rig.InstallVictim(&public); err != nil {
		return nil, err
	}
	// The secret page becomes the enclave's private memory.
	secretInit := make([]byte, 8)
	if secret {
		secretInit[0] = 1
	}
	encl, err := mgr.Create(proc, l.Sym("secret"), mem.PageSize, l.Prog, secretInit)
	if err != nil {
		return nil, err
	}

	res := &EnclaveAttackResult{}
	if secret {
		res.TrueSecret = 1
	}

	// The OS tries the direct route first — and is refused.
	if _, err := mgr.OSRead(proc, l.Sym("secret"), 8); errors.Is(err, enclave.ErrEPCAccessDenied) {
		res.DirectReadBlocked = true
	}

	// Predictor primed by the attacker, then flushed at enclave entry:
	// the flush itself puts it into the known all-not-taken state
	// (§4.2.3: flushing helps the adversary).
	ctx := core.Context(0)
	ctx.Predictor().Prime(l.Mark("branch"), true, 0)
	if err := mgr.Enter(encl, 0, 0); err != nil {
		return nil, err
	}
	res.PredictorFlushed = !ctx.Predictor().PredictDirection(l.Mark("branch"))

	// Attack: replay on the handle; decide the branch direction from
	// divider occupancy deltas across replays.
	var lastBusy uint64
	divReplays := 0
	rec := &microscope.Recipe{
		Name:       "enclave-cf",
		Victim:     proc,
		Handle:     l.Sym("handle"),
		MaxReplays: 12,
	}
	rec.OnReplay = func(ev microscope.Event) microscope.Decision {
		busy := core.Ports().DivBusyCycles
		if busy > lastBusy {
			divReplays++
		}
		lastBusy = busy
		res.Replays = ev.Replays
		if ev.Replays >= rec.MaxReplays {
			return microscope.Release
		}
		return microscope.Replay
	}
	if err := rig.Module.Install(rec); err != nil {
		return nil, err
	}
	if err := rig.Run(50_000_000); err != nil {
		return nil, err
	}
	if divReplays > rec.MaxReplays/2 {
		res.RecoveredSecret = 1
	}
	res.AEXCount = len(encl.AEXLog())
	return res, nil
}
