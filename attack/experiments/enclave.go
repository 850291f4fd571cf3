package experiments

import (
	"errors"
	"fmt"

	"microscope/attack/microscope"
	"microscope/attack/victim"
	"microscope/sim/cpu"
	"microscope/sim/enclave"
	"microscope/sim/kernel"
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

// RunEnclaveAttack mounts the whole scenario. It builds its platform by
// hand instead of with NewRig: the enclave manager's AEX observer must
// register its fault hook before the MicroScope module does, because the
// first hook to handle a fault wins and the observer has to see every
// handle fault.
func RunEnclaveAttack(secret bool) (*EnclaveAttackResult, error) {
	phys := mem.NewPhysMem(victim.PlatformMemBytes)
	core := cpu.NewCore(cpu.DefaultConfig(), phys)
	k := kernel.New(kernel.DefaultConfig(), phys, core)
	mgr := enclave.NewManager(k, core)
	mod := microscope.NewModule(k)

	proc, err := k.NewProcess("enclave-host")
	if err != nil {
		return nil, err
	}
	k.Schedule(0, proc)

	// The victim program and its data pages: we reuse the control-flow
	// victim but house its secret page inside an enclave region.
	l := victim.ControlFlowSecret(secret)
	// Install the non-secret regions as ordinary process memory.
	for _, reg := range l.Regions {
		if reg.Name == "secret" {
			continue
		}
		v := k.AddVMA(proc, reg.VA, reg.VA+reg.Size, reg.Flags, reg.Name)
		if err := k.MapEager(proc, v); err != nil {
			return nil, err
		}
		if len(reg.Init) > 0 {
			if err := proc.AddressSpace().WriteVirt(reg.VA, reg.Init); err != nil {
				return nil, err
			}
		}
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
	if err := mod.Install(rec); err != nil {
		return nil, err
	}
	core.Run(50_000_000)
	if !ctx.Halted() {
		return nil, fmt.Errorf("experiments: enclave victim did not finish")
	}
	if divReplays > rec.MaxReplays/2 {
		res.RecoveredSecret = 1
	}
	res.AEXCount = len(encl.AEXLog())
	return res, nil
}
