package baseline

import "microscope/crypto/taes"

// SGXStepResult contrasts interrupt-driven single-stepping (SGX-Step
// [57], CacheZoom [40] — Table 1's fine-grain/high-resolution/noisy cell)
// with MicroScope on the AES victim. Stepping reaches high temporal
// resolution, but each step yields exactly ONE measurement of a run-once
// victim, and that measurement is inherently polluted: the out-of-order
// core speculatively runs up to a ROB's worth of instructions ahead of
// the interrupted retirement point, filling the cache with FUTURE rounds'
// accesses, and step windows span round boundaries. The result is
// per-round attribution errors even with a perfect probe — Table 1's
// "With Noise" row, and why §2.4 says these attacks "still require
// multiple runs of the application to denoise". MicroScope replays each
// window within one run instead and extracts exactly.
type SGXStepResult struct {
	// Steps is the number of timer interrupts delivered.
	Steps int
	// TruePerRound / ExtractedPerRound are Td1 line masks per round.
	TruePerRound      map[int]uint16
	ExtractedPerRound map[int]uint16
	// RoundErrors counts rounds whose extracted mask differs from truth.
	RoundErrors int
}

// RunSGXStep single-steps the AES victim with timer interrupts every
// `interval` retired instructions, prime+probing Td1 between steps. The
// jitter knob injects the measurement noise the technique suffers in
// practice (cache pollution from the interrupt path itself, prefetching,
// timer variance): each probe misclassifies a line with the period given
// by noisePeriod (0 disables).
func RunSGXStep(key, plaintext []byte, interval uint64, noisePeriod int) (*SGXStepResult, error) {
	c, err := taes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	ct := make([]byte, taes.BlockSize)
	c.Encrypt(ct, plaintext)

	// Ground truth per round.
	out := make([]byte, taes.BlockSize)
	truth := map[int]uint16{}
	for _, a := range c.DecryptTrace(out, ct) {
		if a.Table == 1 {
			truth[a.Round] |= 1 << uint(a.Line())
		}
	}

	rig, vic, td1, err := bootAESTd1(key, ct)
	if err != nil {
		return nil, err
	}
	core := rig.Core
	noiseTick := 0
	probe := func() uint16 {
		mask := uint16(td1.Hot())
		for line := range taes.LinesPerTable {
			if noisePeriod > 0 {
				noiseTick++
				if noiseTick%noisePeriod == 0 {
					mask ^= 1 << line // pollution/prefetch misclassification
				}
			}
		}
		return mask
	}

	// Instruction index -> round, for attributing steps to rounds: round
	// r spans [RKLoads[r,0], RKLoads[r+1,0]).
	starts := make([]int, c.Rounds()+1)
	for r := 1; r <= c.Rounds(); r++ {
		starts[r] = vic.RKLoads[[2]int{r, 0}]
	}
	roundOf := func(pc int) int {
		round := 0
		for r := 1; r <= c.Rounds(); r++ {
			if pc >= starts[r] {
				round = r
			}
		}
		return round
	}

	res := &SGXStepResult{
		TruePerRound:      truth,
		ExtractedPerRound: map[int]uint16{},
	}

	td1.FlushAll()
	vic.Start(rig.Kernel, 0)
	ctx := core.Context(0)
	lastRetired := uint64(0)
	stepped := func() bool { return ctx.Stats().Retired >= lastRetired+interval }
	err = rig.RunReacting(100_000_000, stepped, func() error {
		lastRetired = ctx.Stats().Retired
		res.Steps++
		core.Preempt(0, 200) // the AEX + attacker code per step
		// After the preempt, PC() is the precise resume point (the
		// oldest unretired instruction) — the best attribution anchor
		// an interrupt-stepping attacker has.
		if r := roundOf(ctx.PC()); r >= 1 {
			res.ExtractedPerRound[r] |= probe()
		}
		td1.FlushAll()
		return nil
	})
	if err != nil {
		return nil, err
	}
	for r := 1; r < c.Rounds(); r++ {
		if res.ExtractedPerRound[r] != truth[r] {
			res.RoundErrors++
		}
	}
	return res, nil
}
