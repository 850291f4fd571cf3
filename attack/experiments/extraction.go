package experiments

import (
	"bytes"
	"fmt"

	"microscope/analysis/sweep"
	"microscope/attack/microscope"
	"microscope/crypto/taes"
	"microscope/sim/mem"
)

// ExtractionResult is the outcome of the full §6.2 attack: all T-table
// cache-line accesses of one AES decryption, extracted in a single
// logical victim run by alternating rk-page replay handles and Td0-page
// pivots.
type ExtractionResult struct {
	Rounds int
	// Extracted[r][t] is the recovered line mask for round r, table t
	// (t=4 is Td4, populated only for the final round).
	Extracted map[int][5]uint16
	// Truth is the reference trace's masks.
	Truth map[int][5]uint16
	// Faults is the total page faults the attack used.
	Faults int
	// Cycles is the simulated-cycle cost of the whole extraction.
	Cycles uint64
	// PlaintextOK reports that the victim still produced the correct
	// plaintext (forward progress, §4.1.4 step 6).
	PlaintextOK bool
}

// Match reports whether extraction equals ground truth for every round
// and table the attack targets.
func (e *ExtractionResult) Match() (bool, string) {
	for r := 1; r <= e.Rounds; r++ {
		tables := []int{0, 1, 2, 3}
		if r == e.Rounds {
			tables = []int{4}
		}
		for _, t := range tables {
			if e.Extracted[r][t] != e.Truth[r][t] {
				return false, fmt.Sprintf("round %d Td%d: extracted %016b, truth %016b",
					r, t, e.Extracted[r][t], e.Truth[r][t])
			}
		}
	}
	return true, ""
}

// RunAESExtraction mounts the full single-run AES attack of §6.2.
//
// Round 1 is recovered through a replay handle *before* the cipher loop
// (the victim's stack spill between key setup and round 1 — the paper's
// §4.4 footnote fix), with the rk page armed simultaneously so that every
// round-1 table lookup executes in the window while round 2 stays blocked
// on the faulted rk chain.
//
// Rounds 2..Nr are recovered by alternating the rk-page handle and
// Td0-page pivot column by column (§4.4): the fault on round r's first rk
// access opens a window, W(rk@r, col0), whose replay executes all 16 of
// round r's table lookups (round r+1 is data-blocked on the faulted rk
// loads), and the pivot single-steps the victim to the next round.
func RunAESExtraction(cfg AESConfig) (*ExtractionResult, error) {
	ar, ct, err := newAESRig(cfg)
	if err != nil {
		return nil, err
	}
	return runAESExtraction(ar, cfg, ct)
}

// runAESExtraction mounts the attack on an assembled AES rig — fresh
// from newAESRig, or forked from a post-install checkpoint with the
// trial ciphertext swapped in (forkAESRig). The two arrive with
// identical machine state, so the results are identical too.
func runAESExtraction(ar *aesRig, cfg AESConfig, ct []byte) (*ExtractionResult, error) {
	truth, err := truthMasks(cfg.Key, ct)
	if err != nil {
		return nil, err
	}
	nr := ar.vic.Cipher.Rounds()
	res := &ExtractionResult{
		Rounds:    nr,
		Extracted: make(map[int][5]uint16),
		Truth:     truth,
	}

	var attackErr error
	fail := func(err error) microscope.Decision {
		if attackErr == nil {
			attackErr = err
		}
		return microscope.Release
	}

	var round1Masks [5]uint16
	wRK := map[[2]int][5]uint16{} // (round, col) -> probed masks

	// Phase B: rk handle + Td0 pivot stepping through rounds 2..Nr.
	recB := &microscope.Recipe{
		Name:           "aes-extract",
		Victim:         ar.Victim,
		Handle:         ar.vic.Sym("rk"),
		Pivot:          ar.vic.Sym("td0"),
		WalkLevels:     cfg.WalkLevels,
		HandlerLatency: cfg.HandlerLatency,
	}
	r, c := 1, 0
	arrival := 0
	recB.OnReplay = func(ev microscope.Event) microscope.Decision {
		res.Faults++
		if ev.OnPivot {
			// Pivot fault at (r, c): single-step to the next column.
			if c == 3 {
				r, c = r+1, 0
			} else {
				c++
			}
			return microscope.Pivot
		}
		// Handle (rk) fault at (r, c): prime+replay+probe at each
		// round's first column.
		if c == 0 && r >= 2 {
			switch arrival {
			case 0:
				arrival++
				if err := ar.prime(); err != nil {
					return fail(err)
				}
				return microscope.Replay
			default:
				arrival = 0
				masks, err := ar.probeMasks()
				if err != nil {
					return fail(err)
				}
				wRK[[2]int{r, c}] = masks
				if r == nr {
					return microscope.Release // final round probed: done
				}
			}
		}
		return microscope.Pivot
	}

	// Phase A: the pre-loop stack handle, with the rk page armed under
	// recB at the same time so the window is confined to round 1.
	recA := &microscope.Recipe{
		Name:           "aes-preloop",
		Victim:         ar.Victim,
		Handle:         ar.vic.Sym("stack"),
		WalkLevels:     cfg.WalkLevels,
		HandlerLatency: cfg.HandlerLatency,
	}
	stepA := 0
	recA.OnReplay = func(ev microscope.Event) microscope.Decision {
		res.Faults++
		stepA++
		switch stepA {
		case 1:
			// First arrival: the prologue (incl. its rk loads) has
			// retired. Arm the rk page via recB, prime, and replay: the
			// window now executes exactly round 1's 16 lookups.
			if err := ar.Module.Install(recB); err != nil {
				return fail(err)
			}
			if err := ar.prime(); err != nil {
				return fail(err)
			}
			return microscope.Replay
		default:
			masks, err := ar.probeMasks()
			if err != nil {
				return fail(err)
			}
			round1Masks = masks
			return microscope.Release
		}
	}
	if err := ar.Module.Install(recA); err != nil {
		return nil, err
	}

	start := ar.Core.Cycle()
	ar.vic.Start(ar.Kernel, 0)
	if err := ar.Run(200_000_000); err != nil {
		return nil, err
	}
	res.Cycles = ar.Core.Cycle() - start
	if attackErr != nil {
		return nil, attackErr
	}

	// Assemble per-round masks.
	round1Masks[4] = 0
	res.Extracted[1] = round1Masks
	for round := 2; round <= nr; round++ {
		m := wRK[[2]int{round, 0}]
		if round == nr {
			m = [5]uint16{4: m[4]}
		} else {
			m[4] = 0
		}
		res.Extracted[round] = m
	}

	pt, err := ar.vic.Plaintext(func(va mem.Addr) (uint64, error) {
		return ar.Victim.AddressSpace().Read64Virt(va)
	})
	if err != nil {
		return nil, err
	}
	res.PlaintextOK = bytes.Equal(pt, cfg.Plaintext)
	return res, nil
}

// RunAESExtractionSweep mounts one full §6.2 extraction per plaintext,
// fanned out over the sweep worker pool. Trials fork from a single warm
// post-install checkpoint instead of cold-booting a 64 MB platform
// each: the template rig is checkpointed right after victim
// installation (before any recipe or cycle runs), every trial restores
// a pooled rig to that state, swaps its own ciphertext into the
// victim's in page, and mounts the attack. The returned slice is
// ordered by trial index and byte-identical to the cold-boot reference
// (RunAESExtractionSweepColdBoot) for any worker count (<= 0 selects
// GOMAXPROCS).
func RunAESExtractionSweep(cfg AESConfig, plaintexts [][]byte, workers int) ([]*ExtractionResult, error) {
	if len(plaintexts) == 0 {
		return nil, nil
	}
	template, _, err := newAESRig(cfg)
	if err != nil {
		return nil, err
	}
	cp, err := template.Checkpoint()
	if err != nil {
		return nil, err
	}
	pool := newRigPool(cp, template.Rig)
	return sweep.Run(len(plaintexts), sweep.Options{Workers: workers},
		func(trial int) (*ExtractionResult, error) {
			c := cfg
			c.Plaintext = plaintexts[trial]
			rig, err := pool.get()
			if err != nil {
				return nil, err
			}
			defer pool.put(rig)
			ar, ct, err := forkAESRig(template, rig, c)
			if err != nil {
				return nil, err
			}
			return runAESExtraction(ar, c, ct)
		})
}

// RunAESExtractionSweepColdBoot is RunAESExtractionSweep without the
// shared checkpoint: every trial assembles its own Rig/PhysMem/Core
// from scratch. It is the reference implementation the forked sweep is
// tested for byte-identity against.
func RunAESExtractionSweepColdBoot(cfg AESConfig, plaintexts [][]byte, workers int) ([]*ExtractionResult, error) {
	return sweep.Run(len(plaintexts), sweep.Options{Workers: workers},
		func(trial int) (*ExtractionResult, error) {
			c := cfg
			c.Plaintext = plaintexts[trial]
			return RunAESExtraction(c)
		})
}

// LinesOf expands a line mask into indices (reporting helper).
func LinesOf(mask uint16) []int {
	var out []int
	for i := 0; i < taes.LinesPerTable; i++ {
		if mask&(1<<uint(i)) != 0 {
			out = append(out, i)
		}
	}
	return out
}
