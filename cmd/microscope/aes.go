package main

import (
	"errors"
	"flag"
	"fmt"
	"io"

	"microscope/analysis/sidechan"
	"microscope/attack/experiments"
	"microscope/crypto/taes"
)

// aesOptions is the parsed command line of `aes`, the paper's AES
// results: Figure 11 (the latency of each Td1 cache line after three
// replays of one decryption round) and, with -full, the §6.2 extraction
// of every T-table access of a single AES decryption in one logical
// victim run. With -keysweep N it also mounts N independent full
// extractions (one per deterministic trial plaintext) as a parallel
// sweep and recovers the high nibble of all 16 first-round key bytes by
// candidate elimination.
type aesOptions struct {
	cfg      experiments.AESConfig
	full     bool
	keysweep int
}

// parseAES parses and validates the arguments after `aes`.
func parseAES(args []string, errw io.Writer) (*aesOptions, error) {
	o := &aesOptions{cfg: experiments.DefaultAESConfig()}
	fs := flag.NewFlagSet("aes", flag.ContinueOnError)
	fs.SetOutput(errw)
	key := fs.String("key", string(o.cfg.Key), "AES key (16/24/32 bytes)")
	pt := fs.String("pt", string(o.cfg.Plaintext), "plaintext block (16 bytes)")
	fs.BoolVar(&o.full, "full", true, "also run the full-trace extraction (§6.2)")
	fs.IntVar(&o.keysweep, "keysweep", 0,
		"trials of the parallel first-round key-byte recovery sweep (0 = off)")
	if err := parseFlags(fs, args); err != nil {
		return nil, err
	}
	if err := noArgs("aes", fs.Args()); err != nil {
		return nil, err
	}
	switch {
	case len(*key) != 16 && len(*key) != 24 && len(*key) != 32:
		return nil, fmt.Errorf("aes: -key must be 16, 24 or 32 bytes, got %d", len(*key))
	case len(*pt) != taes.BlockSize:
		return nil, fmt.Errorf("aes: -pt must be %d bytes, got %d", taes.BlockSize, len(*pt))
	case o.keysweep < 0:
		return nil, fmt.Errorf("aes: -keysweep must be >= 0, got %d", o.keysweep)
	}
	o.cfg.Key = []byte(*key)
	o.cfg.Plaintext = []byte(*pt)
	return o, nil
}

func (o *aesOptions) run(out io.Writer) error {
	fig11, err := experiments.RunFig11(o.cfg)
	if err != nil {
		return err
	}

	fmt.Fprintln(out, "Figure 11 — latency of accesses to the Td1 table after each replay")
	fmt.Fprintln(out, "(replay 0: unprimed; replays 1-2: cache primed before the replay)")
	bands := sidechan.DefaultCacheBands()
	fmt.Fprintf(out, "\n%-6s %10s %10s %10s\n", "line", "replay 0", "replay 1", "replay 2")
	for line := 0; line < taes.LinesPerTable; line++ {
		fmt.Fprintf(out, "%-6d", line)
		for rep := 0; rep < 3; rep++ {
			lat := fig11.Latencies[rep][line]
			_, name := bands.Band(lat)
			fmt.Fprintf(out, " %5d %-4s", lat, name)
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "\nground-truth Td1 lines (round 1): %v\n", experiments.LinesOf(fig11.Truth))
	fmt.Fprintf(out, "extracted after replay 1:         %v\n", experiments.LinesOf(fig11.Extracted[0]))
	fmt.Fprintf(out, "extracted after replay 2:         %v\n", experiments.LinesOf(fig11.Extracted[1]))
	fmt.Fprintf(out, "replay 0 latency bands: %d; primed replays consistent and correct: %t\n",
		fig11.Replay0Bands, fig11.Consistent())

	if o.full {
		if err := o.runFull(out); err != nil {
			return err
		}
	}
	if o.keysweep > 0 {
		return o.runKeySweep(out)
	}
	return nil
}

func (o *aesOptions) runFull(out io.Writer) error {
	fmt.Fprintln(out, "\n§6.2 — full single-run extraction of all T-table accesses")
	ext, err := experiments.RunAESExtraction(o.cfg)
	if err != nil {
		return err
	}
	for r := 1; r <= ext.Rounds; r++ {
		if r == ext.Rounds {
			fmt.Fprintf(out, "round %2d: Td4 lines %v\n", r, experiments.LinesOf(ext.Extracted[r][4]))
			continue
		}
		fmt.Fprintf(out, "round %2d:", r)
		for t := 0; t < 4; t++ {
			fmt.Fprintf(out, " Td%d%v", t, experiments.LinesOf(ext.Extracted[r][t]))
		}
		fmt.Fprintln(out)
	}
	ok, diff := ext.Match()
	fmt.Fprintf(out, "\nfaults used: %d; plaintext intact: %t; extraction matches ground truth: %t\n",
		ext.Faults, ext.PlaintextOK, ok)
	if !ok {
		fmt.Fprintln(out, "first mismatch:", diff)
		return errors.New("the extraction does not match the ground truth")
	}
	return nil
}

func (o *aesOptions) runKeySweep(out io.Writer) error {
	fmt.Fprintf(out, "\nkey-byte sweep — %d parallel extractions (workers=%d)\n",
		o.keysweep, workers)
	ks, err := experiments.RunAESKeyByteSweep(o.cfg, o.keysweep, workers)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "recovered high nibbles of the 16 first-round (dec) key bytes:")
	for b := 0; b < 16; b++ {
		got := "??"
		if ks.RecoveredHi[b] >= 0 {
			got = fmt.Sprintf(" %x", ks.RecoveredHi[b])
		}
		fmt.Fprintf(out, "byte %2d: recovered=%s truth=%x candidates=%016b\n",
			b, got, ks.TruthHi[b], ks.Candidates[b])
	}
	fmt.Fprintf(out, "recovered %d/16 key-byte nibbles exactly; faults used: %d\n",
		ks.RecoveredExactly(), ks.Faults)
	if !ks.Complete() {
		fmt.Fprintln(out, "(increase -keysweep trials to eliminate the remaining candidates)")
	}
	return nil
}
