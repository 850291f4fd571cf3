package main

import (
	"fmt"
	"io"
	"os"

	"microscope/sim/snapshot"
)

// snapdiffImages are the two machine images `snapdiff` compares: the
// gob files -checkpoint-out (or sim/snapshot.Encode) writes. It diffs
// them field by field: architectural registers, ROB entries, cache and
// TLB contents, kernel tables, differing physical-memory ranges, module
// replay state and the nondeterministic-input record logs (RDRAND
// draws, handler decisions). The first differing record-log entry
// pinpoints where two supposedly identical runs diverged.
//
// It exits 0 when the images are identical and 1 when they differ; an
// image that cannot be read or decoded is a usage error.
type snapdiffImages struct{ a, b *snapshot.Machine }

// parseSnapdiff decodes the two images named after `snapdiff`.
func parseSnapdiff(args []string) (*snapdiffImages, error) {
	if len(args) != 2 {
		return nil, fmt.Errorf("snapdiff: want two image files (a.gob b.gob), got %q", args)
	}
	a, err := load(args[0])
	if err != nil {
		return nil, err
	}
	b, err := load(args[1])
	if err != nil {
		return nil, err
	}
	return &snapdiffImages{a, b}, nil
}

func (s *snapdiffImages) run(out io.Writer) error {
	diffs := snapshot.Diff(s.a, s.b)
	if len(diffs) == 0 {
		fmt.Fprintf(out, "snapshots identical (%d bytes of physical memory)\n", len(s.a.Phys.Data))
		return nil
	}
	for _, d := range diffs {
		fmt.Fprintln(out, d)
	}
	return errDiffer
}

func load(path string) (*snapshot.Machine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := snapshot.Decode(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}
