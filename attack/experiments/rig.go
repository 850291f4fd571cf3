package experiments

import (
	"microscope/attack/platform"
	"microscope/sim/cpu"
)

// Rig, Checkpoint and NewRig are attack/platform's Rig, Checkpoint and
// New under their old names. Their only user is bench/, which may change
// only with the benchmark; ROADMAP item 1 moves it over and deletes them.
type (
	Rig        = platform.Rig
	Checkpoint = platform.Checkpoint
)

// NewRig is platform.New; see Rig.
func NewRig(cfg cpu.Config) (*Rig, error) { return platform.New(cfg) }
