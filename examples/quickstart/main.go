// Quickstart: the smallest complete microarchitectural replay attack.
//
// A victim program loads a public address (the replay handle) and then
// touches one of two cache lines depending on a secret bit. The malicious
// OS keeps the handle's page non-present, so the victim replays the
// secret-dependent access over and over in a single logical run; the
// attacker reads the secret from the cache footprint after one replay.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"microscope/attack/microscope"
	"microscope/attack/platform"
	"microscope/attack/victim"
	"microscope/sim/cache"
	"microscope/sim/cpu"
	"microscope/sim/isa"
	"microscope/sim/mem"
)

const (
	handleVA mem.Addr = 0x0010_0000
	probeVA  mem.Addr = 0x0011_0000
	secret            = 1 // the bit the attacker wants
)

func main() {
	// 1. The platform: physical memory, an out-of-order SMT core, an OS
	//    kernel with the MicroScope module loaded into its fault path, and
	//    a victim process scheduled on context 0.
	rig, err := platform.New(cpu.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	core, proc := rig.Core, rig.Victim

	// 2. The victim program.
	prog := isa.NewBuilder().
		MovImm(isa.R1, int64(handleVA)).
		MovImm(isa.R2, int64(probeVA)).
		MovImm(isa.R3, secret).
		Load(isa.R4, isa.R1, 0). // replay handle (public address)
		ShlImm(isa.R5, isa.R3, 6).
		Add(isa.R5, isa.R5, isa.R2).
		Load(isa.R6, isa.R5, 0). // transmit: touches line <secret>
		Halt().MustBuild()

	layout := &victim.Layout{
		Name: "quickstart",
		Prog: prog,
		Regions: []victim.Region{
			{Name: "handle", VA: handleVA, Size: mem.PageSize,
				Flags: mem.FlagUser | mem.FlagWritable},
			{Name: "probe", VA: probeVA, Size: mem.PageSize,
				Flags: mem.FlagUser | mem.FlagWritable},
		},
	}
	if err := rig.InstallVictim(layout); err != nil {
		log.Fatal(err)
	}

	// 3. The attack recipe: replay on the handle, probe the two lines
	//    the secret selects between replays, starting from a flushed
	//    cache.
	probe, err := rig.Module.NewProbe(proc, []mem.Addr{probeVA, probeVA + 64})
	if err != nil {
		log.Fatal(err)
	}
	probe.FlushAll()

	recovered := -1
	rec := &microscope.Recipe{
		Name:   "quickstart",
		Victim: proc,
		Handle: handleVA,
	}
	rec.OnReplay = func(ev microscope.Event) microscope.Decision {
		hot0 := probe.Level(0) != cache.LevelMem
		hot1 := probe.Level(1) != cache.LevelMem
		fmt.Printf("replay %d: line0 hot=%t line1 hot=%t\n", ev.Replays, hot0, hot1)
		switch {
		case hot0 && !hot1:
			recovered = 0
		case hot1 && !hot0:
			recovered = 1
		}
		if recovered >= 0 || ev.Replays >= 5 {
			return microscope.Release
		}
		return microscope.Replay
	}
	if err := rig.Module.Install(rec); err != nil {
		log.Fatal(err)
	}

	// 4. Run the single logical victim execution.
	layout.Start(rig.Kernel, 0)
	if err := rig.Run(10_000_000); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nvictim finished: %t (one logical run, %d replays)\n",
		core.Context(0).Halted(), rec.Replays())
	fmt.Printf("secret bit: %d, recovered: %d\n", secret, recovered)
	if recovered != secret {
		log.Fatal("attack failed")
	}
}
