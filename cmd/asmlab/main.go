// Command asmlab is an attack-exploration lab: it loads a victim written
// as a textual script (ISA assembly plus `;;` region/init/symbol
// directives — see attack/victim.ParseScript), installs a MicroScope
// recipe against it, and reports what each replay window exposed.
//
// Example:
//
//	go run ./cmd/asmlab -script examples/asmlab/victim.s \
//	    -handle handle -probe probe -lines 4 -replays 5
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"microscope/attack/microscope"
	"microscope/attack/platform"
	"microscope/attack/victim"
	"microscope/sim/cache"
	"microscope/sim/cpu"
	"microscope/sim/isa"
	"microscope/sim/mem"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is the parsed command line.
type options struct {
	script, handle, pivot, probe string
	lines, replays, walk         int
	disasm                       bool
}

// usageError is an error in the command line itself; run exits 2 on it.
type usageError struct{ error }

// run parses args, runs the lab and returns the exit code: 0 on
// success, 1 when the script or the simulation fails, 2 on a usage
// error (a bad flag, no -script, or a flag naming a symbol the script
// does not define).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("asmlab", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.script, "script", "", "victim script file")
	fs.StringVar(&o.handle, "handle", "handle", "replay-handle symbol")
	fs.StringVar(&o.pivot, "pivot", "", "pivot symbol (optional)")
	fs.StringVar(&o.probe, "probe", "", "probe symbol (cache lines to watch)")
	fs.IntVar(&o.lines, "lines", 4, "number of 64-byte lines to probe")
	fs.IntVar(&o.replays, "replays", 5, "replays before release")
	fs.IntVar(&o.walk, "walk", 4, "page-table levels served from memory (1-4)")
	fs.BoolVar(&o.disasm, "disasm", false, "print the assembled victim and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if o.script == "" {
		fmt.Fprintln(stderr, "asmlab: -script is required")
		fs.Usage()
		return 2
	}
	err := lab(o, stdout, stderr)
	if err == nil {
		return 0
	}
	fmt.Fprintln(stderr, "asmlab:", err)
	var ue usageError
	if errors.As(err, &ue) {
		return 2
	}
	return 1
}

// lookupSym resolves the symbol a flag names, failing with a usage
// error instead of Layout.Sym's panic when the script lacks it.
func lookupSym(l *victim.Layout, flagName, sym string) (mem.Addr, error) {
	a, ok := l.Symbols[sym]
	if !ok {
		return 0, usageError{fmt.Errorf("-%s: script %s defines no symbol %q", flagName, l.Name, sym)}
	}
	return a, nil
}

func lab(o options, stdout, stderr io.Writer) error {
	src, err := os.ReadFile(o.script)
	if err != nil {
		return err
	}
	l, err := victim.ParseScript(o.script, string(src))
	if err != nil {
		return err
	}
	if o.disasm {
		fmt.Fprint(stdout, isa.Disassemble(l.Prog))
		return nil
	}

	handle, err := lookupSym(l, "handle", o.handle)
	if err != nil {
		return err
	}
	var pivot mem.Addr
	if o.pivot != "" {
		if pivot, err = lookupSym(l, "pivot", o.pivot); err != nil {
			return err
		}
	}
	var probeAddrs []mem.Addr
	if o.probe != "" {
		base, err := lookupSym(l, "probe", o.probe)
		if err != nil {
			return err
		}
		for i := 0; i < o.lines; i++ {
			probeAddrs = append(probeAddrs, base+mem.Addr(i)*64)
		}
	}

	rig, err := platform.New(cpu.DefaultConfig())
	if err != nil {
		return err
	}
	if err := rig.InstallVictim(l); err != nil {
		return err
	}

	rec := &microscope.Recipe{
		Name:       "asmlab",
		Victim:     rig.Victim,
		Handle:     handle,
		Pivot:      pivot,
		WalkLevels: o.walk,
	}
	rec.OnReplay = func(ev microscope.Event) microscope.Decision {
		kind := "handle"
		if ev.OnPivot {
			kind = "pivot"
		}
		hot := describeProbe(rig, probeAddrs)
		fmt.Fprintf(stdout, "fault %2d (%-6s replay %2d, cycle %8d): hot lines %s\n",
			ev.TotalFaults, kind, ev.Replays, ev.Cycle, hot)
		if err := rig.Module.PrimeAddrs(rig.Victim, probeAddrs); err != nil {
			fmt.Fprintln(stderr, "asmlab: prime:", err)
			return microscope.Release
		}
		if ev.OnPivot {
			return microscope.Pivot
		}
		if ev.Replays >= o.replays {
			if rec.Pivot != 0 {
				return microscope.Pivot
			}
			return microscope.Release
		}
		return microscope.Replay
	}
	if err := rig.Module.Install(rec); err != nil {
		return err
	}
	l.Start(rig.Kernel, 0)
	if err := rig.Run(100_000_000); err != nil {
		return err
	}

	fmt.Fprintf(stdout, "\nvictim finished: %t; total faults: %d\n",
		rig.Core.Context(0).Halted(), rec.TotalFaults())
	fmt.Fprintf(stdout, "registers: %s\n", describeRegs(rig))
	return nil
}

func describeProbe(rig *platform.Rig, addrs []mem.Addr) string {
	if len(addrs) == 0 {
		return "(no probe)"
	}
	prs, err := rig.Module.ProbeAddrs(rig.Victim, addrs)
	if err != nil {
		return "error: " + err.Error()
	}
	var hot []string
	for i, pr := range prs {
		if pr.Level != cache.LevelMem {
			hot = append(hot, fmt.Sprintf("%d(%s)", i, pr.Level))
		}
	}
	if len(hot) == 0 {
		return "none"
	}
	return strings.Join(hot, " ")
}

func describeRegs(rig *platform.Rig) string {
	ctx := rig.Core.Context(0)
	var parts []string
	for r := isa.R1; r <= isa.R8; r++ {
		if v := ctx.Reg(r); v != 0 {
			parts = append(parts, fmt.Sprintf("%s=%#x", r, v))
		}
	}
	if len(parts) == 0 {
		return "(all zero)"
	}
	return strings.Join(parts, " ")
}
