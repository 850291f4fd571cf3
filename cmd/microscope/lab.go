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
	"microscope/sim/isa"
	"microscope/sim/mem"
)

// labOptions is the parsed command line of `lab`, the attack-exploration
// lab: it loads a victim written as a textual script (ISA assembly plus
// `;;` region/init/symbol directives — see attack/victim.ParseScript),
// installs a MicroScope recipe against it, and reports what each replay
// window exposed:
//
//	microscope lab -script examples/asmlab/victim.s -probe probe -lines 4 -replays 5
type labOptions struct {
	script, handle, pivot, probe string
	lines, replays, walk         int
	disasm                       bool
}

// maxLines bounds -lines by the platform's physical memory counted in
// 64-byte lines: a probe cannot watch more lines than exist, and run
// builds one address per line before the first prime could fail.
const maxLines = victim.PlatformMemBytes / 64

// parseLab parses and validates the arguments after `lab`.
func parseLab(args []string, errw io.Writer) (*labOptions, error) {
	o := &labOptions{}
	fs := flag.NewFlagSet("lab", flag.ContinueOnError)
	fs.SetOutput(errw)
	fs.StringVar(&o.script, "script", "", "victim script file")
	fs.StringVar(&o.handle, "handle", "handle", "replay-handle symbol")
	fs.StringVar(&o.pivot, "pivot", "", "pivot symbol (optional)")
	fs.StringVar(&o.probe, "probe", "", "probe symbol (cache lines to watch)")
	fs.IntVar(&o.lines, "lines", 4, "number of 64-byte lines to probe")
	fs.IntVar(&o.replays, "replays", 5, "replays before release")
	fs.IntVar(&o.walk, "walk", 4, "page-table levels served from memory (1-4)")
	fs.BoolVar(&o.disasm, "disasm", false, "print the assembled victim and exit")
	if err := parseFlags(fs, args); err != nil {
		return nil, err
	}
	if err := noArgs("lab", fs.Args()); err != nil {
		return nil, err
	}
	switch {
	case o.script == "":
		return nil, errors.New("lab: -script is required")
	case o.lines < 1 || o.lines > maxLines:
		return nil, fmt.Errorf("lab: -lines must be 1-%d, got %d", maxLines, o.lines)
	case o.replays < 1:
		return nil, fmt.Errorf("lab: -replays must be >= 1, got %d", o.replays)
	case o.walk < 1 || o.walk > 4:
		return nil, fmt.Errorf("lab: -walk must be 1-4, got %d", o.walk)
	}
	return o, nil
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

func (o *labOptions) run(out io.Writer) error {
	src, err := os.ReadFile(o.script)
	if err != nil {
		return err
	}
	l, err := victim.ParseScript(o.script, string(src))
	if err != nil {
		return err
	}
	if o.disasm {
		fmt.Fprint(out, isa.Disassemble(l.Prog))
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

	rig, _, err := bootVictim(l, false)
	if err != nil {
		return err
	}
	rec := &microscope.Recipe{
		Name:       "lab",
		Victim:     rig.Victim,
		Handle:     handle,
		Pivot:      pivot,
		WalkLevels: o.walk,
	}
	var primeErr error
	rec.OnReplay = func(ev microscope.Event) microscope.Decision {
		kind := "handle"
		if ev.OnPivot {
			kind = "pivot"
		}
		hot := describeProbe(rig, probeAddrs)
		fmt.Fprintf(out, "fault %2d (%-6s replay %2d, cycle %8d): hot lines %s\n",
			ev.TotalFaults, kind, ev.Replays, ev.Cycle, hot)
		if err := rig.Module.PrimeAddrs(rig.Victim, probeAddrs); err != nil {
			primeErr = fmt.Errorf("prime: %w", err)
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
	if primeErr != nil {
		return primeErr
	}

	fmt.Fprintf(out, "\nvictim finished: %t; total faults: %d\n",
		rig.Core.Context(0).Halted(), rec.TotalFaults())
	fmt.Fprintf(out, "registers: %s\n", describeRegs(rig))
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
