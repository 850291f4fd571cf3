// Command mscan triages a victim program for MicroScope replay
// vulnerabilities. In its default mode it is a static scanner: it builds
// the program's CFG, runs taint dataflow from the declared secrets, and
// reports every instruction that sits in the squash shadow of a replay
// handle with a secret-dependent resource footprint, labelled by leak
// channel (cache-set, port, latency, random-replay).
//
// With -prove it becomes a verifier: a path-sensitive abstract
// interpretation classifies the program PROVEN-SAFE, LEAKY or UNKNOWN,
// and every definite verdict is checked against the cycle-level
// simulator — LEAKY ships two concrete secret assignments whose replay
// runs diverge on the claimed channel, PROVEN-SAFE ships a randomized
// differential certificate. -repair additionally proposes fence
// insertions and re-verifies the patched program.
//
// Scan a built-in victim:
//
//	mscan -victim aes
//	mscan -victim modexp -json
//
// Verify and repair:
//
//	mscan -victim controlflow -prove -witness
//	mscan -victim singlesecret -prove -repair -json
//
// With -sanitize it runs the victim under the MicroScope module with
// the SpecSan shadow-taint sanitizer (sim/sanitizer) attached and
// reconciles the dynamic transmit findings against the static scan
// (see docs/sanitizer.md for the three-way protocol):
//
//	mscan -victim controlflow -sanitize
//	mscan -victim aes -sanitize -json
//
// Every mode also reads a victim script (see attack/victim.ParseScript):
// assembly plus ;; directives for its memory image, where
// ";; secret <region>" and ";; secret-reg <reg>" declare the secrets.
// The replay handle is the script's "handle" symbol unless -handle
// names another:
//
//	mscan -script examples/asmlab/victim.s
//	mscan -script examples/asmlab/victim.s -prove -witness
//	mscan -script examples/asmlab/victim.s -sanitize
//
// Exit status, when -fail is set (for CI use):
//
//	0  clean scan / PROVEN-SAFE / no transient transmit
//	1  findings exist (scan mode), verdict LEAKY (-prove) or a
//	   transient transmit (-sanitize)
//	2  verdict UNKNOWN (-prove) or an unexplained static/dynamic
//	   disagreement (-sanitize)
//
// Usage and input errors always exit 3, before anything runs: among
// them a negative -rob, -trials or -max-paths, -witness-pairs below -1,
// a flag given without the mode that reads it (-repair, -witness,
// -trials, -witness-pairs and -max-paths need -prove, -handle needs
// -prove or -sanitize), a script that does not parse, and a replay
// handle the layout has no symbol for. Without -fail the exit status is
// 0 whenever a report was produced. Under -prove -repair the exit code
// reflects the original program's verdict; the repair outcome is
// informational.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"microscope/analysis/static"
	"microscope/analysis/verify"
	"microscope/attack/experiments"
	"microscope/attack/victim"
)

// options carries the parsed command line; run takes it explicitly so
// tests can exercise every mode and exit code without a subprocess.
type options struct {
	victim   string
	script   string
	rob      int
	json     bool
	fail     bool
	noRdrand bool

	sanitize bool

	prove        bool
	repair       bool
	witness      bool
	handle       string
	trials       int
	witnessPairs int
	maxPaths     int

	// set names the flags given on the command line.
	set map[string]bool
}

func newFlagSet() *flag.FlagSet {
	return flag.NewFlagSet("mscan", flag.ContinueOnError)
}

func parseFlags(fs *flag.FlagSet, args []string) (options, error) {
	var o options
	fs.StringVar(&o.victim, "victim", "", "read a built-in victim: "+strings.Join(victimNames(), ", "))
	fs.StringVar(&o.script, "script", "", "read a victim script: assembly plus ;; directives for its regions and secrets (see attack/victim.ParseScript)")
	fs.IntVar(&o.rob, "rob", 0, "squash-shadow depth in instructions (0: default core ROB size)")
	fs.BoolVar(&o.json, "json", false, "emit the report as JSON")
	fs.BoolVar(&o.fail, "fail", false, "exit 1 on findings/LEAKY and 2 on UNKNOWN (for CI use)")
	fs.BoolVar(&o.noRdrand, "no-rdrand-taint", false, "do not treat RDRAND results as secrets")
	fs.BoolVar(&o.sanitize, "sanitize", false, "run the victim under the SpecSan taint sanitizer and reconcile dynamic findings against the static scan")
	fs.BoolVar(&o.prove, "prove", false, "run the verifier: classify PROVEN-SAFE / LEAKY / UNKNOWN with simulator-checked evidence")
	fs.BoolVar(&o.repair, "repair", false, "with -prove: propose fence insertions and re-verify the patched program")
	fs.BoolVar(&o.witness, "witness", false, "with -prove: print the full witness assignments and projections")
	fs.StringVar(&o.handle, "handle", "", "with -prove or -sanitize: layout symbol of the replay-handle page (default: the builtin's convention, or a script's \"handle\")")
	fs.IntVar(&o.trials, "trials", 0, "with -prove: randomized-differential trials backing PROVEN-SAFE (0: default)")
	fs.IntVar(&o.witnessPairs, "witness-pairs", -1, "with -prove: candidate witness pairs simulated per site (-1: default)")
	fs.IntVar(&o.maxPaths, "max-paths", 0, "with -prove: abstract path-exploration budget (0: default)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.set = make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { o.set[f.Name] = true })
	return o, nil
}

// checkFlags rejects out-of-range values, and flags given without the
// mode that reads them, so that no flag is silently ignored.
func checkFlags(o options) error {
	for _, f := range []struct {
		name   string
		v, min int
	}{
		{"rob", o.rob, 0},
		{"trials", o.trials, 0},
		{"max-paths", o.maxPaths, 0},
		{"witness-pairs", o.witnessPairs, -1},
	} {
		if f.v < f.min {
			return fmt.Errorf("-%s %d is out of range (minimum %d)", f.name, f.v, f.min)
		}
	}
	for _, f := range []string{"repair", "witness", "trials", "witness-pairs", "max-paths"} {
		if o.set[f] && !o.prove {
			return fmt.Errorf("-%s requires -prove", f)
		}
	}
	if o.set["handle"] && !o.prove && !o.sanitize {
		return fmt.Errorf("-handle requires -prove or -sanitize")
	}
	return nil
}

// victimNames lists the -victim targets, experiments.SanTargets.
func victimNames() []string {
	var names []string
	for _, t := range experiments.SanTargets() {
		names = append(names, t.Name)
	}
	sort.Strings(names)
	return names
}

// input is what -victim or -script resolves to, and all that every mode
// reads: the layout (program, memory image and secrets), the name the
// -sanitize document reports, and the layout symbol of the replay
// handle the dynamic modes arm.
type input struct {
	name   string
	lay    *victim.Layout
	handle string
}

// load resolves -victim or -script. The handle is -handle if given, else
// the builtin's convention, else a script's "handle" symbol (`microscope
// lab`'s default too); -prove and -sanitize need the layout to define it.
func load(o options) (input, error) {
	var in input
	switch {
	case o.victim != "" && o.script != "":
		return in, fmt.Errorf("-victim and -script are mutually exclusive")
	case o.victim != "":
		t, err := experiments.FindSanTarget(o.victim)
		if err != nil {
			return in, fmt.Errorf("unknown victim %q (have: %s)", o.victim, strings.Join(victimNames(), ", "))
		}
		lay, err := t.Build()
		if err != nil {
			return in, err
		}
		in = input{t.Name, lay, t.Handle}
	case o.script != "":
		src, err := os.ReadFile(o.script)
		if err != nil {
			return in, err
		}
		lay, err := victim.ParseScript(o.script, string(src))
		if err != nil {
			return in, err
		}
		in = input{o.script, lay, "handle"}
	default:
		return in, fmt.Errorf("one of -victim or -script is required (victims: %s)",
			strings.Join(victimNames(), ", "))
	}
	if o.handle != "" {
		in.handle = o.handle
	}
	if _, ok := in.lay.Symbols[in.handle]; !ok && (o.prove || o.sanitize) {
		return in, fmt.Errorf("victim %s has no symbol %q for the replay handle", in.name, in.handle)
	}
	return in, nil
}

// Exit codes (see the package comment).
const (
	exitOK      = 0
	exitLeaky   = 1
	exitUnknown = 2
	exitUsage   = 3
)

func main() {
	o, err := parseFlags(newFlagSet(), os.Args[1:])
	if err != nil {
		os.Exit(exitUsage)
	}
	code, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mscan:", err)
	}
	os.Exit(code)
}

// run executes one scan or verification and returns the process exit
// code. Any returned error is a usage or input error (code exitUsage).
func run(o options, out io.Writer) (int, error) {
	if err := checkFlags(o); err != nil {
		return exitUsage, err
	}
	if o.prove && o.sanitize {
		return exitUsage, fmt.Errorf("-prove and -sanitize are mutually exclusive")
	}
	in, err := load(o)
	if err != nil {
		return exitUsage, err
	}
	if o.prove {
		return runProve(o, in, out)
	}
	if o.sanitize {
		return runSanitize(o, in, out)
	}

	cfg := static.DefaultConfig()
	if o.rob > 0 {
		cfg.ROBWindow = o.rob
	}
	cfg.TaintRdrand = !o.noRdrand

	report, err := static.Analyze(in.lay.Name, in.lay.Prog, verify.NewSubject(in.lay).Secrets, cfg)
	if err != nil {
		return exitUsage, err
	}
	if o.json {
		out2, err := report.JSON()
		if err != nil {
			return exitUsage, err
		}
		fmt.Fprintf(out, "%s\n", out2)
	} else {
		fmt.Fprint(out, report.Text())
	}
	if o.fail && report.HasFindings() {
		return exitLeaky, nil
	}
	return exitOK, nil
}

// verifyConfig maps the command line onto the verifier's bounds.
func verifyConfig(o options) verify.Config {
	cfg := verify.DefaultConfig()
	if o.rob > 0 {
		cfg.Static.ROBWindow = o.rob
	}
	cfg.Static.TaintRdrand = !o.noRdrand
	if o.trials > 0 {
		cfg.Trials = o.trials
	}
	if o.witnessPairs >= 0 {
		cfg.MaxWitnessPairs = o.witnessPairs
	}
	if o.maxPaths > 0 {
		cfg.MaxPaths = o.maxPaths
	}
	return cfg
}
