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
// Scan an assembly file, declaring the secrets by hand:
//
//	mscan -asm prog.s -secret-mem 0x41000000:0x41001000 -secret-reg r5
//
// Exit status, when -fail is set (for CI use):
//
//	0  clean scan / PROVEN-SAFE
//	1  findings exist (scan mode) or verdict LEAKY (-prove)
//	2  verdict UNKNOWN (-prove)
//
// Usage and input errors always exit 3, before anything runs: among
// them a negative -rob, -trials or -max-paths, -witness-pairs below -1,
// and a flag given without the mode that reads it (-repair, -witness,
// -trials, -witness-pairs and -max-paths need -prove, -handle needs
// -prove or -sanitize, -secret-reg and -secret-mem need -asm). Without
// -fail the exit status is 0 whenever a report was produced. Under
// -prove -repair the exit code reflects the original program's verdict;
// the repair outcome is informational.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"microscope/analysis/static"
	"microscope/analysis/verify"
	"microscope/attack/experiments"
	"microscope/attack/victim"
	"microscope/sim/isa"
)

// options carries the parsed command line; run takes it explicitly so
// tests can exercise every mode and exit code without a subprocess.
type options struct {
	victim string
	asm    string
	rob    int
	json   bool
	fail   bool

	secretRegs string
	secretMems string
	noRdrand   bool

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
	fs.StringVar(&o.victim, "victim", "", "scan a built-in victim: "+strings.Join(victimNames(), ", "))
	fs.StringVar(&o.asm, "asm", "", "scan an assembly file (see sim/isa syntax)")
	fs.IntVar(&o.rob, "rob", 0, "squash-shadow depth in instructions (0: default core ROB size)")
	fs.BoolVar(&o.json, "json", false, "emit the report as JSON")
	fs.BoolVar(&o.fail, "fail", false, "exit 1 on findings/LEAKY and 2 on UNKNOWN (for CI use)")
	fs.StringVar(&o.secretRegs, "secret-reg", "", "comma-separated secret registers for -asm input (e.g. r5,r7)")
	fs.StringVar(&o.secretMems, "secret-mem", "", "comma-separated secret ranges lo:hi for -asm input (hex accepted)")
	fs.BoolVar(&o.noRdrand, "no-rdrand-taint", false, "do not treat RDRAND results as secrets")
	fs.BoolVar(&o.sanitize, "sanitize", false, "run the victim under the SpecSan taint sanitizer and reconcile dynamic findings against the static scan")
	fs.BoolVar(&o.prove, "prove", false, "run the verifier: classify PROVEN-SAFE / LEAKY / UNKNOWN with simulator-checked evidence")
	fs.BoolVar(&o.repair, "repair", false, "with -prove: propose fence insertions and re-verify the patched program")
	fs.BoolVar(&o.witness, "witness", false, "with -prove: print the full witness assignments and projections")
	fs.StringVar(&o.handle, "handle", "", "with -prove or -sanitize: layout symbol of the replay-handle page (default: per-victim convention)")
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
	for _, f := range []string{"secret-reg", "secret-mem"} {
		if o.set[f] && o.asm == "" {
			return fmt.Errorf("-%s requires -asm", f)
		}
	}
	return nil
}

// builtin describes one -victim target: a constructor returning the
// layout whose program and secret declaration are scanned, and the
// layout symbol of the replay handle the verifier's dynamic runs (and
// the -sanitize replay run) arm. The table itself lives in
// attack/experiments (SanTargets) so the CLI, the sanitizer
// cross-validation tests and the fuzz corpus agree on one set of
// targets.
type builtin struct {
	name   string
	handle string
	build  func() (*victim.Layout, error)
}

func builtins() []builtin {
	var out []builtin
	for _, t := range experiments.SanTargets() {
		out = append(out, builtin{t.Name, t.Handle, t.Build})
	}
	return out
}

func victimNames() []string {
	var names []string
	for _, b := range builtins() {
		names = append(names, b.name)
	}
	sort.Strings(names)
	return names
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
	if o.victim != "" && o.asm != "" {
		return exitUsage, fmt.Errorf("-victim and -asm are mutually exclusive")
	}
	if o.prove && o.sanitize {
		return exitUsage, fmt.Errorf("-prove and -sanitize are mutually exclusive")
	}
	if o.prove {
		return runProve(o, out)
	}
	if o.sanitize {
		return runSanitize(o, out)
	}

	var (
		name string
		prog *isa.Program
		sec  static.Secrets
	)
	switch {
	case o.victim != "":
		b, err := findBuiltin(o.victim)
		if err != nil {
			return exitUsage, err
		}
		l, err := b.build()
		if err != nil {
			return exitUsage, err
		}
		name, prog = l.Name, l.Prog
		sec.Regs = l.SecretRegs
		for _, m := range l.SecretMems() {
			sec.Mems = append(sec.Mems, static.MemRange{Lo: m[0], Hi: m[1]})
		}
	case o.asm != "":
		src, err := os.ReadFile(o.asm)
		if err != nil {
			return exitUsage, err
		}
		prog, err = isa.TryAssemble(string(src))
		if err != nil {
			return exitUsage, err
		}
		name = o.asm
		if sec, err = parseSecrets(o.secretRegs, o.secretMems); err != nil {
			return exitUsage, err
		}
	default:
		return exitUsage, fmt.Errorf("one of -victim or -asm is required (victims: %s)",
			strings.Join(victimNames(), ", "))
	}

	cfg := static.DefaultConfig()
	if o.rob > 0 {
		cfg.ROBWindow = o.rob
	}
	cfg.TaintRdrand = !o.noRdrand

	report, err := static.Analyze(name, prog, sec, cfg)
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

func findBuiltin(name string) (builtin, error) {
	for _, b := range builtins() {
		if b.name == name {
			return b, nil
		}
	}
	return builtin{}, fmt.Errorf("unknown victim %q (have: %s)", name, strings.Join(victimNames(), ", "))
}

// parseSecrets turns the -secret-reg / -secret-mem flag values into a
// Secrets declaration.
func parseSecrets(regs, mems string) (static.Secrets, error) {
	var sec static.Secrets
	for _, tok := range splitList(regs) {
		r, err := parseReg(tok)
		if err != nil {
			return sec, err
		}
		sec.Regs = append(sec.Regs, r)
	}
	for _, tok := range splitList(mems) {
		lo, hi, ok := strings.Cut(tok, ":")
		if !ok {
			return sec, fmt.Errorf("-secret-mem range %q not of form lo:hi", tok)
		}
		l, err := parseUint(lo)
		if err != nil {
			return sec, fmt.Errorf("-secret-mem %q: %v", tok, err)
		}
		h, err := parseUint(hi)
		if err != nil {
			return sec, fmt.Errorf("-secret-mem %q: %v", tok, err)
		}
		if h <= l {
			return sec, fmt.Errorf("-secret-mem %q: empty range", tok)
		}
		sec.Mems = append(sec.Mems, static.MemRange{Lo: l, Hi: h})
	}
	return sec, nil
}

// parseUint accepts decimal or 0x-prefixed hex.
func parseUint(s string) (uint64, error) {
	return strconv.ParseUint(strings.TrimPrefix(strings.ToLower(s), "0x"), hexBase(s), 64)
}

func hexBase(s string) int {
	if strings.HasPrefix(strings.ToLower(s), "0x") {
		return 16
	}
	return 10
}

func splitList(s string) []string {
	var out []string
	for _, tok := range strings.Split(s, ",") {
		if tok = strings.TrimSpace(tok); tok != "" {
			out = append(out, tok)
		}
	}
	return out
}

func parseReg(tok string) (isa.Reg, error) {
	t := strings.ToLower(tok)
	if len(t) < 2 || (t[0] != 'r' && t[0] != 'f') {
		return isa.NoReg, fmt.Errorf("bad register %q (want r0-r15 or f0-f15)", tok)
	}
	n, err := strconv.Atoi(t[1:])
	if err != nil || n < 0 || n > 15 {
		return isa.NoReg, fmt.Errorf("bad register %q (want r0-r15 or f0-f15)", tok)
	}
	if t[0] == 'f' {
		return isa.F0 + isa.Reg(n), nil
	}
	return isa.R0 + isa.Reg(n), nil
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
