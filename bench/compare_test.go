package msbench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// The compare modes apply the paired-runs rule of the choosing-metrics
// method: at least ten runs per side with alternating order; a gain
// needs the change to win nine tenths of the pairs and its median to
// beat the parent's by more than the parent's interquartile range; a
// regression is a median worse by more than the metric's bound; and a
// metric whose run-to-run spread exceeds its bound is unresolved unless
// every change run beats every parent run.

type verdict string

const (
	improved   verdict = "improved"
	noWorse    verdict = "no worse"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// minPairs is the fewest pairs a gain may rest on.
const minPairs = 10

// judge compares one metric's runs. parent[i] and change[i] are pair i.
func judge(parent, change []float64, lowerBetter bool, bound float64) (v verdict, wins, pairs int) {
	pairs = min(len(parent), len(change))
	better := func(c, p float64) bool {
		if lowerBetter {
			return c < p
		}
		return c > p
	}
	for i := 0; i < pairs; i++ {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	pm, cm := median(parent), median(change)
	gain := cm - pm // positive when the change is better
	if lowerBetter {
		gain = -gain
	}
	if pairs >= minPairs && 10*wins >= 9*pairs && gain > iqr(parent) {
		return improved, wins, pairs
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	spread := max(ratio(iqr(parent), pm), ratio(iqr(change), cm))
	switch {
	case allBetter:
		return noWorse, wins, pairs
	case spread > bound:
		return unresolved, wins, pairs
	case -gain > bound*pm:
		return worse, wins, pairs
	}
	return noWorse, wins, pairs
}

// readResults reads every *.json result file of dir, in name order.
func readResults(dir string) ([]*result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var out []*result
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, &r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no result files", dir)
	}
	return out, nil
}

// sameHost refuses results from different CPU models or core counts:
// their timings compare machines, not code.
func sameHost(results []*result) error {
	h := results[0].Host
	for _, r := range results[1:] {
		if r.Host.CPUModel != h.CPUModel || r.Host.NProc != h.NProc {
			return fmt.Errorf("refusing to compare results from different hosts: %q with %d CPUs vs %q with %d CPUs",
				h.CPUModel, h.NProc, r.Host.CPUModel, r.Host.NProc)
		}
	}
	return nil
}

// identityDiffs lists every simulated counter that differs between runs
// of one workload and seed, on either side.
func identityDiffs(parent, change []*result) []string {
	type key struct {
		workload string
		seed     int64
	}
	ref := map[key]*result{}
	var diffs []string
	for _, side := range []struct {
		name string
		rs   []*result
	}{{"parent", parent}, {"change", change}} {
		for _, r := range side.rs {
			k := key{r.Workload, r.Seed}
			base, ok := ref[k]
			if !ok {
				ref[k] = r
				continue
			}
			names := map[string]bool{}
			for n := range base.Identity {
				names[n] = true
			}
			for n := range r.Identity {
				names[n] = true
			}
			for n := range names {
				a, aok := base.Identity[n]
				b, bok := r.Identity[n]
				// probe.* counters exist only in traced runs.
				if strings.HasPrefix(n, "probe.") && (!aok || !bok) {
					continue
				}
				if a != b || aok != bok {
					diffs = append(diffs, fmt.Sprintf("%s seed %d %s: %d, %s run reads %d",
						r.Workload, r.Seed, n, a, side.name, b))
				}
			}
		}
	}
	sort.Strings(diffs)
	return diffs
}

// boundsFile is the part of BENCHMARK.json the compare modes read.
type boundsFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareDirs prints one verdict per (workload, end-to-end metric) and
// every simulated counter that changed.
func compareDirs(repo, parentDir, changeDir string, w io.Writer) error {
	data, err := os.ReadFile(filepath.Join(repo, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var bf boundsFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	bounds := map[string]float64{}
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	parent, err := readResults(parentDir)
	if err != nil {
		return err
	}
	change, err := readResults(changeDir)
	if err != nil {
		return err
	}
	if err := sameHost(append(append([]*result(nil), parent...), change...)); err != nil {
		return err
	}
	byWorkload := func(rs []*result) map[string][]*result {
		m := map[string][]*result{}
		for _, r := range rs {
			if !r.Trace {
				m[r.Workload] = append(m[r.Workload], r)
			}
		}
		return m
	}
	pw, cw := byWorkload(parent), byWorkload(change)
	fmt.Fprintf(w, "%-13s %-16s %-30s %-30s %-6s %s\n", "workload", "metric",
		"parent median [q1 q3]", "change median [q1 q3]", "wins", "verdict")
	for _, name := range workloadNames {
		ps, cs := pw[name], cw[name]
		if len(ps) == 0 || len(cs) == 0 {
			continue
		}
		for _, f := range [][]*result{ps, cs} {
			for _, r := range f {
				if r.Failed > 0 {
					fmt.Fprintf(w, "%-13s run with seed %d failed %d of %d units\n", name, r.Seed, r.Failed, r.Attempted)
				}
			}
		}
		for _, d := range endToEnd {
			var pv, cv []float64
			for _, r := range ps {
				pv = append(pv, r.Metrics[d.Name])
			}
			for _, r := range cs {
				cv = append(cv, r.Metrics[d.Name])
			}
			v, wins, pairs := judge(pv, cv, d.Better == "lower", bounds[d.Name])
			fmt.Fprintf(w, "%-13s %-16s %-30s %-30s %-6s %s\n", name, d.Name,
				quartiles(pv), quartiles(cv), fmt.Sprintf("%d/%d", wins, pairs), v)
		}
	}
	diffs := identityDiffs(parent, change)
	if len(diffs) == 0 {
		fmt.Fprintln(w, "simulation identical: every simulated counter matches")
		return nil
	}
	fmt.Fprintf(w, "simulation changed: %d counters differ\n", len(diffs))
	for _, d := range diffs {
		fmt.Fprintln(w, "  "+d)
	}
	return nil
}

func quartiles(xs []float64) string {
	s := sortedCopy(xs)
	return fmt.Sprintf("%.4g [%.4g %.4g]", quantile(s, 0.5), quantile(s, 0.25), quantile(s, 0.75))
}

// abRun builds this benchmark against the simulator of revision o.ab,
// checked out in a temporary git worktree, and alternates untraced runs
// of that build and of this one on the same host: minPairs runs per side
// and workload, the side that goes first swapping every pair. It then
// compares the two sets of results.
func abRun(o options, stdout, stderr io.Writer) error {
	repo, err := filepath.Abs(".")
	if err != nil {
		return err
	}
	work := filepath.Join(repo, ".bench_build", "ab")
	tree := filepath.Join(work, "tree")
	git := func(args ...string) error {
		cmd := exec.Command("git", append([]string{"-C", repo}, args...)...)
		cmd.Stdout, cmd.Stderr = stderr, stderr
		return cmd.Run()
	}
	// Forget any worktree a killed run left behind, then check out REV.
	if err := os.RemoveAll(work); err != nil {
		return err
	}
	if err := git("worktree", "prune"); err != nil {
		return err
	}
	if err := git("worktree", "add", "--detach", tree, o.ab); err != nil {
		return fmt.Errorf("checking out %s: %w", o.ab, err)
	}
	defer git("worktree", "remove", "--force", tree)

	// This benchmark's go.mod, pointed at the checked-out simulator.
	mod, err := os.ReadFile(filepath.Join(repo, "bench", "go.mod"))
	if err != nil {
		return err
	}
	modfile := filepath.Join(work, "go.mod")
	if err := os.WriteFile(modfile, mod, 0o644); err != nil {
		return err
	}
	parentBin := filepath.Join(work, "msbench-parent")
	for _, args := range [][]string{
		{"mod", "edit", "-replace", "microscope=" + tree, modfile},
		{"test", "-c", "-modfile", modfile, "-o", parentBin, "."},
	} {
		cmd := exec.Command("go", args...)
		cmd.Dir = filepath.Join(repo, "bench")
		cmd.Stdout, cmd.Stderr = stderr, stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("building the benchmark against %s: %w", o.ab, err)
		}
	}
	changeBin, err := os.Executable()
	if err != nil {
		return err
	}

	sides := []struct{ name, bin, root, rev string }{
		{"parent", parentBin, tree, o.ab},
		{"change", changeBin, repo, o.rev},
	}
	for _, s := range sides {
		if err := os.MkdirAll(filepath.Join(work, s.name), 0o755); err != nil {
			return err
		}
	}
	names := workloadNames
	if o.workload != "" {
		names = []string{o.workload}
	}
	for _, name := range names {
		for i := 0; i < minPairs; i++ {
			order := []int{0, 1}
			if i%2 == 1 {
				order = []int{1, 0}
			}
			for _, k := range order {
				s := sides[k]
				out := filepath.Join(work, s.name, fmt.Sprintf("%s-%02d.json", name, i))
				fmt.Fprintf(stderr, "msbench ab: %s run %d/%d of %s\n", s.name, i+1, minPairs, name)
				cmd := exec.Command(s.bin, "--workload", name, "--seed", fmt.Sprint(o.seed),
					"--seconds", fmt.Sprint(o.seconds), "--rev", s.rev, "--out", out)
				cmd.Dir = s.root
				cmd.Stderr = stderr
				if err := cmd.Run(); err != nil {
					return fmt.Errorf("%s run of %s: %w", s.name, name, err)
				}
			}
		}
	}
	return compareDirs(repo, filepath.Join(work, "parent"), filepath.Join(work, "change"), stdout)
}
