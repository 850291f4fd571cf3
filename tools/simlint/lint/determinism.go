package lint

// The determinism analyzer: simulation and analysis code must produce
// byte-identical output for identical inputs.
//
//   - globalrand: package-level math/rand functions draw from the
//     process-global source, whose sequence depends on everything else
//     that touched it (and, unseeded, on the run).
//   - timenow: time.Now leaks wall-clock time into results.
//   - envdep: os.Getenv/LookupEnv/Environ and runtime.NumCPU make
//     results depend on the machine and environment the run happens on.
//     runtime.GOMAXPROCS is deliberately exempt: the sweep runner sets
//     and reads it to size worker pools without affecting output.
//   - maporder: ranging over a map and appending/printing inside the
//     loop emits elements in a random order unless the accumulator is
//     sorted afterwards.
//   - goroutine: raw `go` statements fork execution whose interleaving
//     (and hence any shared-state effect ordering) the scheduler picks
//     per run. The one approved concurrency site is the analysis/sweep
//     worker pool, which joins results in deterministic input order;
//     everything else must route through it.
//
// This analyzer also validates the simlint directive grammar itself:
// an unknown //simlint:<kind> comment silently disables nothing and
// must be loud.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// goroutinePoolPkg is the one package allowed to start goroutines: its
// worker pool joins results in deterministic input order, making the
// scheduler's interleaving unobservable in the output.
const goroutinePoolPkg = "microscope/analysis/sweep"

func analyzerDeterminism() *Analyzer {
	return &Analyzer{
		Name: "determinism",
		Doc:  "byte-identical output for identical inputs: no global math/rand, time.Now, environment reads, map-order-dependent output, or undisciplined goroutines",
		Run:  runDeterminism,
	}
}

func runDeterminism(u *Unit) []Diagnostic {
	var diags []Diagnostic
	report := reporter(&diags)
	for _, f := range u.SourceFiles() {
		checkGlobalFuncs(f, u.Info, report)
		checkEnvDep(f, u.Info, report)
		checkMapOrder(f, u.Info, report)
		if u.PkgPath() != goroutinePoolPkg {
			checkGoroutine(f, report)
		}
	}
	checkUnknownExemptKinds(u, report)
	return diags
}

// checkGoroutine flags raw go statements. Outside the approved
// analysis/sweep worker pool, forked goroutines make effect ordering a
// scheduler decision; concurrency must route through the pool, whose
// result join is in deterministic input order.
func checkGoroutine(f *ast.File, report func(token.Pos, string, ...interface{})) {
	ast.Inspect(f, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			report(g.Pos(),
				"goroutine discipline: raw go statement outside the approved %s worker pool; route concurrency through the sweep runner so results join in deterministic order",
				goroutinePoolPkg)
		}
		return true
	})
}

// randAllowed are the math/rand package-level functions that construct
// explicit sources rather than using the global one.
var randAllowed = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

// checkGlobalFuncs flags references to nondeterministic package-level
// functions: the global math/rand source and time.Now. References, not
// just calls — passing rand.Intn as a value is the same hazard.
func checkGlobalFuncs(f *ast.File, info *types.Info, report func(token.Pos, string, ...interface{})) {
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		// Only package-level functions: methods (rand.Rand.Intn on an
		// explicit source, time.Time.Sub, ...) are deterministic given
		// their receiver.
		if fn.Type().(*types.Signature).Recv() != nil {
			return true
		}
		switch fn.Pkg().Path() {
		case "math/rand", "math/rand/v2":
			if !randAllowed[fn.Name()] {
				report(sel.Pos(),
					"nondeterministic: %s.%s uses the global math/rand source; use a seeded *rand.Rand from the run config",
					fn.Pkg().Name(), fn.Name())
			}
		case "time":
			if fn.Name() == "Now" {
				report(sel.Pos(),
					"nondeterministic: time.Now reads the wall clock; use the simulated cycle counter or a clock threaded through the config")
			}
		}
		return true
	})
}

// checkEnvDep flags references to functions whose results vary with the
// host machine or process environment: os.Getenv/LookupEnv/Environ and
// runtime.NumCPU. A sweep that sizes batches by NumCPU, or an analysis
// that reads a tuning knob from the environment, produces different
// output on different machines with identical inputs. Reading
// runtime.GOMAXPROCS is allowed: the deterministic sweep runner sets it
// explicitly, so its value is part of the configuration, not the host.
func checkEnvDep(f *ast.File, info *types.Info, report func(token.Pos, string, ...interface{})) {
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
			return true
		}
		switch fn.Pkg().Path() {
		case "os":
			switch fn.Name() {
			case "Getenv", "LookupEnv", "Environ":
				report(sel.Pos(),
					"environment-dependent: os.%s makes output depend on the process environment; thread the value through the run config",
					fn.Name())
			}
		case "runtime":
			if fn.Name() == "NumCPU" {
				report(sel.Pos(),
					"environment-dependent: runtime.NumCPU varies per machine; take worker counts from the run config (runtime.GOMAXPROCS is exempt: it is set explicitly)")
			}
		}
		return true
	})
}

// checkMapOrder flags range-over-map loops whose body has an
// order-sensitive effect: appending to an accumulator declared outside
// the loop, writing to an output stream, or printing. A finding is
// suppressed when a sort call later in the same function takes the
// accumulator (the common collect-keys-then-sort idiom); print/write
// sinks have no accumulator to sort and are always flagged.
func checkMapOrder(f *ast.File, info *types.Info, report func(token.Pos, string, ...interface{})) {
	for _, decl := range f.Decls {
		checkMapOrderIn(decl, info, report)
	}
}

func checkMapOrderIn(decl ast.Decl, info *types.Info, report func(token.Pos, string, ...interface{})) {
	sorts := collectSortCalls(decl, info)
	ast.Inspect(decl, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if _, isMap := info.TypeOf(rng.X).Underlying().(*types.Map); !isMap {
			return true
		}
		for _, sink := range findOrderSinks(rng, info) {
			if sink.acc != "" && sortedAfter(sorts, sink.acc, rng.End()) {
				continue
			}
			report(sink.pos,
				"nondeterministic: map iteration order reaches output (%s); iterate sorted keys or sort %q afterwards",
				sink.what, sink.accName())
		}
		return true
	})
}

// orderSink is one order-sensitive effect inside a map-range body.
type orderSink struct {
	pos  token.Pos
	what string
	acc  string // root identifier of the accumulator, "" for direct output
}

func (s orderSink) accName() string {
	if s.acc == "" {
		return "the output"
	}
	return s.acc
}

// findOrderSinks scans a map-range body for order-sensitive effects.
func findOrderSinks(rng *ast.RangeStmt, info *types.Info) []orderSink {
	var sinks []orderSink
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			// Nested map ranges are visited on their own.
			if n != rng {
				if _, isMap := info.TypeOf(n.X).Underlying().(*types.Map); isMap {
					return false
				}
			}
		case *ast.AssignStmt:
			// acc = append(acc, ...) with acc declared outside the loop.
			for _, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isBuiltinAppend(call, info) || len(call.Args) == 0 {
					continue
				}
				id := rootIdent(call.Args[0])
				if id == nil || declaredWithin(id, info, rng) {
					continue
				}
				sinks = append(sinks, orderSink{
					pos: n.Pos(), what: "append to " + id.Name, acc: id.Name,
				})
			}
		case *ast.CallExpr:
			if fn, ok := calleeFunc(n, info); ok {
				if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" &&
					strings.Contains(fn.Name(), "rint") { // Print/Println/Fprintf/...
					sinks = append(sinks, orderSink{pos: n.Pos(), what: "call to fmt." + fn.Name()})
				}
				if strings.HasPrefix(fn.Name(), "Write") &&
					fn.Type().(*types.Signature).Recv() != nil {
					sel, _ := n.Fun.(*ast.SelectorExpr)
					var acc string
					if sel != nil {
						if id := rootIdent(sel.X); id != nil && !declaredWithin(id, info, rng) {
							acc = id.Name
						}
					}
					sinks = append(sinks, orderSink{
						pos: n.Pos(), what: fn.Name() + " on a stream", acc: acc,
					})
				}
			}
		}
		return true
	})
	return sinks
}

// sortCall records a call into package sort and the root identifiers of
// its arguments.
type sortCall struct {
	pos  token.Pos
	args []string
}

func collectSortCalls(root ast.Node, info *types.Info) []sortCall {
	var out []sortCall
	ast.Inspect(root, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn, ok := calleeFunc(call, info)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sort" {
			return true
		}
		sc := sortCall{pos: call.Pos()}
		for _, a := range call.Args {
			if id := rootIdent(a); id != nil {
				sc.args = append(sc.args, id.Name)
			}
			// Dig into closures too: sort.Slice(keys, func(...) ...)
			// names the accumulator in the comparator's body.
			ast.Inspect(a, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					sc.args = append(sc.args, id.Name)
				}
				return true
			})
		}
		out = append(out, sc)
		return true
	})
	return out
}

// sortedAfter reports whether a sort call mentioning acc appears after
// pos within the same declaration: the sort frequently lives in a
// sibling loop a few statements below the map range.
func sortedAfter(sorts []sortCall, acc string, pos token.Pos) bool {
	for _, sc := range sorts {
		if sc.pos < pos {
			continue
		}
		for _, a := range sc.args {
			if a == acc {
				return true
			}
		}
	}
	return false
}

func isBuiltinAppend(call *ast.CallExpr, info *types.Info) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

func calleeFunc(call *ast.CallExpr, info *types.Info) (*types.Func, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	return fn, ok
}

// rootIdent unwraps index, selector, paren and star expressions to the
// base identifier: m[k] -> m, b.buf -> b, (*p).x -> p.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// declaredWithin reports whether id's declaration lies inside the range
// statement (a per-iteration local, not an accumulator).
func declaredWithin(id *ast.Ident, info *types.Info, rng *ast.RangeStmt) bool {
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	if obj == nil {
		return false // unresolved: assume outer to stay conservative
	}
	return obj.Pos() >= rng.Pos() && obj.Pos() < rng.End()
}
