// Package lint is the simlint analyzer framework: a stdlib-only,
// vet.cfg-compatible multi-analyzer harness for the repository's own
// correctness contracts. Four analyzers share one typechecked view of a
// package:
//
//   - determinism: byte-identical output for identical inputs (global
//     math/rand, time.Now, environment reads, map-order-dependent
//     output, goroutine discipline);
//   - snapcover: every struct with a Snapshot()/Restore() pair must
//     serialize every field or exempt it with a written reason, so the
//     checkpoint/restore bit-identity contract cannot rot when a field
//     is added;
//   - enumtotal: switches over the repo's closed enums (side-channel
//     taxonomy, reconcile classes, verifier verdicts, trace event
//     kinds) must be total — every declared constant, a default, or an
//     exemption;
//   - hookpair: implementations of the simulator's hook interfaces
//     (cpu.Tracer, cpu.ShadowTracker, defense.Defense, ...) must
//     satisfy the full hook set or delegate via embedding; a partial
//     name-match is a wiring bug waiting for a nil-method panic.
//
// Analyzers run over a Unit (one parsed+typechecked package) and return
// position-sorted Diagnostics. The vet-protocol driver (unit.go), the
// standalone module loader (loader.go) and the fixture test harness all
// build Units the same way, so a finding reproduces identically under
// `go vet -vettool`, `bin/simlint ./sim/...` and `go test`.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Msg      string
}

// Unit is one package's worth of analysis input.
type Unit struct {
	Fset  *token.FileSet
	Files []*ast.File
	Info  *types.Info
	Pkg   *types.Package
	// Path is the import path as the build system named it; test
	// variants carry a " [pkg.test]" suffix that PkgPath strips.
	Path string
}

// PkgPath is the unit's import path with cmd/go's test-variant suffix
// ("pkg [pkg.test]") stripped, so manifest keys and package exemptions
// match the package however it was compiled.
func (u *Unit) PkgPath() string {
	if i := strings.Index(u.Path, " ["); i >= 0 {
		return u.Path[:i]
	}
	return u.Path
}

// SourceFiles returns the unit's non-test files. Every analyzer skips
// _test.go: tests may use randomness for input generation, helper
// structs that mimic snapshotted types, and deliberately partial hook
// stubs.
func (u *Unit) SourceFiles() []*ast.File {
	var out []*ast.File
	for _, f := range u.Files {
		if strings.HasSuffix(u.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		out = append(out, f)
	}
	return out
}

// An Analyzer is one named check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Unit) []Diagnostic
}

// All returns the analyzers in canonical order. The slice is fresh per
// call; callers may filter it.
func All() []*Analyzer {
	return []*Analyzer{
		analyzerDeterminism(),
		analyzerSnapcover(),
		analyzerEnumtotal(),
		analyzerHookpair(),
	}
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Run executes the given analyzers over the unit and returns all
// findings stamped with their analyzer name, sorted by position then
// analyzer.
func Run(u *Unit, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		for _, d := range a.Run(u) {
			d.Analyzer = a.Name
			diags = append(diags, d)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Pos != diags[j].Pos {
			return diags[i].Pos < diags[j].Pos
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags
}

// reporter builds the report closure analyzers append findings with.
func reporter(diags *[]Diagnostic) func(token.Pos, string, ...interface{}) {
	return func(pos token.Pos, format string, args ...interface{}) {
		*diags = append(*diags, Diagnostic{Pos: pos, Msg: fmt.Sprintf(format, args...)})
	}
}

// newInfo allocates the types.Info every Unit builder fills.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
}

// funcDecls maps each function/method object declared in the unit's
// source files to its declaration, for same-package call-closure walks.
func funcDecls(u *Unit) map[*types.Func]*ast.FuncDecl {
	m := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range u.SourceFiles() {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn, ok := u.Info.Defs[fd.Name].(*types.Func); ok {
				m[fn] = fd
			}
		}
	}
	return m
}

// callClosure returns the set of function declarations reachable from
// the roots through same-package calls (including method values and
// function references, not just direct calls — passing a method as a
// value reaches it too).
func callClosure(u *Unit, decls map[*types.Func]*ast.FuncDecl, roots []*ast.FuncDecl) map[*ast.FuncDecl]bool {
	seen := make(map[*ast.FuncDecl]bool)
	work := append([]*ast.FuncDecl(nil), roots...)
	for len(work) > 0 {
		fd := work[len(work)-1]
		work = work[:len(work)-1]
		if fd == nil || seen[fd] {
			continue
		}
		seen[fd] = true
		ast.Inspect(fd, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := u.Info.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg() != u.Pkg {
				return true
			}
			if callee, ok := decls[fn]; ok && !seen[callee] {
				work = append(work, callee)
			}
			return true
		})
	}
	return seen
}

// recvBaseName returns the receiver's base type name of a method
// declaration ("" for functions): *Core -> Core.
func recvBaseName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.ParenExpr:
			t = x.X
		case *ast.IndexExpr: // generic receiver
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
