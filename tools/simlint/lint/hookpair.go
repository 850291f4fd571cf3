package lint

// The hookpair analyzer: hook-set completeness. The simulator's
// extension points are interfaces — cpu.Tracer, cpu.ShadowTracker,
// cpu.FaultHandler, kernel.FaultHook — and a struct that name-matches
// part of a hook set without satisfying the whole interface is a latent
// wiring bug: the value fails the interface assertion at runtime (or
// keeps compiling against a stale local copy of the method list)
// instead of receiving hooks. A shadow tracker handling five of the six
// Shadow* events desynchronizes the taint state on the sixth.
//
// For each struct type declared in the package and each manifest hook
// interface visible from the package:
//   - full name overlap + satisfied interface: clean (embedding a
//     delegate that implements the interface also lands here — the
//     promoted methods complete the set);
//   - full name overlap, unsatisfied: flagged (signature drift);
//   - partial overlap of >= 2 hook names, or a single distinctive hook
//     name (single-method interfaces; generic names like String/Reset
//     are stoplisted in hookCommonNames): flagged unless the type
//     carries //simlint:hookexempt <reason>.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

func analyzerHookpair() *Analyzer {
	return &Analyzer{
		Name: "hookpair",
		Doc:  "implementations of the simulator's hook interfaces (hookManifest) must satisfy the full hook set or delegate via embedding; partial name matches need //simlint:hookexempt <reason>",
		Run:  runHookpair,
	}
}

func runHookpair(u *Unit) []Diagnostic {
	var diags []Diagnostic
	report := reporter(&diags)
	ifaces := resolveHookIfaces(u)
	if len(ifaces) == 0 {
		return diags
	}
	ex := exemptionsFor(u, "hookexempt", report)

	for _, f := range u.SourceFiles() {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if _, isStruct := ts.Type.(*ast.StructType); !isStruct {
					continue
				}
				tn, ok := u.Info.Defs[ts.Name].(*types.TypeName)
				if !ok {
					continue
				}
				checkHookType(u, ts, tn, ifaces, ex, report)
			}
		}
	}
	return diags
}

// resolvedIface is one hook interface visible from the unit.
type resolvedIface struct {
	name  string // display name, e.g. "cpu.Tracer"
	iface *types.Interface
	names map[string]bool // its method names
}

// resolveHookIfaces finds the manifest interfaces among the unit's own
// scope and its transitive imports. A package that cannot see a hook
// interface cannot plug into it, so skipping unresolvable entries is
// sound.
func resolveHookIfaces(u *Unit) []resolvedIface {
	pkgs := map[string]*types.Package{u.PkgPath(): u.Pkg}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		for _, imp := range p.Imports() {
			if _, seen := pkgs[imp.Path()]; seen {
				continue
			}
			pkgs[imp.Path()] = imp
			walk(imp)
		}
	}
	walk(u.Pkg)

	var out []resolvedIface
	for _, hi := range hookManifest {
		p, ok := pkgs[hi.PkgPath]
		if !ok {
			continue
		}
		tn, ok := p.Scope().Lookup(hi.Name).(*types.TypeName)
		if !ok {
			continue
		}
		iface, ok := tn.Type().Underlying().(*types.Interface)
		if !ok {
			continue
		}
		names := make(map[string]bool, iface.NumMethods())
		for i := 0; i < iface.NumMethods(); i++ {
			names[iface.Method(i).Name()] = true
		}
		out = append(out, resolvedIface{name: p.Name() + "." + hi.Name, iface: iface, names: names})
	}
	return out
}

func checkHookType(u *Unit, ts *ast.TypeSpec, tn *types.TypeName,
	ifaces []resolvedIface, ex map[string]exemption,
	report func(token.Pos, string, ...interface{})) {

	ptr := types.NewPointer(tn.Type())
	mset := types.NewMethodSet(ptr)
	have := make(map[string]bool, mset.Len())
	for i := 0; i < mset.Len(); i++ {
		have[mset.At(i).Obj().Name()] = true
	}
	if len(have) == 0 {
		return
	}

	for _, ri := range ifaces {
		// The interface's own defining struct wrappers aside, a type
		// never "partially implements" an interface it cannot name.
		var overlap []string
		for name := range ri.names {
			if have[name] {
				overlap = append(overlap, name)
			}
		}
		if len(overlap) == 0 {
			continue
		}
		sort.Strings(overlap)

		if len(overlap) == ri.iface.NumMethods() {
			if types.Implements(ptr, ri.iface) {
				continue // complete hook set, correctly typed
			}
			if exempted(u, ex, ts.Pos()) {
				continue
			}
			report(ts.Pos(),
				"hook completeness: %s declares the full %s hook set (%s) but does not satisfy the interface — a hook method's signature has drifted",
				tn.Name(), ri.name, strings.Join(overlap, ", "))
			continue
		}

		// Partial overlap: require it to be convincing before flagging.
		// A single generic name (String, Reset) is not evidence of an
		// intended hook implementation; a single distinctive one
		// (ShadowSquash, HandleFault) is.
		if len(overlap) == 1 && hookCommonNames[overlap[0]] {
			continue
		}
		if exempted(u, ex, ts.Pos()) {
			continue
		}
		var missing []string
		for i := 0; i < ri.iface.NumMethods(); i++ {
			if name := ri.iface.Method(i).Name(); !have[name] {
				missing = append(missing, name)
			}
		}
		sort.Strings(missing)
		report(ts.Pos(),
			"hook completeness: %s handles %s of the %s hook set but is missing %s; implement the full set, embed a delegate that does, or add //simlint:hookexempt <reason>",
			tn.Name(), strings.Join(overlap, ", "), ri.name, strings.Join(missing, ", "))
	}
}
