package lint

// The checked-in manifests. These are the analyzer inputs that cannot
// be derived structurally from the package under analysis:
//
//   - enumManifest names the closed enums whose switches must be total;
//   - hookManifest names the hook interfaces whose implementations must
//     be complete.
//
// Each manifest carries permanent fixture entries (package paths
// "enumtotal", "hookpair") so the want-comment fixtures exercise the
// same manifest-driven lookup path as the live tree.

// enumManifest names the closed enums ("pkgpath.TypeName") whose value
// switches must be total: cover every declared constant of the type,
// carry a default clause, or carry //simlint:enumexempt <reason>.
// Sentinel count constants (NumChannels, NumEventKinds) are typed int,
// not the enum type, so they are invisible here by construction.
var enumManifest = map[string]bool{
	"microscope/analysis/sidechan.Channel":    true,
	"microscope/sim/sanitizer.ReconcileClass": true,
	"microscope/sim/sanitizer.Role":           true,
	"microscope/analysis/verify.Verdict":      true,
	"microscope/sim/cpu.EventKind":            true,
	"microscope/sim/trace.Fate":               true,
	"microscope/analysis/static.Severity":     true,
	// Fixture package (testdata/src/enumtotal).
	"enumtotal.Kind": true,
}

// hookIface names one hook interface.
type hookIface struct {
	PkgPath string
	Name    string
}

// hookManifest names the hook interfaces whose implementations must
// handle the full hook set or delegate via embedding. A struct that
// name-matches part of a hook set without satisfying the interface is
// a wiring bug: the value silently fails the interface assertion (or
// satisfies an older copy of the interface) instead of hooking.
var hookManifest = []hookIface{
	{"microscope/sim/cpu", "Tracer"},
	{"microscope/sim/cpu", "ShadowTracker"},
	{"microscope/sim/cpu", "FaultHandler"},
	{"microscope/sim/kernel", "FaultHook"},
	{"microscope/attack/defense", "Defense"},
	// Fixture package (testdata/src/hookpair).
	{"hookpair", "Hook"},
}

// hookCommonNames are method names too generic to identify an intended
// hook implementation on their own: a lone Name() string must not drag
// every named thing in the repo into the Defense hook set. A
// single-method overlap is only flagged when the name is distinctive.
var hookCommonNames = map[string]bool{
	"Name":      true,
	"String":    true,
	"Reset":     true,
	"Configure": true,
	"Install":   true,
}
