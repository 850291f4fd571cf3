// Package cpu implements the cycle-level simulated processor core: an
// out-of-order, SMT-capable engine with a reorder buffer, shared execution
// ports (including a non-pipelined divider), TLBs backed by a hardware
// page walker that fetches page-table entries through the cache hierarchy,
// precise exceptions, and branch prediction.
//
// It reproduces the microarchitectural contract MicroScope exploits
// (paper §2.2): on a TLB miss the core continues fetching and executing
// younger instructions during the hardware page walk; if the walk ends in
// a page fault, the fault is raised only when the faulting instruction
// reaches the head of the ROB, at which point all younger (speculatively
// executed) instructions are squashed and the core resumes at the faulting
// instruction after the OS handler returns — replaying everything after
// the replay handle.
package cpu

import "microscope/sim/cache"

// Config parameterizes a core. DefaultConfig approximates the paper's
// Intel Xeon E5-1630 v3 (Haswell) at the fidelity the attacks need.
type Config struct {
	// Contexts is the number of SMT hardware contexts sharing the core.
	Contexts int
	// ROBSize is the reorder-buffer capacity per context (SMT cores
	// statically partition the physical ROB).
	ROBSize int
	// FetchWidth / IssueWidth / RetireWidth are per-cycle limits.
	FetchWidth  int
	IssueWidth  int
	RetireWidth int

	// Execution latencies, in cycles.
	ALULat  int
	MulLat  int
	FAddLat int
	DivLat  int // integer divide (non-pipelined occupancy)
	FDivLat int // FP divide (non-pipelined occupancy)
	// SubnormalPenalty is added to FDivLat when an operand or the result
	// is subnormal — the microcode-assist latency the FPU subnormal
	// attack [7] measures and Fig. 5 targets.
	SubnormalPenalty int

	// Translation latencies.
	TLBL1Lat int // L1 TLB hit
	TLBL2Lat int // L2 TLB hit (additional)
	PWCLat   int // page-walk-cache hit per level
	PWCSize  int // entries

	// FencedRdrand models the fence Intel ships inside RDRAND (§7.2):
	// when true, no younger instruction dispatches until RDRAND retires,
	// defeating the replay-bias attack.
	FencedRdrand bool

	// FenceAfterFlush models the paper's first §8 countermeasure: after
	// every pipeline flush (fault or mispredict), an implicit fence keeps
	// younger instructions from dispatching until the re-fetched
	// instruction retires — so a replay window contains only the handle.
	FenceAfterFlush bool

	// InvisibleSpeculation models InvisiSpec/SafeSpec-style defenses
	// (§8): speculative loads do not modify the cache hierarchy; the fill
	// happens at retirement. Squashed (transient) loads therefore leave
	// no cache footprint — but contention channels remain (the paper's
	// criticism of these schemes).
	InvisibleSpeculation bool

	// SquashThreshold enables the Jamais Vu-style replay detector (see
	// jamaisvu.go): each context counts, per PC, how many times the
	// instruction at that PC was flushed by a fault without retiring;
	// reaching SquashThreshold raises a replay alarm
	// (ContextStats.ReplayAlarms). A retirement of the PC clears its
	// counter, so benign code that faults once per demand page never
	// accumulates. Zero disables the detector.
	SquashThreshold int
	// SquashEpoch is the epoch length, in cycles, of the Jamais Vu
	// counters: when the cycle counter crosses an epoch boundary the
	// context's counters clear (lazily, at the next counted fault), so
	// fault bursts far apart in time never sum to an alarm. Zero means
	// counters persist until their PC retires.
	SquashEpoch uint64

	// DelaySpeculative models Sakalis-style selective delay of
	// speculative instructions: transmit-capable ops (loads,
	// integer/FP divides, RDRAND) issue only once every older
	// instruction in the context's ROB has completed — i.e. once they
	// are no longer speculative. A MicroScope replay window then carries
	// no microarchitectural transmit: the faulting handle never
	// completes, so nothing after it issues.
	DelaySpeculative bool

	// BranchPredictorBits sizes the per-context predictor (2^bits
	// entries).
	BranchPredictorBits int

	// RandSeed seeds the deterministic RDRAND source.
	RandSeed uint64

	// FastForward enables event-driven stall skipping: when no context
	// can fetch, issue, complete or retire this cycle, Run/RunUntil jump
	// the cycle counter straight to the earliest next-event cycle
	// (handler-stall expiry, instruction completion, divider-free time)
	// instead of stepping through provably idle cycles one by one. The
	// skipped cycles are exact no-ops, so all architectural and
	// microarchitectural state — retirement cycles, rdtsc values, fault
	// timing, traces — is bit-identical with the flag off (proved by the
	// differential test in attack/experiments). Step() is always
	// single-cycle regardless. DefaultConfig enables it.
	FastForward bool

	// JitterPeriod/JitterExtra inject deterministic timing noise: every
	// JitterPeriod-th executed instruction takes JitterExtra additional
	// cycles (DRAM refresh, prefetcher interference, SMIs, ...). Zero
	// disables. The Fig. 10 experiments enable it so the "quiet"
	// distribution has the rare outliers the paper reports (4 of 10,000
	// samples).
	JitterPeriod int
	JitterExtra  int

	// Hierarchy configures the cache subsystem.
	Hierarchy cache.HierarchyConfig
}

// DefaultConfig returns the baseline configuration used across the
// experiments.
func DefaultConfig() Config {
	return Config{
		Contexts:            2,
		ROBSize:             192,
		FetchWidth:          4,
		IssueWidth:          6,
		RetireWidth:         4,
		ALULat:              1,
		MulLat:              3,
		FAddLat:             4,
		DivLat:              24,
		FDivLat:             24,
		SubnormalPenalty:    120,
		TLBL1Lat:            1,
		TLBL2Lat:            7,
		PWCLat:              1,
		PWCSize:             32,
		BranchPredictorBits: 10,
		RandSeed:            0x5ca1ab1e,
		FastForward:         true,
		Hierarchy:           cache.DefaultHierarchyConfig(),
	}
}

func (c Config) validate() {
	switch {
	case c.Contexts <= 0:
		panic("cpu: Contexts must be positive")
	case c.ROBSize <= 0:
		panic("cpu: ROBSize must be positive")
	case c.FetchWidth <= 0 || c.IssueWidth <= 0 || c.RetireWidth <= 0:
		panic("cpu: pipeline widths must be positive")
	case c.DivLat <= 0 || c.FDivLat <= 0:
		panic("cpu: divider latencies must be positive")
	}
}
