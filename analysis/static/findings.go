package static

import (
	"fmt"

	"microscope/analysis/sidechan"
	"microscope/sim/isa"
)

// Pass 3: replay-handle identification and squash-shadow classification.
//
// A replay handle is an instruction whose address translation the OS
// side of the attack can fault at will: any load/store whose address is
// independent of secrets (the attacker must know which page to poke),
// or a txbegin region (evicting its write set aborts and replays it,
// §7.1). From each handle the analyzer walks the CFG forward up to the
// ROB window; every instruction reachable within that many fetched
// instructions sits in the handle's squash shadow and is replayed on
// every fault. Shadowed instructions with a secret-dependent resource
// footprint become findings.

// isHandle reports whether instruction i can serve as a replay handle.
func isHandle(p *isa.Program, i int, ti *taintInfo) bool {
	in := p.Instrs[i]
	switch {
	case in.Op == isa.OpTxBegin:
		return true
	case in.Op.IsMem():
		// A secret-dependent address is not attacker-predictable; such
		// accesses are transmitters, not handles.
		return !ti.in[i].tainted(in.Rs1)
	}
	return false
}

// shadow computes, per instruction, the nearest covering handle and its
// distance in fetched instructions (1..window). dist[i] == 0 means no
// handle covers i.
func shadow(g *CFG, ti *taintInfo, window int) (handle, dist []int) {
	n := g.Prog.Len()
	handle, dist = make([]int, n), make([]int, n)
	// visited[i] == h+1 marks i as already reached from handle h, so one
	// slice serves every handle's walk.
	visited := make([]int, n)
	var cur, next []int
	for h := 0; h < n; h++ {
		if !ti.reached[h] || !isHandle(g.Prog, h, ti) {
			continue
		}
		// BFS by instruction distance; a window can wrap around loop
		// back-edges (the ROB holds several short iterations at once).
		cur = append(cur[:0], g.InstrSuccs(h)...)
		for d := 1; d <= window && len(cur) > 0; d++ {
			next = next[:0]
			for _, i := range cur {
				if visited[i] == h+1 {
					continue
				}
				visited[i] = h + 1
				if dist[i] == 0 || d < dist[i] {
					handle[i], dist[i] = h, d
				}
				next = append(next, g.InstrSuccs(i)...)
			}
			cur, next = next, cur
		}
	}
	return handle, dist
}

// classify decides whether shadowed instruction i leaks, and over which
// channel (sidechan.Transmit), and gives the finding its severity and
// reason. The channel labels mirror the dynamic attacks: cache-set (AES
// T-tables, §6.2), latency (FP subnormal, Fig. 5), port contention
// (Fig. 6), random-replay (RDRAND bias, §7.2).
func classify(p *isa.Program, i int, ti *taintInfo) (sidechan.Channel, Severity, string, bool) {
	in := p.Instrs[i]
	st := ti.in[i]
	ta, tb := st.tainted(in.Rs1), st.tainted(in.Rs2)
	ch, implicit, ok := sidechan.Transmit(in.Op, ta, ta || tb, ti.ctrl[i], ti.cfg.TaintRdrand)
	if !ok {
		return sidechan.ChanNone, SevLow, "", false
	}
	v := explicitVerdicts[ch]
	if implicit {
		v = implicitVerdicts[ch]
	}
	return ch, v.sev, v.reason, true
}

// verdict is the severity and reason a finding reports.
type verdict struct {
	sev    Severity
	reason string
}

// explicitVerdicts and implicitVerdicts give a transmit its verdict by
// channel. An explicit flow leaks the secret's value; an implicit one
// leaks only which side of a secret branch ran, and sidechan.Transmit
// reports no implicit latency flow.
var (
	explicitVerdicts = [sidechan.NumChannels]verdict{
		sidechan.ChanCacheSet: {SevHigh, "memory address derived from secret data selects a cache set the attacker probes"},
		sidechan.ChanPort:     {SevMedium, "integer divide on a secret-derived operand occupies the non-pipelined divider"},
		sidechan.ChanLatency:  {SevHigh, "FP divide on a secret-derived operand: the subnormal microcode assist leaks through latency"},
		sidechan.ChanRandom: {SevHigh,
			"RDRAND draw is re-executed on every replay: the attacker observes each value transiently and squashes until one suits (integrity bias)"},
	}
	implicitVerdicts = [sidechan.NumChannels]verdict{
		sidechan.ChanCacheSet: {SevMedium, "memory access guarded by a secret-dependent branch; its cache footprint reveals the branch"},
		sidechan.ChanPort:     {SevMedium, "divide executes on only one side of a secret-dependent branch; divider-port contention reveals the side"},
		sidechan.ChanRandom:   {SevMedium, "RDRAND guarded by a secret-dependent branch"},
	}
)

// findings runs the shadow walk and the classifier over the whole
// program. It returns every transmit point, and the findings: the
// points some handle's squash shadow covers.
func findings(g *CFG, ti *taintInfo, cfg Config) ([]Finding, []TransmitPoint) {
	handle, dist := shadow(g, ti, cfg.window())
	text := make([]string, g.Prog.Len())
	disasm := func(i int) string {
		if text[i] == "" {
			text[i] = g.Prog.Instrs[i].String()
		}
		return text[i]
	}
	var fs []Finding
	var pts []TransmitPoint
	for i := range g.Prog.Instrs {
		ch, sev, reason, ok := classify(g.Prog, i, ti)
		if !ok {
			continue
		}
		shadowed := dist[i] > 0 && ti.reached[i]
		pts = append(pts, TransmitPoint{
			Index:    i,
			Instr:    disasm(i),
			Channel:  ch,
			Severity: sev,
			Reached:  ti.reached[i],
			Shadowed: shadowed,
		})
		if !shadowed {
			continue
		}
		h := handle[i]
		fs = append(fs, Finding{
			Index:       i,
			Instr:       disasm(i),
			Channel:     ch,
			Severity:    sev,
			Handle:      h,
			HandleInstr: disasm(h),
			Distance:    dist[i],
			Reason:      reason,
		})
	}
	return fs, pts
}

// TransmitPoint is an instruction the taint analysis classifies as a
// transmitter, regardless of replay-handle coverage. Findings are the
// subset of transmit points sitting in some handle's squash shadow;
// the dynamic sanitizer (sim/sanitizer) observes transmits wherever
// they execute, so its reconciliation pass needs the unscoped set to
// tell "transmitter outside every replay window" (understood, not
// replayable) from "transmitter the static taint pass missed" (a bug).
type TransmitPoint struct {
	Index    int              `json:"index"`
	Instr    string           `json:"instr"`
	Channel  sidechan.Channel `json:"channel"`
	Severity Severity         `json:"severity"`
	// Reached reports static reachability from the entry point.
	Reached bool `json:"reached"`
	// Shadowed reports coverage by some replay handle's squash shadow —
	// exactly the transmit points that are also Findings.
	Shadowed bool `json:"shadowed"`
}

// Severity ranks a finding.
type Severity int

// Severity levels.
const (
	SevLow Severity = iota
	SevMedium
	SevHigh
)

// String returns the report label.
func (s Severity) String() string {
	switch s {
	case SevLow:
		return "low"
	case SevMedium:
		return "medium"
	case SevHigh:
		return "high"
	}
	return fmt.Sprintf("severity(%d)", int(s))
}

// MarshalText renders the severity for JSON reports.
func (s Severity) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses a severity label, inverting MarshalText.
func (s *Severity) UnmarshalText(b []byte) error {
	for v := SevLow; v <= SevHigh; v++ {
		if v.String() == string(b) {
			*s = v
			return nil
		}
	}
	return fmt.Errorf("static: unknown severity %q", b)
}
