package trace

import (
	"fmt"
	"strings"

	"microscope/sim/cpu"
	"microscope/sim/pipeline"
)

// walkBounds are the inclusive upper edges of the page-walk latency
// histogram buckets (cycles); walks longer than the last edge land in a
// final overflow bucket.
var walkBounds = [...]int{4, 8, 16, 32, 64, 128}

// stage indices for the occupancy integrals.
const (
	stageFrontend = iota // fetched, waiting to issue
	stageExec            // issued, executing
	stageWait            // completed, waiting to retire
	numStages
)

// Metrics is the Collector's aggregate view of the event stream:
// event and squash counts, cycle-weighted per-stage occupancy (a
// ROB-utilization integral), per-port issue histograms and the
// page-walk latency distribution. The Collector counts every event as
// it arrives, so the counters stay exact when its ring drops spans.
// Text is byte-stable: same event stream, same bytes, regardless of
// GOMAXPROCS, sweep worker count or map iteration order — nothing here
// iterates a map.
//
// The occupancy integrals stay exact under fast-forward: skipped cycle
// ranges have constant in-flight populations by construction, and the
// integral advances on event timestamps, not per-cycle callbacks.
type Metrics struct {
	events uint64
	counts [cpu.NumEventKinds]uint64

	firstCycle uint64
	lastCycle  uint64

	// inflight is the number of open lifecycles in each stage, summed
	// across contexts; integrals are its cycle-weighted sums.
	inflight  [numStages]uint64
	integrals [numStages]uint64

	squashMispredict uint64
	squashMemOrder   uint64
	squashPreempt    uint64
	squashOther      uint64

	portIssues [pipeline.NumPorts]uint64

	walkHits   uint64 // memory issues with Walk == 0 (TLB hit)
	walkCount  uint64
	walkSum    uint64
	walkMax    int
	walkBucket [len(walkBounds) + 1]uint64
}

// count records one event: its kind, and the cycles since the previous
// event weighted by the populations that held over them.
func (m *Metrics) count(ev cpu.Event) {
	if m.events == 0 {
		m.firstCycle = ev.Cycle
		m.lastCycle = ev.Cycle
	}
	m.events++
	if int(ev.Kind) < len(m.counts) {
		m.counts[ev.Kind]++
	}
	if dt := ev.Cycle - m.lastCycle; dt > 0 {
		for s, n := range m.inflight {
			m.integrals[s] += dt * n
		}
		m.lastCycle = ev.Cycle
	}
}

// issue records an issue's port and, for a memory access, its walk.
func (m *Metrics) issue(ev cpu.Event) {
	m.portIssues[ev.Port]++
	if ev.Instr.Op.IsLoad() || ev.Instr.Op.IsStore() {
		if ev.Walk == 0 {
			m.walkHits++
		} else {
			m.recordWalk(ev.Walk)
		}
	}
}

// squash records a squash under its source.
func (m *Metrics) squash(detail string) {
	switch detail {
	case "branch mispredict":
		m.squashMispredict++
	case "memory order violation":
		m.squashMemOrder++
	case "preempt":
		m.squashPreempt++
	default:
		m.squashOther++
	}
}

func (m *Metrics) recordWalk(walk int) {
	m.walkCount++
	m.walkSum += uint64(walk)
	if walk > m.walkMax {
		m.walkMax = walk
	}
	for i, b := range walkBounds {
		if walk <= b {
			m.walkBucket[i]++
			return
		}
	}
	m.walkBucket[len(walkBounds)]++
}

// Cycles is the event-stamped duration covered so far.
func (m *Metrics) Cycles() uint64 {
	if m.events == 0 {
		return 0
	}
	return m.lastCycle - m.firstCycle
}

// Count returns the number of events of the given kind observed.
func (m *Metrics) Count(k cpu.EventKind) uint64 {
	if int(k) < len(m.counts) {
		return m.counts[k]
	}
	return 0
}

// avgOccupancy returns the time-averaged in-flight population of one
// stage, in instructions.
func (m *Metrics) avgOccupancy(stage int) float64 {
	cy := m.Cycles()
	if cy == 0 {
		return 0
	}
	return float64(m.integrals[stage]) / float64(cy)
}

// Text renders a fixed-order human-readable summary. A positive robSize
// adds the ROB utilization: the average occupancy over that many
// entries. Byte-deterministic: two identical event streams render
// identically.
func (m *Metrics) Text(robSize int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "cycles           %d\n", m.Cycles())
	fmt.Fprintf(&sb, "events           %d\n", m.events)
	fmt.Fprintf(&sb, "fetched          %d\n", m.Count(cpu.EvFetch))
	fmt.Fprintf(&sb, "issued           %d\n", m.Count(cpu.EvIssue))
	fmt.Fprintf(&sb, "completed        %d\n", m.Count(cpu.EvComplete))
	fmt.Fprintf(&sb, "retired          %d\n", m.Count(cpu.EvRetire))
	fmt.Fprintf(&sb, "faults           %d\n", m.Count(cpu.EvFault))
	fmt.Fprintf(&sb, "tx aborts        %d\n", m.Count(cpu.EvTxAbort))
	fmt.Fprintf(&sb, "squashes         %d (mispredict %d, mem-order %d, preempt %d, other %d)\n",
		m.Count(cpu.EvSquash), m.squashMispredict, m.squashMemOrder, m.squashPreempt, m.squashOther)
	fmt.Fprintf(&sb, "avg occupancy    frontend %.2f  exec %.2f  wait-retire %.2f\n",
		m.avgOccupancy(stageFrontend), m.avgOccupancy(stageExec), m.avgOccupancy(stageWait))
	if robSize > 0 {
		total := m.avgOccupancy(stageFrontend) + m.avgOccupancy(stageExec) + m.avgOccupancy(stageWait)
		fmt.Fprintf(&sb, "rob utilization  %.2f%% of %d entries\n",
			100*total/float64(robSize), robSize)
	}
	sb.WriteString("port issues     ")
	for p := pipeline.Port(0); p < pipeline.NumPorts; p++ {
		fmt.Fprintf(&sb, " %s=%d", p, m.portIssues[p])
	}
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "tlb hits         %d\n", m.walkHits)
	if m.walkCount == 0 {
		fmt.Fprintf(&sb, "page walks       0\n")
	} else {
		fmt.Fprintf(&sb, "page walks       %d (avg %.2f cycles, max %d)\n",
			m.walkCount, float64(m.walkSum)/float64(m.walkCount), m.walkMax)
		sb.WriteString("walk histogram  ")
		for i, b := range walkBounds {
			fmt.Fprintf(&sb, " <=%d:%d", b, m.walkBucket[i])
		}
		fmt.Fprintf(&sb, " >%d:%d\n", walkBounds[len(walkBounds)-1], m.walkBucket[len(walkBounds)])
	}
	return sb.String()
}
