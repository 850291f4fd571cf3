package microscope

import (
	"fmt"
	"strings"

	"microscope/sim/mem"
	"microscope/sim/sanitizer"
	"microscope/sim/trace"
)

// TimelineKind classifies module-level events for the Fig. 3 timeline.
type TimelineKind int

// Timeline event kinds.
const (
	EvSetup TimelineKind = iota
	EvHandleFault
	EvReplay
	EvRelease
	EvPivotArm
	EvPivotFault
	EvHandleArm
)

// String returns the event name.
func (k TimelineKind) String() string {
	switch k {
	case EvSetup:
		return "setup"
	case EvHandleFault:
		return "handle-fault"
	case EvReplay:
		return "replay"
	case EvRelease:
		return "release"
	case EvPivotArm:
		return "pivot-arm"
	case EvPivotFault:
		return "pivot-fault"
	case EvHandleArm:
		return "handle-arm"
	}
	return fmt.Sprintf("TimelineKind(%d)", int(k))
}

// TimelineEvent is one module action with its cycle, reproducing the
// Replayer row of the paper's Figure 3 timeline.
type TimelineEvent struct {
	Cycle  uint64
	Kind   TimelineKind
	Recipe string
	VA     mem.Addr
}

func (m *Module) record(kind TimelineKind, r *Recipe, va mem.Addr) {
	m.timeline = append(m.timeline, TimelineEvent{
		Cycle:  m.core.Cycle(),
		Kind:   kind,
		Recipe: r.Name,
		VA:     va,
	})
}

// Timeline returns the module's event log.
func (m *Module) Timeline() []TimelineEvent {
	return append([]TimelineEvent(nil), m.timeline...)
}

// ClearTimeline resets the log.
func (m *Module) ClearTimeline() { m.timeline = m.timeline[:0] }

// ReplayWindows converts the module timeline into the cycle windows
// the sanitizer attributes transmit events to: each handle fault opens
// replay iteration N of its recipe (closing iteration N-1), and the
// release, or the end of time, closes the last one. Pivoted recipes
// interleave per-recipe faults; the windows come in the order their
// faults occurred, so a later, innermost recipe's window wins on
// overlap.
func (m *Module) ReplayWindows() []sanitizer.ReplayWindow {
	var ws []sanitizer.ReplayWindow
	open := map[string]int{}  // recipe -> index into ws
	count := map[string]int{} // recipe -> iterations seen
	for _, ev := range m.timeline {
		switch ev.Kind {
		case EvHandleFault:
			if i, ok := open[ev.Recipe]; ok {
				ws[i].End = ev.Cycle
			}
			count[ev.Recipe]++
			open[ev.Recipe] = len(ws)
			ws = append(ws, sanitizer.ReplayWindow{
				Recipe: ev.Recipe,
				N:      count[ev.Recipe],
				Start:  ev.Cycle,
				End:    ^uint64(0),
			})
		case EvRelease:
			if i, ok := open[ev.Recipe]; ok {
				ws[i].End = ev.Cycle
				delete(open, ev.Recipe)
			}
		}
	}
	return ws
}

// TraceAnnotations converts the module timeline into Chrome-trace
// annotations for sim/trace's exporter: each recipe gets its own
// "replayer" track, every replay window renders as a numbered "replay
// N" slice (one still open at the end as an instant at its start), and
// the remaining module actions (setup, pivots, arming, release) render
// as instant markers. Layered over the per-context pipeline tracks this
// reproduces the paper's Fig. 3 interleaving in the viewer.
func (m *Module) TraceAnnotations() []trace.Annotation {
	var out []trace.Annotation
	ws := m.ReplayWindows() // one per EvHandleFault, in timeline order
	for _, ev := range m.timeline {
		a := trace.Annotation{
			Track: "replayer: " + ev.Recipe,
			Name:  ev.Kind.String(),
			Start: ev.Cycle,
			End:   ev.Cycle,
			Args:  map[string]string{"va": fmt.Sprintf("%#x", uint64(ev.VA))},
		}
		if ev.Kind == EvHandleFault {
			w := ws[0]
			ws = ws[1:]
			a.Name = fmt.Sprintf("replay %d", w.N)
			if w.End != ^uint64(0) {
				a.End = w.End
			}
		}
		out = append(out, a)
	}
	return out
}

// FormatTimeline renders the log as the Fig. 3-style interleaving.
func FormatTimeline(evs []TimelineEvent) string {
	var sb strings.Builder
	for _, ev := range evs {
		fmt.Fprintf(&sb, "%10d  %-12s %-12s va=%#x\n", ev.Cycle, ev.Kind, ev.Recipe, ev.VA)
	}
	return sb.String()
}
