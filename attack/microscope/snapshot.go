package microscope

import (
	"fmt"

	"microscope/sim/mem"
	"microscope/sim/snapshot"
)

// Snapshot/restore of the module's replay state, plus the handler-
// decision record log (the module's half of the nondeterministic-input
// log; the core's half is the RDRAND log). Decisions taken by OnReplay
// callbacks are host code — a snapshot records what they decided, so a
// restored run can be checked against the original decision for
// decision (`microscope snapdiff`), but the callbacks themselves must be
// re-bound by the caller after a restore into a fresh module
// (RecipeState.HasCallback marks which recipes need one).

// decisionLogCap bounds the decision record log, mirroring the core's
// RDRAND log cap; decisions past the cap are still counted.
const decisionLogCap = 1 << 16

func (m *Module) logDecision(r *Recipe, onPivot bool, d Decision) {
	m.decisionCount++
	if len(m.decisions) < decisionLogCap {
		m.decisions = append(m.decisions, snapshot.DecisionRecord{
			Cycle:       m.core.Cycle(),
			Recipe:      r.Name,
			OnPivot:     onPivot,
			Replays:     r.replays,
			TotalFaults: r.totalFaults,
			Decision:    int(d),
		})
	}
}

// Recipes returns the installed recipes in installation order.
func (m *Module) Recipes() []*Recipe { return m.recipes }

// Recipe returns the installed recipe with the given name, or nil.
func (m *Module) Recipe(name string) *Recipe {
	for _, r := range m.recipes {
		if r.Name == name {
			return r
		}
	}
	return nil
}

// Snapshot captures the module's replay state: every installed recipe
// (victims by PID), the attack timeline, and the decision log.
func (m *Module) Snapshot() *snapshot.ModuleState {
	s := &snapshot.ModuleState{
		Decisions:     append([]snapshot.DecisionRecord(nil), m.decisions...),
		DecisionCount: m.decisionCount,
		Failure:       m.failure,
	}
	for _, r := range m.recipes {
		rs := snapshot.RecipeState{
			Name:           r.Name,
			VictimPID:      r.Victim.PID,
			Handle:         uint64(r.Handle),
			Pivot:          uint64(r.Pivot),
			WalkLevels:     r.WalkLevels,
			HandlerLatency: r.HandlerLatency,
			MaxReplays:     r.MaxReplays,
			HasCallback:    r.OnReplay != nil,
			Replays:        r.replays,
			TotalFaults:    r.totalFaults,
			PivotArmed:     r.pivotArmed,
		}
		for _, a := range r.MonitorAddrs {
			rs.MonitorAddrs = append(rs.MonitorAddrs, uint64(a))
		}
		s.Recipes = append(s.Recipes, rs)
	}
	for _, ev := range m.timeline {
		s.Timeline = append(s.Timeline, snapshot.TimelineState{
			Cycle:  ev.Cycle,
			Kind:   int(ev.Kind),
			Recipe: ev.Recipe,
			VA:     uint64(ev.VA),
		})
	}
	return s
}

// Restore overwrites the module's replay state from a snapshot. The
// kernel must already be restored: victims are re-resolved by PID
// against its process table. Recipes are rebuilt without re-running
// Install's arming — the page-table present bits and flushed
// translation state are part of the restored memory image. Recipes
// whose snapshot records a callback (HasCallback) come back with a nil
// OnReplay; the caller re-binds them (look them up by name via Recipe).
func (m *Module) Restore(s *snapshot.ModuleState) error {
	recipes := make([]*Recipe, 0, len(s.Recipes))
	for _, rs := range s.Recipes {
		victim, ok := m.k.Process(rs.VictimPID)
		if !ok {
			return fmt.Errorf("microscope: restore recipe %q: no process with pid %d", rs.Name, rs.VictimPID)
		}
		if rs.WalkLevels < 1 || rs.WalkLevels > mem.Levels {
			return fmt.Errorf("microscope: restore recipe %q: walk levels %d out of range [1,%d]", rs.Name, rs.WalkLevels, mem.Levels)
		}
		r := &Recipe{
			Name:           rs.Name,
			Victim:         victim,
			Handle:         mem.Addr(rs.Handle),
			Pivot:          mem.Addr(rs.Pivot),
			WalkLevels:     rs.WalkLevels,
			HandlerLatency: rs.HandlerLatency,
			MaxReplays:     rs.MaxReplays,
			replays:        rs.Replays,
			totalFaults:    rs.TotalFaults,
			pivotArmed:     rs.PivotArmed,
		}
		for _, a := range rs.MonitorAddrs {
			r.MonitorAddrs = append(r.MonitorAddrs, mem.Addr(a))
		}
		recipes = append(recipes, r)
	}
	m.recipes = recipes
	m.timeline = m.timeline[:0]
	for _, ev := range s.Timeline {
		m.timeline = append(m.timeline, TimelineEvent{
			Cycle:  ev.Cycle,
			Kind:   TimelineKind(ev.Kind),
			Recipe: ev.Recipe,
			VA:     mem.Addr(ev.VA),
		})
	}
	m.decisions = append(m.decisions[:0], s.Decisions...)
	m.decisionCount = s.DecisionCount
	m.failure = s.Failure
	return nil
}
