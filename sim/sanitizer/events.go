package sanitizer

import (
	"fmt"
	"strings"

	"microscope/analysis/sidechan"
	"microscope/sim/isa"
	"microscope/sim/trace"
)

// TransmitEvent is one observation of tainted data reaching an
// observable microarchitectural channel. Events are recorded at issue
// (when the footprint lands in the machine) and their disposition is
// finalized at retire or squash.
type TransmitEvent struct {
	// Cycle is the issue cycle of the transmitting instruction.
	Cycle uint64
	// Context and PC locate the static program point; Seq identifies
	// the dynamic instance.
	Context int
	PC      int
	Seq     uint64
	Instr   isa.Instr
	// Channel is the sidechan class the secret leaks over; Implicit
	// marks a control-dependence-only (branch-outcome) flow.
	Channel  sidechan.Channel
	Implicit bool
	// Addr is the virtual effective address (memory ops), Walk the
	// page-walk cycles the access observed (0 = TLB hit).
	Addr uint64
	Walk int
	// Taint is the atom mask to blame; AtomLabels resolves it.
	Taint uint64
	// Transient reports that the instance was squashed (or never
	// retired) — the paper's replay shadow. False = architectural.
	Transient bool
	// Replay is the replay-iteration ordinal of the covering recipe
	// window at the transmit cycle, or -1 outside any replay window
	// (set by AttributeReplays).
	Replay int
	// Recipe names the covering recipe, "" outside any window.
	Recipe string
}

// String renders the event for reports.
func (ev TransmitEvent) String() string {
	var b strings.Builder
	disp := "retired"
	if ev.Transient {
		disp = "transient"
	}
	flow := "explicit"
	if ev.Implicit {
		flow = "implicit"
	}
	fmt.Fprintf(&b, "cycle %d ctx%d pc=%d seq=%d [%s] %s %s %s",
		ev.Cycle, ev.Context, ev.PC, ev.Seq, ev.Instr, ev.Channel, flow, disp)
	if ev.Instr.Op.IsMem() {
		fmt.Fprintf(&b, " addr=%#x", ev.Addr)
	}
	if ev.Replay >= 0 {
		fmt.Fprintf(&b, " replay=%d(%s)", ev.Replay, ev.Recipe)
	}
	return b.String()
}

// Events returns the recorded transmit events in emission order (which
// is issue order, so non-decreasing in Cycle).
func (s *Sanitizer) Events() []TransmitEvent {
	return append([]TransmitEvent(nil), s.events...)
}

// ReplayWindow is one replay iteration of a recipe: cycles [Start, End)
// belong to iteration N (1-based, matching the timeline's "replay N"
// slices). End == ^uint64(0) marks a window still open at run end.
type ReplayWindow struct {
	Recipe string
	N      int
	Start  uint64
	End    uint64
}

// AttributeReplays stamps every recorded event with the replay
// iteration whose window covers its cycle. Call after the run, with the
// windows the attack module derives from its timeline
// (attack/microscope's Module.ReplayWindows). Later windows win on
// overlap — nested pivot recipes open inside an outer window, and the
// innermost (latest-starting) window is the one actually replaying the
// transmit.
func (s *Sanitizer) AttributeReplays(ws []ReplayWindow) {
	for i := range s.events {
		ev := &s.events[i]
		for _, w := range ws {
			if ev.Cycle >= w.Start && ev.Cycle < w.End {
				ev.Replay, ev.Recipe = w.N, w.Recipe
			}
		}
	}
}

// Annotations renders the transmit events as instant markers on a
// dedicated "specsan" Chrome-trace track, layered over the pipeline
// and replayer tracks so a finding is visually pinned to the replay
// iteration that produced it.
func (s *Sanitizer) Annotations() []trace.Annotation {
	var out []trace.Annotation
	for _, ev := range s.events {
		disp := "retired"
		if ev.Transient {
			disp = "transient"
		}
		args := map[string]string{
			"channel": ev.Channel.String(),
			"instr":   ev.Instr.String(),
			"pc":      fmt.Sprintf("%d", ev.PC),
			"taint":   strings.Join(s.AtomLabels(ev.Taint), ","),
			"disp":    disp,
		}
		if ev.Implicit {
			args["flow"] = "implicit"
		}
		if ev.Replay >= 0 {
			args["replay"] = fmt.Sprintf("%d", ev.Replay)
		}
		out = append(out, trace.Annotation{
			Track: "specsan",
			Name:  fmt.Sprintf("transmit %s pc=%d", ev.Channel, ev.PC),
			Start: ev.Cycle,
			End:   ev.Cycle,
			Args:  args,
		})
	}
	return out
}
