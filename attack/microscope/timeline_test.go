package microscope

import (
	"reflect"
	"testing"

	"microscope/sim/mem"
	"microscope/sim/sanitizer"
	"microscope/sim/trace"
)

// TestReplayWindowsAndAnnotations pins the replay windows a timeline
// yields and the Chrome-trace annotations drawn from them, on three
// timelines: replays ending in a release, a window still open at the
// end (its window runs to the end of time, its slice ends at its start)
// and a pivot recipe interleaved with a second recipe.
func TestReplayWindowsAndAnnotations(t *testing.T) {
	ev := func(cycle uint64, kind TimelineKind, recipe string, va mem.Addr) TimelineEvent {
		return TimelineEvent{Cycle: cycle, Kind: kind, Recipe: recipe, VA: va}
	}
	ann := func(recipe, name string, start, end uint64, va string) trace.Annotation {
		return trace.Annotation{Track: "replayer: " + recipe, Name: name, Start: start, End: end,
			Args: map[string]string{"va": va}}
	}
	const h, p, h2 = 0x400000, 0x500000, 0x600000
	const open = ^uint64(0)
	for _, c := range []struct {
		name    string
		tl      []TimelineEvent
		windows []sanitizer.ReplayWindow
		anns    []trace.Annotation
	}{
		{
			name: "release",
			tl: []TimelineEvent{
				ev(0, EvSetup, "r", 0),
				ev(1391, EvHandleFault, "r", h), ev(1391, EvReplay, "r", h),
				ev(7504, EvHandleFault, "r", h), ev(7504, EvReplay, "r", h),
				ev(19730, EvHandleFault, "r", h), ev(19730, EvRelease, "r", h),
			},
			windows: []sanitizer.ReplayWindow{
				{Recipe: "r", N: 1, Start: 1391, End: 7504},
				{Recipe: "r", N: 2, Start: 7504, End: 19730},
				{Recipe: "r", N: 3, Start: 19730, End: 19730},
			},
			anns: []trace.Annotation{
				ann("r", "setup", 0, 0, "0x0"),
				ann("r", "replay 1", 1391, 7504, "0x400000"),
				ann("r", "replay", 1391, 1391, "0x400000"),
				ann("r", "replay 2", 7504, 19730, "0x400000"),
				ann("r", "replay", 7504, 7504, "0x400000"),
				ann("r", "replay 3", 19730, 19730, "0x400000"),
				ann("r", "release", 19730, 19730, "0x400000"),
			},
		},
		{
			name: "open at end",
			tl: []TimelineEvent{
				ev(0, EvSetup, "r", 0),
				ev(1000, EvHandleFault, "r", h), ev(1000, EvReplay, "r", h),
				ev(2000, EvHandleFault, "r", h), ev(2000, EvReplay, "r", h),
			},
			windows: []sanitizer.ReplayWindow{
				{Recipe: "r", N: 1, Start: 1000, End: 2000},
				{Recipe: "r", N: 2, Start: 2000, End: open},
			},
			anns: []trace.Annotation{
				ann("r", "setup", 0, 0, "0x0"),
				ann("r", "replay 1", 1000, 2000, "0x400000"),
				ann("r", "replay", 1000, 1000, "0x400000"),
				ann("r", "replay 2", 2000, 2000, "0x400000"),
				ann("r", "replay", 2000, 2000, "0x400000"),
			},
		},
		{
			name: "pivot and second recipe",
			tl: []TimelineEvent{
				ev(0, EvSetup, "a", 0), ev(0, EvSetup, "b", 0),
				ev(100, EvHandleFault, "a", h), ev(100, EvPivotArm, "a", p),
				ev(200, EvPivotFault, "a", p), ev(200, EvHandleArm, "a", h),
				ev(250, EvHandleFault, "b", h2), ev(250, EvReplay, "b", h2),
				ev(300, EvHandleFault, "a", h), ev(300, EvPivotArm, "a", p),
				ev(350, EvHandleFault, "b", h2), ev(350, EvRelease, "b", h2),
				ev(400, EvPivotFault, "a", p), ev(400, EvRelease, "a", h),
			},
			windows: []sanitizer.ReplayWindow{
				{Recipe: "a", N: 1, Start: 100, End: 300},
				{Recipe: "b", N: 1, Start: 250, End: 350},
				{Recipe: "a", N: 2, Start: 300, End: 400},
				{Recipe: "b", N: 2, Start: 350, End: 350},
			},
			anns: []trace.Annotation{
				ann("a", "setup", 0, 0, "0x0"),
				ann("b", "setup", 0, 0, "0x0"),
				ann("a", "replay 1", 100, 300, "0x400000"),
				ann("a", "pivot-arm", 100, 100, "0x500000"),
				ann("a", "pivot-fault", 200, 200, "0x500000"),
				ann("a", "handle-arm", 200, 200, "0x400000"),
				ann("b", "replay 1", 250, 350, "0x600000"),
				ann("b", "replay", 250, 250, "0x600000"),
				ann("a", "replay 2", 300, 400, "0x400000"),
				ann("a", "pivot-arm", 300, 300, "0x500000"),
				ann("b", "replay 2", 350, 350, "0x600000"),
				ann("b", "release", 350, 350, "0x600000"),
				ann("a", "pivot-fault", 400, 400, "0x500000"),
				ann("a", "release", 400, 400, "0x400000"),
			},
		},
	} {
		m := &Module{timeline: c.tl}
		if got := m.ReplayWindows(); !reflect.DeepEqual(got, c.windows) {
			t.Errorf("%s: ReplayWindows = %+v, want %+v", c.name, got, c.windows)
		}
		if got := m.TraceAnnotations(); !reflect.DeepEqual(got, c.anns) {
			t.Errorf("%s: TraceAnnotations = %+v, want %+v", c.name, got, c.anns)
		}
	}
}
