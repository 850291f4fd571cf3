package msbench

import (
	"encoding/json"
	"fmt"
	"time"

	"microscope/sim/trace"
)

// span is one call the benchmark made into a layer: its name, interval,
// the span that was open when it started, and the unit it served.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Unit   int    `json:"unit"`   // -1 for layer-probe calls
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay only a nil check per call.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // indices of the spans enclosing the current call
	unit  int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), unit: -1} }

// do runs fn inside a span called name.
func (t *tracer) do(name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{Name: name, ID: i + 1, Parent: parent, Unit: t.unit,
		Start: int64(time.Since(t.t0))})
	t.open = append(t.open, i)
	err := fn()
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = int64(time.Since(t.t0))
	return err
}

// selfTimes returns each span's duration minus the time its child spans
// cover, keyed by span ID. Children of one span never overlap: the
// tracer is only called from the benchmark's own goroutine.
func selfTimes(spans []span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.End - s.Start
		if s.Parent != 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// chromeJSON renders spans as Chrome Trace Event JSON (one complete
// event per span, timestamps in microseconds) and checks the result with
// the simulator's own validator.
func chromeJSON(spans []span, label string) ([]byte, error) {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  *float64       `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := []event{{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": label}}}
	self := selfTimes(spans)
	for _, s := range spans {
		dur := float64(s.End-s.Start) / 1e3
		evs = append(evs, event{Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: &dur, Pid: 1,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "unit": s.Unit,
				"self_us": float64(self[s.ID]) / 1e3}})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return nil, err
	}
	if err := trace.ValidateChrome(data); err != nil {
		return nil, fmt.Errorf("span trace: %w", err)
	}
	return data, nil
}
