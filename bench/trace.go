package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// span is one timed layer call of a traced run. Offsets are from the
// tracer's origin; parent indexes the enclosing span (-1 for a root).
type span struct {
	name       string
	start, end time.Duration
	parent     int
	run        int
}

// tracer records spans in memory around the benchmark's calls into each
// layer. Calls nest on one goroutine, so a stack of open spans gives every
// span its parent.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int
	run    int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span named name under the innermost open span.
func (t *tracer) begin(name string) {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.origin), parent: parent, run: t.run})
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost open span.
func (t *tracer) end() {
	n := len(t.open) - 1
	t.spans[t.open[n]].end = time.Since(t.origin)
	t.open = t.open[:n]
}

// endUnit closes the innermost span, a traced run's "unit", after
// collecting the unit's garbage in a "gc" child span: untraced runs are
// timed with their collection too.
func (t *tracer) endUnit() {
	t.begin("gc")
	runtime.GC()
	t.end()
	t.end()
}

// total sums the durations of the named spans of one run, in seconds.
func (t *tracer) total(run int, name string) float64 {
	var d time.Duration
	for _, s := range t.spans {
		if s.run == run && s.name == name {
			d += s.end - s.start
		}
	}
	return d.Seconds()
}

// selfTimes returns each span name's median over runs of its self time
// per run, in seconds: a span's duration minus the part of it its child
// spans cover. Children of one span run one after another, so their
// durations add without overlap.
func (t *tracer) selfTimes(runs int) map[string]float64 {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	perRun := make(map[string][]float64)
	for i, s := range t.spans {
		if perRun[s.name] == nil {
			perRun[s.name] = make([]float64, runs)
		}
		perRun[s.name][s.run] += self[i].Seconds()
	}
	out := make(map[string]float64, len(perRun))
	//lint:deterministic fills a map from per-name values; visit order is irrelevant
	for name, vals := range perRun {
		out[name] = median(vals)
	}
	return out
}

// traceEvent is one complete event ("ph":"X") of the Chrome trace-event
// format, which Perfetto and chrome://tracing open.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// write saves every span to path in Chrome trace-event format, one thread
// track per traced run.
func (t *tracer) write(path string) error {
	events := make([]traceEvent, len(t.spans))
	for i, s := range t.spans {
		events[i] = traceEvent{
			Name: s.name, Ph: "X",
			TS:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			PID: 1, TID: s.run + 1,
			Args: map[string]int{"run": s.run, "parent": s.parent},
		}
	}
	buf, err := json.Marshal(struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{events, "ns"})
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
