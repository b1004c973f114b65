package serve

import (
	"strings"
	"testing"

	"optimus/internal/workload"
)

// traceOf builds a small well-formed trace against spec0's capacity.
func traceOf() []workload.TraceEvent {
	return []workload.TraceEvent{
		{Arrival: 0, Request: workload.Request{Tenant: "a", PromptTokens: 120, GenTokens: 20}},
		{Arrival: 0.5, Request: workload.Request{Tenant: "b", PromptTokens: 80, GenTokens: 30}},
		{Arrival: 2.0, Request: workload.Request{Tenant: "a", PromptTokens: 200, GenTokens: 10}},
	}
}

// clearWorkload strips spec0's generated-workload fields so a trace can be
// attached (the CLI does the same before replay).
func clearWorkload(s *Spec) {
	s.PromptTokens, s.GenTokens = 0, 0
	s.Rate, s.Requests, s.Seed = 0, 0, 0
}

// TestTraceRequestsDerivedInAllEntryPaths: the CLI zeroes spec.Requests for
// -trace and relies on withDefaults deriving it from the event count before
// the workload rule checks Requests against len(Trace). That derivation must hold
// for every entry path a library caller can take — Run, Validate, and
// Feasible — not just the CLI's.
func TestTraceRequestsDerivedInAllEntryPaths(t *testing.T) {
	s := spec0(t)
	clearWorkload(&s)
	s.Trace = traceOf()

	if err := s.Validate(); err != nil {
		t.Errorf("Validate with derived trace request count: %v", err)
	}
	if !Feasible(s) {
		t.Error("Feasible with derived trace request count should hold")
	}
	res, err := Run(s)
	if err != nil {
		t.Fatalf("Run with derived trace request count: %v", err)
	}
	if res.Requests != len(s.Trace) {
		t.Errorf("completed %d requests, want the trace's %d", res.Requests, len(s.Trace))
	}

	// An explicit matching count is equivalent; a mismatched one is the
	// pinned "leave it zero" rejection.
	s.Requests = len(s.Trace)
	if _, err := Run(s); err != nil {
		t.Errorf("explicit matching request count: %v", err)
	}
	s.Requests = len(s.Trace) + 1
	if _, err := Run(s); err == nil || !strings.Contains(err.Error(), "leave it zero") {
		t.Errorf("mismatched trace request count: got %v", err)
	}
}

// TestEmptyTraceRejected: a non-nil zero-event trace must fail loudly in
// every entry path. Pre-fix it fell through the len(Trace) > 0 guards to
// the mix path and silently simulated the spec-wide generated workload —
// the opposite of what a caller handing over a (mistakenly empty) replay
// asked for. This test fails against that behavior: Run would succeed.
func TestEmptyTraceRejected(t *testing.T) {
	s := spec0(t)
	s.Trace = []workload.TraceEvent{} // non-nil, zero events; generated-workload fields still set

	if _, err := Run(s); err == nil || !strings.Contains(err.Error(), "empty trace") {
		t.Errorf("Run with empty non-nil trace: got %v, want an empty-trace rejection", err)
	}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "empty trace") {
		t.Errorf("Validate with empty non-nil trace: got %v, want an empty-trace rejection", err)
	}

	// Even with the generated-workload fields cleared — nothing to fall
	// back to — the error must name the empty trace, not the missing mix.
	clearWorkload(&s)
	s.Trace = []workload.TraceEvent{}
	if _, err := Run(s); err == nil || !strings.Contains(err.Error(), "empty trace") {
		t.Errorf("Run with only an empty trace: got %v, want an empty-trace rejection", err)
	}
}
