package sweep

import (
	"context"
	"reflect"
	"testing"

	"optimus/internal/arch"
	"optimus/internal/model"
	"optimus/internal/tech"
	"optimus/internal/workload"
)

// cell0 builds the fixed (model, system) grid cell the key-coverage tests
// enumerate within.
func cell0(t *testing.T) (model.Config, *arch.System) {
	t.Helper()
	cfg, err := model.ByName("Llama2-13B")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := arch.SystemOf(arch.H100(), 2, 8, tech.NVLink4, tech.IBNDR)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, sys
}

// mixes0 is a two-value mix axis: a chat-only mix and a chat+batch blend.
func mixes0() [][]workload.TenantLoad {
	return [][]workload.TenantLoad{
		{{Tenant: "chat", Share: 1, PromptTokens: 200, GenTokens: 200}},
		{
			{Tenant: "chat", Share: 0.7, PromptTokens: 200, GenTokens: 200},
			{Tenant: "batch", Share: 0.3, PromptTokens: 1200, GenTokens: 100},
		},
	}
}

// mixSpec0 is a small serving grid over the mix axis.
func mixSpec0(t *testing.T) Spec {
	t.Helper()
	s := servingSpec0(t)
	s.Mixes = mixes0()
	s.Seqs, s.GenTokens = nil, nil
	return s
}

// trace0 is a short fixed trace for replay candidates.
func trace0() []workload.TraceEvent {
	return []workload.TraceEvent{
		{Arrival: 0, Request: workload.Request{Tenant: "chat", PromptTokens: 100, GenTokens: 40}},
		{Arrival: 0.1, Request: workload.Request{Tenant: "batch", PromptTokens: 900, GenTokens: 60}},
		{Arrival: 0.3, Request: workload.Request{Tenant: "chat", PromptTokens: 150, GenTokens: 30}},
		{Arrival: 1.5, Request: workload.Request{Tenant: "chat", PromptTokens: 80, GenTokens: 20}},
	}
}

// TestServingMixAxis: the mix is a first-class grid axis — every (rate ×
// cap × mix) cell yields a distinct candidate whose metrics carry the
// per-tenant SLO breakdown, and the engine reproduces serial byte for
// byte.
func TestServingMixAxis(t *testing.T) {
	spec := mixSpec0(t)
	serial, err := Serial(spec)
	if err != nil {
		t.Fatal(err)
	}
	// 2 systems × 2 rates × 2 caps × 2 mixes.
	if len(serial.Rows) != 16 {
		t.Fatalf("mix axis should rank 16 rows, got %d", len(serial.Rows))
	}
	counts := map[int]int{}
	for _, row := range serial.Rows {
		counts[len(row.Point.Mix)]++
		if len(row.Point.Mix) == 0 {
			t.Fatalf("mix-grid candidate lost its mix: %+v", row.Point)
		}
		if len(row.Metrics.PerTenant) != len(row.Point.Mix) {
			t.Errorf("candidate with a %d-tenant mix reports %d tenant summaries",
				len(row.Point.Mix), len(row.Metrics.PerTenant))
		}
		if row.Metrics.Time <= 0 || row.Metrics.TokensPerSec <= 0 {
			t.Errorf("mix candidate missing serving metrics: %+v", row.Metrics)
		}
	}
	if counts[1] != 8 || counts[2] != 8 {
		t.Fatalf("expected 8 rows per mix, got %v", counts)
	}

	for _, workers := range []int{1, 4} {
		spec.Workers = workers
		eng, err := Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(eng.Rows, serial.Rows) {
			t.Errorf("workers=%d: engine mix ranking must match serial byte for byte", workers)
		}
	}
}

// TestServingMixKeyCoverage: the memo key must cover the mix — same mix
// collides (cache hit), any differing tenant/share/shape separates.
func TestServingMixKeyCoverage(t *testing.T) {
	cfg, sys := cell0(t)
	mix := mixes0()[1]
	mk := func(mix []workload.TenantLoad) Point {
		p, ok := enumerateOne(cfg, sys, Point{Rate: 1, ServeRequests: 32, ServeSeed: 1}, servingShape{mix: mix})
		if !ok {
			t.Fatal("expected one candidate, got none")
		}
		return p
	}
	base := mk(mix)
	if base.Key() != mk(mixes0()[1]).Key() {
		t.Error("identical mixes must share one memo key")
	}
	for name, mutate := range map[string]func([]workload.TenantLoad) []workload.TenantLoad{
		"share": func(m []workload.TenantLoad) []workload.TenantLoad {
			m = append([]workload.TenantLoad(nil), m...)
			m[0].Share = 0.5
			return m
		},
		"prompt": func(m []workload.TenantLoad) []workload.TenantLoad {
			m = append([]workload.TenantLoad(nil), m...)
			m[1].PromptTokens++
			return m
		},
		"gen": func(m []workload.TenantLoad) []workload.TenantLoad {
			m = append([]workload.TenantLoad(nil), m...)
			m[1].GenTokens++
			return m
		},
		"tenant name": func(m []workload.TenantLoad) []workload.TenantLoad {
			m = append([]workload.TenantLoad(nil), m...)
			m[0].Tenant = "chat2"
			return m
		},
		"dropped tenant": func(m []workload.TenantLoad) []workload.TenantLoad { return m[:1] },
	} {
		if mk(mutate(mix)).Key() == base.Key() {
			t.Errorf("key must change when the mix's %s changes", name)
		}
	}
	// A mix candidate must not collide with the spec-wide candidate of the
	// same cell, nor with a trace candidate.
	specWide, _ := enumerateOne(cfg, sys, Point{Rate: 1, ServeRequests: 32, ServeSeed: 1}, servingShape{seq: 200, gen: 200})
	if specWide.Key() == base.Key() {
		t.Error("mix and spec-wide candidates collide")
	}
	traced, _ := enumerateOne(cfg, sys, Point{}, servingShape{trace: trace0()})
	if traced.Key() == base.Key() || traced.Key() == specWide.Key() {
		t.Error("trace candidate collides with mix or spec-wide candidate")
	}
}

// TestServingTraceSweep: a trace grid simulates one fixed timeline per
// (cap × policy) candidate, engine == serial, and two candidates differing
// only in the trace get distinct keys.
func TestServingTraceSweep(t *testing.T) {
	spec := servingSpec0(t)
	spec.Trace = trace0()
	spec.Rates, spec.Seqs, spec.GenTokens = nil, nil, nil
	spec.BatchCaps = []int{0, 2}
	spec.ServeRequests, spec.ServeSeed = 0, 0

	serial, err := Serial(spec)
	if err != nil {
		t.Fatal(err)
	}
	// 2 systems × 2 caps.
	if len(serial.Rows) != 4 {
		t.Fatalf("trace grid should rank 4 rows, got %d", len(serial.Rows))
	}
	for _, row := range serial.Rows {
		if len(row.Point.Trace) != len(spec.Trace) {
			t.Fatalf("trace candidate lost its trace: %+v", row.Point)
		}
		if row.Point.ServeRequests != len(spec.Trace) {
			t.Errorf("trace candidate should simulate %d requests, has %d",
				len(spec.Trace), row.Point.ServeRequests)
		}
		if row.Point.Rate != 0 || row.Point.ServeSeed != 0 {
			t.Errorf("trace candidate should canonicalize rate and seed to zero: %+v", row.Point)
		}
		if len(row.Metrics.PerTenant) != 2 {
			t.Errorf("trace candidate should report 2 tenants, got %+v", row.Metrics.PerTenant)
		}
	}
	eng, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(eng.Rows, serial.Rows) {
		t.Error("engine trace ranking must match serial byte for byte")
	}

	cfg, sys := cell0(t)
	a, _ := enumerateOne(cfg, sys, Point{}, servingShape{trace: trace0()})
	shifted := append([]workload.TraceEvent(nil), trace0()...)
	shifted[1].PromptTokens += 64
	b, _ := enumerateOne(cfg, sys, Point{}, servingShape{trace: shifted})
	if a.Key() == b.Key() {
		t.Error("candidates replaying different traces collide on key")
	}
}

// TestServingWorkloadValidation: the mix/trace axes are serving-only and
// mutually exclusive with the axes they replace.
func TestServingWorkloadValidation(t *testing.T) {
	check := func(name string, mutate func(*Spec)) {
		t.Helper()
		s := servingSpec0(t)
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s should fail validation", name)
		}
	}
	check("mixes on training sweep", func(s *Spec) {
		s.Workload = Training
		s.GenTokens, s.Rates, s.BatchCaps, s.ServeRequests = nil, nil, nil, 0
		s.Mixes = mixes0()
	})
	check("trace on inference sweep", func(s *Spec) {
		s.Workload = Inference
		s.Rates, s.BatchCaps, s.ServeRequests = nil, nil, 0
		s.Trace = trace0()
	})
	check("mixes with seqs", func(s *Spec) { s.Mixes = mixes0(); s.Seqs = []int{200} })
	check("mixes with gen tokens", func(s *Spec) { s.Mixes = mixes0(); s.GenTokens = []int{100} })
	check("trace with rates", func(s *Spec) { s.Trace = trace0(); s.Rates = []float64{1} })
	check("mixes and trace together", func(s *Spec) {
		s.Mixes = mixes0()
		s.Trace = trace0()
		s.Rates = nil
	})
	check("malformed mix entry", func(s *Spec) {
		s.Mixes = [][]workload.TenantLoad{{{Tenant: "a", Share: -1, PromptTokens: 100, GenTokens: 10}}}
	})
	check("malformed trace", func(s *Spec) {
		s.Rates = nil
		s.Trace = []workload.TraceEvent{{Arrival: -2, Request: workload.Request{Tenant: "a", PromptTokens: 10, GenTokens: 1}}}
	})

	good := mixSpec0(t)
	if err := good.Validate(); err != nil {
		t.Fatalf("mix grid should validate: %v", err)
	}
}

// TestServingMixMemoizedAcrossRuns: a warm engine answers a repeated mix
// grid entirely from the memo — the per-tenant metrics survive the memo
// round trip.
func TestServingMixMemoizedAcrossRuns(t *testing.T) {
	spec := mixSpec0(t)
	eng := New(2)
	first, err := eng.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	second, err := eng.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.Evaluated != 0 || second.Stats.MemoHits != first.Stats.Evaluated {
		t.Errorf("warm mix run should be all memo hits: first %+v, second %+v", first.Stats, second.Stats)
	}
	if !reflect.DeepEqual(first.Rows, second.Rows) {
		t.Error("warm run must reproduce the mix ranking, per-tenant metrics included")
	}
}
