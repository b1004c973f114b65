package sweep

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"optimus/internal/arch"
	"optimus/internal/cluster"
	"optimus/internal/model"
	"optimus/internal/tech"
	"optimus/internal/workload"
)

// fleetSpec0 is a one-cell serving grid with a fleet axis: one model, one
// H100 box, one rate, one cap — the fleet sizes and routings are the only
// multi-valued axes.
func fleetSpec0(t *testing.T) Spec {
	t.Helper()
	cfg, err := model.ByName("Llama2-13B")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := arch.SystemOf(arch.H100(), 1, 8, tech.NVLink4, tech.IBNDR)
	if err != nil {
		t.Fatal(err)
	}
	return Spec{
		Workload:      Serving,
		Models:        []model.Config{cfg},
		Systems:       []*arch.System{sys},
		Rates:         []float64{2},
		BatchCaps:     []int{8},
		ServeRequests: 32,
		Replicas:      []int{0, 1, 2},
		Routings:      []cluster.Routing{cluster.RoundRobin, cluster.LeastQueue},
		Constraints:   Constraints{TopK: 20},
	}
}

// TestServingFleetEnumeration: the fleet axes expand each cell into one
// candidate per (fleet size, routing), with the routing axis collapsed to
// round-robin for single-instance and one-replica entries (a fleet of one
// routes identically under every policy), and every fleet axis value
// fingerprinted into the key.
func TestServingFleetEnumeration(t *testing.T) {
	points := Enumerate(fleetSpec0(t))
	// R=0 -> 1 candidate, R=1 -> 1 (routing canonicalized), R=2 -> 2.
	if len(points) != 4 {
		t.Fatalf("expected 4 candidates ({0,1}xRR, 2x{RR,LQ}), got %d", len(points))
	}
	type fleet struct {
		R  int
		Rt cluster.Routing
	}
	want := []fleet{
		{0, cluster.RoundRobin},
		{1, cluster.RoundRobin},
		{2, cluster.RoundRobin},
		{2, cluster.LeastQueue},
	}
	seen := make(map[string]bool)
	for i, p := range points {
		if got := (fleet{p.Replicas, p.Routing}); got != want[i] {
			t.Errorf("candidate %d: fleet axes %+v, want %+v", i, got, want[i])
		}
		k := p.Key()
		if seen[k] {
			t.Errorf("candidate %d: duplicate key %q", i, k)
		}
		seen[k] = true
		if memoKey(&p) != k {
			t.Errorf("candidate %d: enumeration key %q != recomputed %q", i, memoKey(&p), k)
		}
	}
}

// TestServingFleetDegenerate: a one-replica fleet candidate must cost
// identically to the plain single-instance candidate — the sweep-level
// face of the cluster package's R=1 == serve.Run equivalence.
func TestServingFleetDegenerate(t *testing.T) {
	points := Enumerate(fleetSpec0(t))
	single, err := Evaluate(points[0])
	if err != nil {
		t.Fatal(err)
	}
	one, err := Evaluate(points[1])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(single, one) {
		t.Errorf("R=1 fleet metrics diverge from single-instance:\n%+v\nvs\n%+v", one, single)
	}
}

// TestServingFleetMatchesCluster: a fleet candidate's metrics must be the
// cluster package's own fleet result — same simulation, same numbers.
func TestServingFleetMatchesCluster(t *testing.T) {
	points := Enumerate(fleetSpec0(t))
	p := points[3] // R=2, least-queue
	if p.Replicas != 2 || p.Routing != cluster.LeastQueue {
		t.Fatalf("unexpected candidate order: %+v", p)
	}
	m, err := Evaluate(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cluster.Run(clusterSpec(&p, make([]cluster.Replica, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Replicas != 2 || res.Routing != cluster.LeastQueue {
		t.Fatalf("clusterSpec lost the fleet axes: %+v", res)
	}
	if m.Time != res.E2E.P95 || m.TTFTP95 != res.TTFT.P95 || m.TPOTP95 != res.TPOT.P95 {
		t.Errorf("fleet metrics diverge from cluster.Run: %+v vs E2E %g TTFT %g TPOT %g",
			m, res.E2E.P95, res.TTFT.P95, res.TPOT.P95)
	}
	if m.TokensPerSec != res.TokensPerSec {
		t.Errorf("throughput %g, cluster reports %g", m.TokensPerSec, res.TokensPerSec)
	}
	if m.Footprint.KVCache <= 0 || m.Footprint.Weights <= 0 {
		t.Errorf("fleet footprint not populated: %+v", m.Footprint)
	}
}

// TestServingFleetEngineMatchesSerial: fleet candidates ride the same
// engine==serial guarantee as every other workload.
func TestServingFleetEngineMatchesSerial(t *testing.T) {
	spec := fleetSpec0(t)
	want, err := Serial(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		spec.Workers = workers
		got, err := New(workers).Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Errorf("engine(%d workers) diverges from serial on a fleet grid", workers)
		}
	}
}

// TestServingFleetMixAffinity: the fleet axes compose with a multi-tenant
// mix, and tenant-affinity fleets report the fleet-wide tenant breakdown.
func TestServingFleetMixAffinity(t *testing.T) {
	spec := fleetSpec0(t)
	spec.Mixes = [][]workload.TenantLoad{{
		{Tenant: "chat", Share: 0.5, PromptTokens: 100, GenTokens: 100},
		{Tenant: "batch", Share: 0.5, PromptTokens: 400, GenTokens: 200},
	}}
	spec.Replicas = []int{2}
	spec.Routings = []cluster.Routing{cluster.TenantAffinity}
	res, err := Serial(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("expected 1 fleet candidate, got %d", len(res.Rows))
	}
	m := res.Rows[0].Metrics
	if len(m.PerTenant) != 2 {
		t.Fatalf("expected 2 tenants in the fleet breakdown, got %+v", m.PerTenant)
	}
	for _, ts := range m.PerTenant {
		if ts.Requests == 0 || ts.E2EP95 <= 0 {
			t.Errorf("tenant %q summary not populated: %+v", ts.Tenant, ts)
		}
	}
}

// TestServingFleetValidation pins the fleet axes' rejection surface.
func TestServingFleetValidation(t *testing.T) {
	check := func(name, wantErr string, mut func(*Spec)) {
		t.Helper()
		spec := fleetSpec0(t)
		mut(&spec)
		err := spec.Validate()
		if err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Errorf("%s: got %v, want %q", name, err, wantErr)
		}
	}
	check("negative fleet", "Replicas: negative fleet size", func(s *Spec) { s.Replicas, s.Routings = []int{-1}, nil })
	check("oversized fleet", "Replicas: fleet size 4097 replicas beyond the 4096-replica limit",
		func(s *Spec) { s.Replicas = []int{0, cluster.MaxReplicas + 1} })
	check("unknown routing", "unknown routing policy", func(s *Spec) { s.Routings = []cluster.Routing{cluster.Routing(9)} })
	check("routings without replicas", "Routings needs a positive Replicas entry", func(s *Spec) { s.Replicas = nil })
	check("routings with only single-instance", "Routings needs a positive Replicas entry", func(s *Spec) { s.Replicas = []int{0} })
	check("fleet axes on training", "sweep: Replicas applies to serving sweeps only", func(s *Spec) {
		s.Workload = Training
		s.Rates, s.BatchCaps, s.ServeRequests, s.Routings = nil, nil, 0, nil
		s.Constraints = Constraints{}
	})
}
