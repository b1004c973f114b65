package serve

import (
	"reflect"
	"strings"
	"testing"

	"optimus/internal/workload"
)

// materializedRun is Runner.Run on the materialized stream: the envelope
// holds workload.Spec.Stream's shape per request, set rather than drawn,
// and every request is pushed its own entry, closed-loop issues included.
func materializedRun(t *testing.T, s Spec) Result {
	t.Helper()
	var rn Runner
	s, err := s.resolve(&rn.sim.ps)
	if err != nil {
		t.Fatal(err)
	}
	w := s.Workload()
	times, shapes := w.Stream(nil, nil)
	if len(shapes) != w.Requests {
		t.Fatalf("the materialized stream holds %d shapes, want %d", len(shapes), w.Requests)
	}
	if err := rn.env.Set(shapes); err != nil {
		t.Fatal(err)
	}
	s.SetWorkload(workload.Spec{})
	sim := &rn.sim
	slots := w.Requests
	if w.Closed {
		slots = min(w.Clients, w.Requests)
	}
	if err := sim.arm(s, &rn.env, slots, w.Requests); err != nil {
		t.Fatal(err)
	}
	in := Instance{sim: sim}
	if w.Closed {
		sim.closed, sim.target = true, w.Requests
		for _, sh := range shapes[:slots] {
			sim.pushShape(sh, 0)
		}
	} else {
		for i, at := range times {
			in.push(shapes[i], at)
		}
	}
	in.Drain()
	return sim.finish()
}

// TestUniformDrawMatchesMaterialized: a fixed-shape workload's draw holds
// one shape whatever its request count, and a Run on it equals, field for
// field, the Run that pushes each request its own entry of the
// materialized stream — open Poisson arrivals, a schedule, the closed
// loop, a spec-wide prefix under Paged with a host tier, Disaggregated
// and a one-entry explicit mix. Workloads whose shapes vary keep one
// shape per request.
func TestUniformDrawMatchesMaterialized(t *testing.T) {
	base := spec0(t)
	base.Rate, base.Requests = 2, 48
	_, perRequest := base.kvBudget()
	for _, tc := range []struct {
		name    string
		uniform bool
		mut     func(*Spec)
	}{
		{"poisson", true, func(s *Spec) {}},
		{"schedule", true, func(s *Spec) {
			s.Rate = 0
			s.Schedule = workload.Schedule{{Start: 0, End: 5, Rate: 0.5}, {Start: 5, End: 10, Rate: 8}, {Start: 10, End: 30, Rate: 1}}
		}},
		{"closed", true, func(s *Spec) { s.Arrival, s.Rate, s.Clients = ClosedLoop, 0, 6 }},
		{"prefix/paged+host", true, func(s *Spec) {
			s.Policy, s.PrefixTokens = Paged, 64
			s.KVCapacity, s.HostKVBytes, s.SwapGBps = 3*perRequest, 4*perRequest, 8
		}},
		{"disagg", true, func(s *Spec) { s.Policy, s.TransferGBps, s.KVCapacity = Disaggregated, 25, 4*perRequest }},
		{"one-entry mix", true, func(s *Spec) {
			s.PromptTokens, s.GenTokens = 0, 0
			s.Mix = []workload.TenantLoad{{Tenant: "chat", Share: 1, PromptTokens: 150, GenTokens: 100, PrefixID: "sys", PrefixTokens: 32}}
			s.Policy, s.KVCapacity = Paged, 4*perRequest
		}},
		{"mix", false, func(s *Spec) {
			s.PromptTokens, s.GenTokens = 0, 0
			s.Mix = []workload.TenantLoad{
				{Tenant: "chat", Share: 0.7, PromptTokens: 150, GenTokens: 100},
				{Tenant: "batch", Share: 0.3, PromptTokens: 400, GenTokens: 50},
			}
		}},
		{"lognormal", false, func(s *Spec) { lognormalMix(t, s) }},
		{"sessions", false, func(s *Spec) { s.GenTokens, s.Turns, s.Think = 100, 3, 2; s.Policy, s.KVCapacity = Paged, 3e9 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := base
			tc.mut(&s)
			want := materializedRun(t, s)
			var rn Runner
			got, err := rn.Run(s)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("the drawn stream's Run diverges from the materialized stream's: E2E p95 %g vs %g, %d vs %d iterations",
					got.E2E.P95, want.E2E.P95, got.Iterations, want.Iterations)
			}
			if held, n := len(rn.env.shapes), s.Requests; tc.uniform && held != 1 || !tc.uniform && held != n {
				t.Errorf("the envelope of %d requests holds %d shapes (uniform: %v)", n, held, tc.uniform)
			}
		})
	}
	// One shape at any count.
	for _, n := range []int{1, 2, 1000, 1 << 14} {
		w := base.Workload()
		w.Requests = n
		var env Envelope
		if times := env.Draw(w); len(times) != n || len(env.shapes) != 1 {
			t.Errorf("%d requests: the draw holds %d times and %d shapes", n, len(times), len(env.shapes))
		}
	}
}

// TestPushDrawnChecks: PushDrawn takes only arrivals drawn into the
// instance's envelope, in order and before the drain; an envelope of set
// shapes has no drawn arrivals.
func TestPushDrawnChecks(t *testing.T) {
	s := spec0(t)
	s.Rate, s.Requests = 2, 8
	capSpec, _, shapes := capacityOf(t, s)
	var env Envelope
	times := env.Draw(s.Workload())
	in, err := new(Runner).Instance(capSpec, &env)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{-1, len(times)} {
		if err := in.PushDrawn(i); err == nil || !strings.Contains(err.Error(), "outside the envelope") {
			t.Errorf("arrival %d: %v, want an out-of-range error", i, err)
		}
	}
	if err := in.PushDrawn(1); err != nil {
		t.Fatal(err)
	}
	if err := in.PushDrawn(0); err == nil || !strings.Contains(err.Error(), "non-decreasing") {
		t.Errorf("an earlier arrival after a later one: %v, want an order error", err)
	}
	in.Drain()
	if err := in.PushDrawn(2); err == nil || !strings.Contains(err.Error(), "after drain") {
		t.Errorf("a push after the drain: %v, want a drain error", err)
	}
	set, err := NewInstance(capSpec, shapes)
	if err != nil {
		t.Fatal(err)
	}
	if err := set.PushDrawn(0); err == nil {
		t.Error("an envelope of set shapes has no drawn arrivals to push")
	}
}
