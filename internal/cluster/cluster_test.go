package cluster

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"optimus/internal/arch"
	"optimus/internal/model"
	"optimus/internal/serve"
	"optimus/internal/tech"
	"optimus/internal/workload"
)

// capacity0 is the baseline replica capacity: Llama2-13B on one A100 —
// spec0 from the serve tests, stripped to the capacity descriptor an
// instance carries.
func capacity0(t testing.TB) serve.Spec {
	t.Helper()
	sys, err := arch.SystemOf(arch.A100(), 1, 8, tech.NVLink3, tech.IBNDR)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := model.ByName("Llama2-13B")
	if err != nil {
		t.Fatal(err)
	}
	return serve.Spec{Model: cfg, System: sys, TP: 1, Precision: tech.FP16}
}

// fleet0 is a homogeneous fleet of n baseline replicas under the default
// 200/200 workload.
func fleet0(t testing.TB, n int) Spec {
	t.Helper()
	return Spec{
		Replicas:     []Replica{{Spec: capacity0(t), Count: n}},
		PromptTokens: 200, GenTokens: 200,
		Rate: 2.0, Requests: 64, Seed: 1,
	}
}

// lognormalMix is a heavy-tailed two-tenant mix: the drawn stream's
// largest request stays far below the largest possible one (8× each
// median).
func lognormalMix(t testing.TB) []workload.TenantLoad {
	t.Helper()
	mix, err := workload.ParseMix("chat:0.7:300~0.8:150~0.6,batch:0.3:1200~0.5:400")
	if err != nil {
		t.Fatal(err)
	}
	return mix
}

// TestSingleReplicaReproducesServe is the degenerate-equivalence pin: a
// one-replica fleet must reproduce plain serve.Run byte-identically
// (reflect + JSON) — the replica-level result exactly, and the
// fleet-level summaries agreeing with the serve-level ones — across a
// workload × rate × cap × policy × seed grid, each workload under every
// policy that accepts it, behind every router. The least-* routers step
// the replica in per-arrival barriers, which must not change its result.
func TestSingleReplicaReproducesServe(t *testing.T) {
	all := []serve.Policy{serve.ReserveFull, serve.Paged, serve.Disaggregated}
	for _, wc := range []struct {
		name string
		w    workload.Spec
		kv   float64 // KV budget of the paged layouts
		pols []serve.Policy
	}{
		{"fixed", workload.Spec{PromptTokens: 200, GenTokens: 200}, 3e9, all},
		{"lognormal", workload.Spec{Mix: lognormalMix(t)}, 12e9, all},
		{"sessions", workload.Spec{PromptTokens: 200, GenTokens: 100, Turns: 3, Think: 2}, 3e9, []serve.Policy{serve.Paged}},
	} {
		for _, rate := range []float64{0.5, 4.0} {
			for _, maxBatch := range []int{0, 6} {
				for _, pol := range wc.pols {
					for _, seed := range []int64{1, 99} {
						cap := capacity0(t)
						cap.MaxBatch = maxBatch
						cap.Policy = pol
						if pol != serve.ReserveFull {
							cap.KVCapacity = wc.kv
						}
						w := wc.w
						w.Rate, w.Requests, w.Seed = rate, 48, seed
						single := cap
						single.SetWorkload(w)
						want, err := serve.Run(single)
						if err != nil {
							t.Fatal(err)
						}
						jw, _ := json.Marshal(want)

						for _, routing := range routings {
							name := fmt.Sprintf("%s rate=%g cap=%d %v seed=%d %v", wc.name, rate, maxBatch, pol, seed, routing)
							fs := Spec{Replicas: []Replica{{Spec: cap}}, Routing: routing}
							fs.SetWorkload(w)
							fleet, err := Run(fs)
							if err != nil {
								t.Fatal(err)
							}
							got := fleet.PerReplica[0].Result
							if !reflect.DeepEqual(want, got) {
								t.Fatalf("%s: R=1 replica result diverges from serve.Run: E2E p95 %g vs %g, %d vs %d iterations, MaxBatch %d vs %d",
									name, got.E2E.P95, want.E2E.P95, got.Iterations, want.Iterations, got.MaxBatch, want.MaxBatch)
							}
							jg, _ := json.Marshal(got)
							if string(jw) != string(jg) {
								t.Fatalf("%s: JSON encodings differ", name)
							}
							// The fleet summaries must agree with the serve-level
							// ones exactly — same samples, same percentile math.
							if fleet.E2E != want.E2E || fleet.TTFT != want.TTFT || fleet.TPOT != want.TPOT || fleet.Queue != want.Queue {
								t.Fatalf("%s: fleet percentiles diverge from serve.Run's", name)
							}
							if fleet.SimTime != want.SimTime || fleet.ThroughputRPS != want.ThroughputRPS || fleet.TokensPerSec != want.TokensPerSec {
								t.Fatalf("%s: fleet totals diverge from serve.Run's", name)
							}
							if !reflect.DeepEqual(fleet.PerTenant, want.PerTenant) {
								t.Fatalf("%s: fleet tenant breakdown diverges", name)
							}
						}
					}
				}
			}
		}
	}
}

// TestTenantRenamingInvariance: tenant names label requests and never
// price them, so renaming every tenant leaves each request's metrics
// unchanged apart from its Tenant — under serve.Run and behind a least-kv
// fleet router alike.
func TestTenantRenamingInvariance(t *testing.T) {
	rename := func(mix []workload.TenantLoad) []workload.TenantLoad {
		out := slices.Clone(mix)
		for i := range out {
			// Reversed and prefixed, so the tenants also sort the other
			// way round.
			r := []rune(out[i].Tenant)
			slices.Reverse(r)
			out[i].Tenant = "z" + strings.Repeat("y", i) + string(r)
		}
		return out
	}
	untenanted := func(ms []serve.RequestMetrics) []serve.RequestMetrics {
		out := slices.Clone(ms)
		for i := range out {
			out[i].Tenant = ""
		}
		return out
	}
	mix := lognormalMix(t)
	mix[0].PrefixID, mix[0].PrefixTokens = "sys", 16

	single := capacity0(t)
	single.Policy, single.KVCapacity = serve.Paged, 12e9
	single.Mix, single.Rate, single.Requests, single.Seed = mix, 3, 96, 5
	renamed := single
	renamed.Mix = rename(mix)
	a, err := serve.Run(single)
	if err != nil {
		t.Fatal(err)
	}
	b, err := serve.Run(renamed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(untenanted(a.PerRequest), untenanted(b.PerRequest)) {
		t.Error("serve.Run: renaming tenants changed per-request metrics")
	}

	fleet := disaggFleet(t, 128)
	renamedFleet := fleet
	renamedFleet.Mix = rename(fleet.Mix)
	fa, err := Run(fleet)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := Run(renamedFleet)
	if err != nil {
		t.Fatal(err)
	}
	if len(fa.PerRequest) != len(fb.PerRequest) {
		t.Fatalf("fleet completed %d vs %d requests", len(fa.PerRequest), len(fb.PerRequest))
	}
	for i := range fa.PerRequest {
		x, y := fa.PerRequest[i], fb.PerRequest[i]
		x.Tenant, y.Tenant = "", ""
		if x != y {
			t.Fatalf("least-kv fleet: renaming tenants changed request %d: %+v vs %+v", i, x, y)
		}
	}
}

// disaggFleet is the benchmark's fleet shape: 8 disaggregated replicas
// (Llama2-13B on TP=2 H100, one prefill and one decode device) behind
// least-kv routing under a lognormal two-tenant mix.
func disaggFleet(t testing.TB, requests int) Spec {
	t.Helper()
	sys, err := arch.SystemOf(arch.H100(), 2, 8, tech.NVLink4, tech.IBNDR)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := model.ByName("Llama2-13B")
	if err != nil {
		t.Fatal(err)
	}
	mix, err := workload.ParseMix("chat:0.7:300~0.8:150~0.6,batch:0.3:1200~0.5:400")
	if err != nil {
		t.Fatal(err)
	}
	capacity := serve.Spec{
		Model: cfg, System: sys, TP: 2, Precision: tech.FP16,
		Policy: serve.Disaggregated, PrefillDevices: 1, DecodeDevices: 1,
	}
	return Spec{
		Replicas: []Replica{{Spec: capacity, Count: 8}},
		Routing:  LeastKV,
		Mix:      mix, Rate: 24, Requests: requests, Seed: 1,
	}
}

// TestFleetDeterministicAcrossGOMAXPROCS: the fleet runs on the caller's
// goroutine, and this pins that it stays that way in effect — fleets at
// GOMAXPROCS 1, 2 and 8 must be byte-identical for every routing policy
// and for the benchmark's disaggregated least-kv shape, whose arrival
// barriers advance every replica.
func TestFleetDeterministicAcrossGOMAXPROCS(t *testing.T) {
	type tcase struct {
		name string
		spec Spec
	}
	var cases []tcase
	for _, routing := range routings {
		s := fleet0(t, 4)
		s.Routing = routing
		s.Mix = []workload.TenantLoad{
			{Tenant: "chat", Share: 0.6, PromptTokens: 150, GenTokens: 120},
			{Tenant: "batch", Share: 0.4, PromptTokens: 350, GenTokens: 40},
		}
		s.PromptTokens, s.GenTokens = 0, 0
		cases = append(cases, tcase{routing.String(), s})
	}
	cases = append(cases, tcase{"disagg-8/least-kv", disaggFleet(t, 256)})

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range cases {
		var first Result
		var firstJSON string
		for i, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			res, err := Run(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			js, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				first, firstJSON = res, string(js)
				continue
			}
			if !reflect.DeepEqual(first, res) {
				t.Errorf("%s: fleet result differs between GOMAXPROCS 1 and %d", tc.name, procs)
			}
			if string(js) != firstJSON {
				t.Errorf("%s: JSON encodings differ between GOMAXPROCS 1 and %d", tc.name, procs)
			}
		}
	}
}

// TestFleetReplicaReplay is the premise the fleet's one loop rests on: a
// replica's result depends only on its own push sequence. Under every
// router, a heterogeneous three-replica fleet (reserve-full A100, paged
// A100, disaggregated H100 pair) must reproduce, replica by replica, a
// fresh Instance on the fleet's envelope fed exactly the requests the
// fleet routed to it at their fleet arrival times — equal JSON bytes.
func TestFleetReplicaReplay(t *testing.T) {
	paged := capacity0(t)
	paged.Policy, paged.PageTokens, paged.KVCapacity = serve.Paged, 32, 12e9
	disagg := disaggFleet(t, 1).Replicas[0].Spec
	mix, err := workload.ParseMix("chat:0.5:300~0.8:150~0.6,batch:0.3:1200~0.5:400,code:0.2:600:200")
	if err != nil {
		t.Fatal(err)
	}
	for _, routing := range routings {
		s := Spec{
			Replicas: []Replica{{Spec: capacity0(t)}, {Spec: paged}, {Spec: disagg}},
			Routing:  routing,
			Mix:      mix, Rate: 6, Requests: 120, Seed: 4,
		}
		res, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		times, shapes := s.Workload().WithDefaults().Stream(nil, nil)
		for r, rr := range res.PerReplica {
			in, err := serve.NewInstance(s.Replicas[r].Spec, shapes)
			if err != nil {
				t.Fatal(err)
			}
			// PerRequest is in global arrival order, which is each
			// replica's push order.
			for _, m := range res.PerRequest {
				if m.Replica != r {
					continue
				}
				if err := in.Push(shapes[m.ID], times[m.ID]); err != nil {
					t.Fatalf("%v replica %d: replaying request %d: %v", routing, r, m.ID, err)
				}
			}
			in.Drain()
			want, err := in.Result()
			if err != nil {
				t.Fatal(err)
			}
			if want.Requests != rr.Assigned {
				t.Fatalf("%v replica %d: replay completed %d of its %d assigned", routing, r, want.Requests, rr.Assigned)
			}
			jw, _ := json.Marshal(want)
			jg, _ := json.Marshal(rr.Result)
			if string(jw) != string(jg) {
				t.Errorf("%v replica %d (%d requests): fleet result diverges from its replay: E2E p95 %g vs %g, %d vs %d iterations",
					routing, r, rr.Assigned, rr.Result.E2E.P95, want.E2E.P95, rr.Result.Iterations, want.Iterations)
			}
		}
	}
}

// TestFleetMergeInvariants: whatever the routing, the merged fleet view
// must conserve the stream — every global arrival index exactly once, in
// order, served by an in-range replica, with Assigned counts summing to
// the request count.
func TestFleetMergeInvariants(t *testing.T) {
	for _, routing := range routings {
		s := fleet0(t, 3)
		s.Routing = routing
		res, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if res.Requests != 64 || len(res.PerRequest) != 64 {
			t.Fatalf("%v: completed %d of 64", routing, res.Requests)
		}
		assigned := 0
		for _, rr := range res.PerReplica {
			assigned += rr.Assigned
			if rr.Result.Requests != rr.Assigned {
				t.Errorf("%v: replica %d completed %d of its %d assigned", routing, rr.Index, rr.Result.Requests, rr.Assigned)
			}
		}
		if assigned != 64 {
			t.Errorf("%v: assigned counts sum to %d, want 64", routing, assigned)
		}
		for i, m := range res.PerRequest {
			if m.ID != i {
				t.Fatalf("%v: merged request %d has global ID %d", routing, i, m.ID)
			}
			if m.Replica < 0 || m.Replica >= res.Replicas {
				t.Fatalf("%v: request %d served by out-of-range replica %d", routing, i, m.Replica)
			}
		}
	}
}

// TestRoutingPolicyBehavior pins each policy's characteristic assignment:
// round-robin splits evenly, tenant affinity keeps each tenant on exactly
// one replica, and the load-aware policies never leave a replica unused
// under sustained load.
func TestRoutingPolicyBehavior(t *testing.T) {
	mix := []workload.TenantLoad{
		{Tenant: "a", Share: 1, PromptTokens: 150, GenTokens: 100},
		{Tenant: "b", Share: 1, PromptTokens: 200, GenTokens: 150},
		{Tenant: "c", Share: 1, PromptTokens: 250, GenTokens: 50},
	}
	base := fleet0(t, 3)
	base.PromptTokens, base.GenTokens = 0, 0
	base.Mix = mix
	base.Rate, base.Requests = 6.0, 60

	t.Run("round-robin", func(t *testing.T) {
		s := base
		s.Routing = RoundRobin
		res, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		for _, rr := range res.PerReplica {
			if rr.Assigned != 20 {
				t.Errorf("replica %d assigned %d, want an even 20", rr.Index, rr.Assigned)
			}
		}
		for _, m := range res.PerRequest {
			if m.Replica != m.ID%3 {
				t.Fatalf("request %d on replica %d, want %d", m.ID, m.Replica, m.ID%3)
			}
		}
	})
	t.Run("tenant-affinity", func(t *testing.T) {
		s := base
		s.Routing = TenantAffinity
		res, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		home := map[string]int{}
		for _, m := range res.PerRequest {
			if prev, ok := home[m.Tenant]; ok && prev != m.Replica {
				t.Fatalf("tenant %s served by replicas %d and %d", m.Tenant, prev, m.Replica)
			}
			home[m.Tenant] = m.Replica
		}
	})
	for _, routing := range []Routing{LeastQueue, LeastKV} {
		t.Run(routing.String(), func(t *testing.T) {
			s := base
			s.Routing = routing
			res, err := Run(s)
			if err != nil {
				t.Fatal(err)
			}
			for _, rr := range res.PerReplica {
				if rr.Assigned == 0 {
					t.Errorf("replica %d unused under sustained load", rr.Index)
				}
			}
		})
	}
}

// TestMoreReplicasImproveSLO: at a rate that saturates one replica, a
// four-replica fleet must cut the fleet p95 E2E — the basic capacity
// physics the cluster model exists to expose.
func TestMoreReplicasImproveSLO(t *testing.T) {
	one := fleet0(t, 1)
	one.Rate = 3.0
	r1, err := Run(one)
	if err != nil {
		t.Fatal(err)
	}
	four := fleet0(t, 4)
	four.Rate = 3.0
	r4, err := Run(four)
	if err != nil {
		t.Fatal(err)
	}
	if r4.E2E.P95 >= r1.E2E.P95 {
		t.Errorf("4 replicas p95 E2E %g should beat 1 replica's %g", r4.E2E.P95, r1.E2E.P95)
	}
	if r4.SimTime > r1.SimTime {
		t.Errorf("4-replica makespan %g should not exceed 1-replica %g", r4.SimTime, r1.SimTime)
	}
}

// TestHeterogeneousFleet: replicas are full capacity descriptors — a mixed
// fleet (reserve A100 alongside a paged, KV-capped A100) runs, serves from
// both boxes, and echoes each replica's own policy in its result.
func TestHeterogeneousFleet(t *testing.T) {
	big := capacity0(t)
	small := capacity0(t)
	small.Policy = serve.Paged
	small.PageTokens = 32
	small.KVCapacity = 2e9
	small.MaxBatch = 4

	s := Spec{
		Replicas:     []Replica{{Spec: big}, {Spec: small, Count: 2}},
		Routing:      LeastQueue,
		PromptTokens: 200, GenTokens: 200,
		Rate: 4.0, Requests: 96, Seed: 3,
	}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replicas != 3 {
		t.Fatalf("fleet expanded to %d replicas, want 3", res.Replicas)
	}
	wantDesc := []int{0, 1, 1}
	wantPol := []serve.Policy{serve.ReserveFull, serve.Paged, serve.Paged}
	for i, rr := range res.PerReplica {
		if rr.Descriptor != wantDesc[i] {
			t.Errorf("replica %d from descriptor %d, want %d", i, rr.Descriptor, wantDesc[i])
		}
		if rr.Result.Policy != wantPol[i] {
			t.Errorf("replica %d ran policy %v, want %v", i, rr.Result.Policy, wantPol[i])
		}
		if rr.Assigned == 0 {
			t.Errorf("replica %d unused in the heterogeneous fleet", i)
		}
	}
	if res.Requests != 96 {
		t.Errorf("completed %d of 96", res.Requests)
	}
}

// TestClusterValidate pins the spec rejection surface.
func TestClusterValidate(t *testing.T) {
	check := func(name string, wantErr string, mut func(*Spec)) {
		t.Helper()
		s := fleet0(t, 2)
		mut(&s)
		err := s.Validate()
		if wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", name, err)
			}
			return
		}
		if err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Errorf("%s: got %v, want %q", name, err, wantErr)
		}
	}
	check("baseline", "", func(s *Spec) {})
	check("no replicas", "at least one replica", func(s *Spec) { s.Replicas = nil })
	check("zero-count fleet", "", func(s *Spec) { s.Replicas[0].Count = 1 })
	check("negative count", "negative count", func(s *Spec) { s.Replicas[0].Count = -1 })
	// A zero count instantiates one replica, so it counts toward the limit.
	check("fleet at the limit", "", func(s *Spec) {
		s.Replicas[0].Count = MaxReplicas - 1
		s.Replicas = append(s.Replicas, Replica{Spec: s.Replicas[0].Spec})
	})
	check("one past the limit", "4096-replica limit", func(s *Spec) {
		s.Replicas[0].Count = MaxReplicas
		s.Replicas = append(s.Replicas, Replica{Spec: s.Replicas[0].Spec})
	})
	// A sum taken before the comparison would wrap to a negative total.
	check("overflowing sum of counts", "4096-replica limit", func(s *Spec) {
		s.Replicas[0].Count = 1
		s.Replicas = append(s.Replicas, Replica{Spec: s.Replicas[0].Spec, Count: math.MaxInt})
	})
	check("unknown routing", "unknown routing", func(s *Spec) { s.Routing = Routing(42) })
	check("replica with workload", "workload fields", func(s *Spec) { s.Replicas[0].Spec.PromptTokens = 100 })
	check("replica with arrival", "arrival fields", func(s *Spec) { s.Replicas[0].Spec.Rate = 1 })
	check("replica with clients", "arrival fields", func(s *Spec) { s.Replicas[0].Spec.Clients = 4 })
	check("zero rate", "rate", func(s *Spec) { s.Rate = 0 })
	check("mix and shape", "leave them zero", func(s *Spec) {
		s.Mix = []workload.TenantLoad{{Tenant: "x", Share: 1, PromptTokens: 10, GenTokens: 10}}
	})
	check("empty non-nil trace", "empty trace", func(s *Spec) {
		s.PromptTokens, s.GenTokens, s.Rate = 0, 0, 0
		s.Trace = []workload.TraceEvent{}
	})
	check("trace with rate", "leave Arrival/Rate/Clients/Seed/Schedule/Turns/Think unset", func(s *Spec) {
		s.PromptTokens, s.GenTokens = 0, 0
		s.Trace = []workload.TraceEvent{{Arrival: 0, Request: workload.Request{Tenant: "a", PromptTokens: 100, GenTokens: 10}}}
	})
	check("trace", "", func(s *Spec) {
		s.PromptTokens, s.GenTokens, s.Rate, s.Requests, s.Seed = 0, 0, 0, 0, 0
		s.Trace = []workload.TraceEvent{{Arrival: 0, Request: workload.Request{Tenant: "a", PromptTokens: 100, GenTokens: 10}}}
	})
	check("infeasible replica", "does not fit", func(s *Spec) { s.Replicas[0].Spec.KVCapacity = 1e6 })
}

// TestClusterTraceWorkload: a trace drives the fleet exactly as it drives
// serve.Run — the R=1 equivalence holds for replayed workloads too, and a
// multi-replica fleet completes every event.
func TestClusterTraceWorkload(t *testing.T) {
	trace := []workload.TraceEvent{
		{Arrival: 0, Request: workload.Request{Tenant: "a", PromptTokens: 120, GenTokens: 30}},
		{Arrival: 0.2, Request: workload.Request{Tenant: "b", PromptTokens: 200, GenTokens: 60}},
		{Arrival: 0.9, Request: workload.Request{Tenant: "a", PromptTokens: 80, GenTokens: 10}},
		{Arrival: 1.4, Request: workload.Request{Tenant: "c", PromptTokens: 300, GenTokens: 90}},
	}
	single := capacity0(t)
	single.Trace = trace
	want, err := serve.Run(single)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := Run(Spec{Replicas: []Replica{{Spec: capacity0(t)}}, Trace: trace})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, fleet.PerReplica[0].Result) {
		t.Error("R=1 trace fleet diverges from serve.Run")
	}
	multi, err := Run(Spec{Replicas: []Replica{{Spec: capacity0(t), Count: 2}}, Routing: LeastKV, Trace: trace})
	if err != nil {
		t.Fatal(err)
	}
	if multi.Requests != len(trace) {
		t.Errorf("fleet completed %d of %d trace events", multi.Requests, len(trace))
	}
}
