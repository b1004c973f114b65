package cluster

import (
	"reflect"
	"testing"

	"optimus/internal/serve"
)

// materializedFleet is Runner.Run on the materialized stream: the
// replicas are armed on an envelope set to workload.Spec.Stream's shape
// per request, and each arrival is routed by its own entry and pushed it
// through the checked Instance.Push.
func materializedFleet(t *testing.T, s Spec) Result {
	t.Helper()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	times, shapes := s.Workload().WithDefaults().Stream(nil, nil)
	rn := new(Runner)
	if err := rn.env.Set(shapes); err != nil {
		t.Fatal(err)
	}
	for _, d := range s.Replicas {
		for range max(d.Count, 1) {
			in, err := new(serve.Runner).Instance(d.Spec, &rn.env)
			if err != nil {
				t.Fatal(err)
			}
			rn.instances = append(rn.instances, in)
		}
	}
	R := len(rn.instances)
	for i, at := range times {
		var r int
		switch s.Routing {
		case RoundRobin:
			r = i % R
		case TenantAffinity:
			r = tenantReplica(shapes[i].Tenant, R)
		default:
			r = leastLoaded(s.Routing, rn.instances, at)
		}
		if err := rn.instances[r].Push(shapes[i], at); err != nil {
			t.Fatal(err)
		}
		rn.assign = append(rn.assign, int32(r))
	}
	for _, in := range rn.instances {
		in.Drain()
	}
	res, err := rn.merge(s)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestUniformFleetMatchesMaterialized: a three-replica fleet of a
// fixed-shape workload, whose drawn stream holds one shape and whose
// pushes skip the per-request checks, equals, field for field, the fleet
// that routes and pushes each request its own checked entry of the
// materialized stream, under every router: a mixed fleet (full
// reservation, paged, disaggregated) of a spec-wide shape, and a paged
// fleet with a host tier of a spec-wide prefix.
func TestUniformFleetMatchesMaterialized(t *testing.T) {
	paged := capacity0(t)
	paged.Policy, paged.PageTokens, paged.KVCapacity = serve.Paged, 32, 4e9
	disagg := capacity0(t)
	disagg.Policy, disagg.TransferGBps, disagg.KVCapacity = serve.Disaggregated, 25, 4e9
	tiered := paged
	tiered.HostKVBytes, tiered.SwapGBps = 4e9, 8
	mixed := fleet0(t, 1)
	mixed.Replicas = []Replica{{Spec: capacity0(t)}, {Spec: paged}, {Spec: disagg}}
	mixed.Rate = 4
	prefixed := fleet0(t, 1)
	prefixed.Replicas = []Replica{{Spec: tiered, Count: 3}}
	prefixed.PrefixTokens, prefixed.Rate = 64, 6
	for _, tc := range []struct {
		name string
		spec Spec
	}{{"mixed", mixed}, {"prefix+tiered", prefixed}} {
		for _, routing := range routings {
			t.Run(tc.name+"/"+routing.String(), func(t *testing.T) {
				s := tc.spec
				s.Routing = routing
				want := materializedFleet(t, s)
				got, err := new(Runner).Run(s)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("the drawn fleet diverges from the materialized one: E2E p95 %g vs %g", got.E2E.P95, want.E2E.P95)
				}
			})
		}
	}
}
