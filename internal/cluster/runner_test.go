package cluster

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"optimus/internal/serve"
)

// TestClusterRunnerReuseMatchesFresh is the fleet-level pooling pin: one
// Runner recycled across fleet sizes, routing policies, rates and seeds —
// every replica's slabs flowing through the same per-slot serve.Runners —
// must reproduce a fresh package-level Run byte-identically (reflect and
// JSON), including a second warm pass per spec.
func TestClusterRunnerReuseMatchesFresh(t *testing.T) {
	type tcase struct {
		name string
		spec Spec
	}
	// First, the benchmark's shape: eight disaggregated replicas behind
	// least-kv under a lognormal two-tenant mix. Its long-tailed shapes
	// would widen the smaller fleets' geometry after it if the pooled
	// envelope kept any of them.
	cases := []tcase{{"disagg-8/least-kv", disaggFleet(t, 256)}}
	for _, n := range []int{1, 3} {
		for _, routing := range []Routing{RoundRobin, LeastQueue, LeastKV} {
			for _, rate := range []float64{0.5, 4} {
				for _, seed := range []int64{1, 7} {
					s := fleet0(t, n)
					s.Routing, s.Rate, s.Seed = routing, rate, seed
					s.Requests = 48
					cases = append(cases, tcase{
						fmt.Sprintf("n=%d/%v/rate=%g/seed=%d", n, routing, rate, seed), s})
				}
			}
		}
	}
	// A heterogeneous fleet: paged beside reserve-full capacity, so the
	// pooled per-slot serve.Runners must re-arm across policies.
	het := fleet0(t, 1)
	paged := capacity0(t)
	paged.Policy = serve.Paged
	paged.KVCapacity = 3e9
	het.Replicas = append(het.Replicas, Replica{Spec: paged})
	het.Routing = LeastQueue
	het.Requests = 48
	cases = append(cases, tcase{"heterogeneous", het})

	rn := new(Runner)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fresh, err := Run(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			for pass, label := range []string{"cold", "warm"} {
				pooled, err := rn.Run(tc.spec)
				if err != nil {
					t.Fatalf("pooled %s run: %v", label, err)
				}
				if !reflect.DeepEqual(fresh, pooled) {
					t.Errorf("pooled %s (pass %d) fleet result diverges from fresh Run", label, pass)
				}
				jf, _ := json.Marshal(fresh)
				jp, _ := json.Marshal(pooled)
				if string(jf) != string(jp) {
					t.Errorf("pooled %s (pass %d) fleet JSON diverges from fresh Run", label, pass)
				}
			}
		})
	}
}
