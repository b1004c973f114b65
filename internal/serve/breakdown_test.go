package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// mapTenantBreakdown is the map-of-copies tenant breakdown the
// permutation grouping replaced, kept as its oracle: group by tenant into
// copied slices, sort the names, and summarize each tenant in fresh
// buffers.
func mapTenantBreakdown(done []RequestMetrics) []TenantMetrics {
	byTenant := make(map[string][]RequestMetrics)
	names := make([]string, 0, 4)
	for _, m := range done {
		if _, ok := byTenant[m.Tenant]; !ok {
			names = append(names, m.Tenant)
		}
		byTenant[m.Tenant] = append(byTenant[m.Tenant], m)
	}
	sort.Strings(names)
	summarize := func(ms []RequestMetrics, f func(RequestMetrics) float64) Percentiles {
		vals := make([]float64, 0, len(ms))
		for _, m := range ms {
			vals = append(vals, f(m))
		}
		sort.Float64s(vals)
		return percentiles(vals)
	}
	out := make([]TenantMetrics, 0, len(names))
	for _, name := range names {
		ms := byTenant[name]
		gen := 0
		for _, m := range ms {
			gen += m.GenTokens
		}
		out = append(out, TenantMetrics{
			Tenant: name, Requests: len(ms), GenTokens: gen,
			TTFT:  summarize(ms, func(m RequestMetrics) float64 { return m.TTFT }),
			TPOT:  summarize(ms, func(m RequestMetrics) float64 { return m.TPOT }),
			E2E:   summarize(ms, func(m RequestMetrics) float64 { return m.E2E }),
			Queue: summarize(ms, func(m RequestMetrics) float64 { return m.Queue }),
		})
	}
	return out
}

// summarizeRequests summarizes a completed request set with exactly the
// math Run applies to its own ledger: the reference SummarizeInstances'
// merged fleet summary is pinned to.
func summarizeRequests(done []RequestMetrics) Summary {
	var sc summaryScratch
	return sc.summarize(done, false)
}

// TestTenantBreakdownMatchesMapOracle pins summarizeRequests to the
// map-based oracle, reflect and JSON, over seeded random request sets: one
// tenant up to many, tenants with a single request, +Inf samples (a
// saturated SLO) and the empty set, whose breakdown must stay non-nil and
// empty ("[]", not "null"). The aggregate must be the oracle's summary of
// the set as one tenant, its generated tokens the set's sum. A pooled
// scratch, carried from case to case as a Runner carries it between runs,
// must summarize identically.
func TestTenantBreakdownMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var sc summaryScratch
	check := func(name string, done []RequestMetrics) {
		t.Helper()
		want := mapTenantBreakdown(done)
		sum := summarizeRequests(done)
		got := sum.PerTenant
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: breakdown diverges from the map oracle\n got %+v\nwant %+v", name, got, want)
		}
		// encoding/json refuses +Inf, so a saturated set must fail to
		// encode the same way on both sides.
		jw, ew := json.Marshal(want)
		jg, eg := json.Marshal(got)
		if string(jw) != string(jg) || fmt.Sprint(ew) != fmt.Sprint(eg) {
			t.Fatalf("%s: JSON diverges from the map oracle\n got %s (%v)\nwant %s (%v)", name, jg, eg, jw, ew)
		}
		gen := 0
		one := make([]RequestMetrics, len(done))
		for i, m := range done {
			gen += m.GenTokens
			m.Tenant = ""
			one[i] = m
		}
		if sum.Requests != len(done) || sum.GenTokens != gen {
			t.Fatalf("%s: aggregate counts %d requests and %d generated tokens, want %d and %d", name, sum.Requests, sum.GenTokens, len(done), gen)
		}
		if agg := mapTenantBreakdown(one); len(agg) > 0 && !reflect.DeepEqual(agg[0], sum.TenantMetrics) {
			t.Fatalf("%s: aggregate diverges from the map oracle\n got %+v\nwant %+v", name, sum.TenantMetrics, agg[0])
		}
		if pooled := sc.summarize(done, false); !reflect.DeepEqual(pooled, sum) {
			t.Fatalf("%s: the pooled scratch's summary diverges from summarizeRequests'", name)
		}
	}
	sample := func(inf float64) float64 {
		if rng.Float64() < inf {
			return math.Inf(1)
		}
		// Coarse values so tenants tie on samples as well as differ.
		return float64(rng.Intn(50)) / 8
	}
	request := func(id int, tenant string, inf float64) RequestMetrics {
		return RequestMetrics{
			ID: id, Tenant: tenant, PromptTokens: 1 + rng.Intn(500), GenTokens: 1 + rng.Intn(300),
			TTFT: sample(inf), TPOT: sample(inf), E2E: sample(inf), Queue: sample(inf),
		}
	}

	check("empty", []RequestMetrics{})
	check("nil", nil)
	check("one request", []RequestMetrics{request(0, "solo", 0)})
	check("single-request tenants", []RequestMetrics{
		request(0, "c", 0), request(1, "a", 1), request(2, "b", 0), request(3, "a", 0),
	})
	for trial := 0; trial < 200; trial++ {
		tenants := 1 + rng.Intn(40)
		n := rng.Intn(300)
		inf := []float64{0, 0, 0.05, 1}[trial%4]
		done := make([]RequestMetrics, n)
		for i := range done {
			// Skewed draws: low-numbered tenants are common, high ones
			// often get a single request or none.
			tn := int(float64(tenants) * rng.Float64() * rng.Float64())
			done[i] = request(i, fmt.Sprintf("t%02d", tn), inf)
		}
		check(fmt.Sprintf("trial %d (%d tenants, %d requests, inf %g)", trial, tenants, n, inf), done)
	}
}

// keptInstance is a drained instance whose assembled Result summarized
// done, as a fleet replica's does.
func keptInstance(done []RequestMetrics) *Instance {
	sim := &simulator{done: done}
	sum := sim.sums.summarize(done, true)
	return &Instance{sim: sim, drained: true, tenants: sum.PerTenant}
}

// TestSummarizeInstancesMatchesConcatenation is the fleet merge's
// property: random multi-tenant ledgers split across k replicas — with
// tied and zero latencies, one-request tenants, replicas that drew nothing
// and k = 1 — must summarize, merged, exactly as summarizeRequests
// summarizes their concatenation, and as the map oracle breaks it down.
func TestSummarizeInstancesMatchesConcatenation(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	sample := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			// Coarse values tie across tenants and replicas.
			return float64(rng.Intn(8)) / 4
		}
		return rng.ExpFloat64()
	}
	for trial := 0; trial < 300; trial++ {
		k := 1 + rng.Intn(9)
		tenants := 1 + rng.Intn(12)
		n := rng.Intn(200)
		if trial%10 == 0 {
			n = rng.Intn(3)
		}
		var all []RequestMetrics
		shares := make([][]RequestMetrics, k)
		for i := 0; i < n; i++ {
			tn := int(float64(tenants) * rng.Float64() * rng.Float64())
			m := RequestMetrics{
				ID: i, Tenant: fmt.Sprintf("t%02d", tn), GenTokens: 1 + rng.Intn(300),
				TTFT: sample(), TPOT: sample(), E2E: sample(), Queue: sample(),
			}
			all = append(all, m)
			// Skewed routing leaves high-numbered replicas empty often.
			r := int(float64(k) * rng.Float64() * rng.Float64())
			shares[r] = append(shares[r], m)
		}
		ins := make([]*Instance, k)
		for r, share := range shares {
			ins[r] = keptInstance(share)
		}
		got, err := SummarizeInstances(ins, new([]float64))
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("trial %d (%d replicas, %d tenants, %d requests)", trial, k, tenants, n)
		if want := summarizeRequests(all); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: merged summary diverges from the concatenation's\n got %+v\nwant %+v", name, got, want)
		}
		if want := mapTenantBreakdown(all); !reflect.DeepEqual(got.PerTenant, want) {
			t.Fatalf("%s: merged breakdown diverges from the map oracle\n got %+v\nwant %+v", name, got.PerTenant, want)
		}
	}
	if _, err := SummarizeInstances([]*Instance{keptInstance(nil), {sim: new(simulator), drained: true}}, new([]float64)); err == nil {
		t.Error("an instance without an assembled Result was merged")
	}
}
