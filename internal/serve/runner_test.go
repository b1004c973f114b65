package serve

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"optimus/internal/workload"
)

// TestRunnerReuseMatchesFresh is the pooling pin: a Runner recycled across
// a rate × KV-cap × policy × seed grid — specs of different policies,
// budgets and arrival processes flowing through ONE set of slabs — must
// reproduce a fresh Run byte-identically (reflect.DeepEqual and marshalled
// JSON). Each spec runs through the pooled Runner twice: the second pass
// hits the warm-pricing path (unchanged coster key keeps the cached
// tables), which must also be byte-identical.
func TestRunnerReuseMatchesFresh(t *testing.T) {
	base := spec0(t)
	base.Requests = 48
	_, perRequest := base.kvBudget()

	type tcase struct {
		name string
		spec Spec
		// dirty first abandons a paged instance on the pooled Runner
		// with sequences still running, so the arm reuses words that
		// hold counts.
		dirty bool
	}
	var cases []tcase
	for _, rate := range []float64{0.5, 4} {
		for _, seed := range []int64{1, 7} {
			for _, kvCap := range []float64{0, 8 * perRequest} {
				s := base
				s.Rate, s.Seed, s.KVCapacity = rate, seed, kvCap
				cases = append(cases, tcase{
					fmt.Sprintf("reserve/rate=%g/seed=%d/tight=%v", rate, seed, kvCap > 0), s, false})
				p := s
				p.Policy = Paged
				cases = append(cases, tcase{
					fmt.Sprintf("paged/rate=%g/seed=%d/tight=%v", rate, seed, kvCap > 0), p, false})
			}
		}
	}
	// Disaggregated: a genuinely split two-device deployment with a KV
	// budget tight enough to migrate and preempt.
	dis := splitSpec(t)
	for _, seed := range []int64{1, 7} {
		d := dis
		d.Seed = seed
		cases = append(cases, tcase{fmt.Sprintf("disagg/seed=%d", seed), d, false})
	}
	// Closed loop: the completion-driven arrival path grows the request
	// slab mid-step — the reuse-hostile shape.
	cl := base
	cl.Arrival, cl.Rate, cl.Clients = ClosedLoop, 0, 8
	cases = append(cases, tcase{"closed-loop", cl, false})
	// Multi-tenant mix: exercises the map-based tenant breakdown (the
	// single-tenant fast path must not leak into it).
	mx := base
	mx.Rate = 2
	mx.PromptTokens, mx.GenTokens = 0, 0
	mx.Mix = []workload.TenantLoad{
		{Tenant: "chat", Share: 0.7, PromptTokens: 150, GenTokens: 100},
		{Tenant: "batch", Share: 0.3, PromptTokens: 400, GenTokens: 50},
	}
	cases = append(cases, tcase{"mix", mx, false})
	// Prefix cache: the interned-registry state (slots, refcounts,
	// residency) must rebuild identically on a recycled Runner.
	pf := base
	pf.Policy, pf.Rate, pf.PrefixTokens = Paged, 4, 64
	pf.KVCapacity = 8 * perRequest
	cases = append(cases, tcase{"prefix", pf, false})
	// Tiered KV: host-tier occupancy and pending swap time are per-run
	// state the pool must fully reset.
	tk := pf
	tk.HostKVBytes, tk.SwapGBps = 4*perRequest, 8
	cases = append(cases, tcase{"prefix+tiered", tk, false})
	// Prefixed multi-tenant mix: two tenants sharing one prefix id plus a
	// private one, through the pooled slabs.
	pm := base
	pm.Policy, pm.Rate = Paged, 2
	pm.KVCapacity = 8 * perRequest
	pm.PromptTokens, pm.GenTokens = 0, 0
	pm.Mix = []workload.TenantLoad{
		{Tenant: "chat", Share: 0.6, PromptTokens: 150, GenTokens: 100, PrefixID: "sys", PrefixTokens: 48},
		{Tenant: "code", Share: 0.3, PromptTokens: 400, GenTokens: 50, PrefixID: "sys", PrefixTokens: 48},
		{Tenant: "raw", Share: 0.1, PromptTokens: 200, GenTokens: 50},
	}
	cases = append(cases, tcase{"prefix-mix", pm, false})
	// Page sizes changing from arm to arm, then a split. Each of these
	// arms follows an instance abandoned with sequences running, so the
	// crossing-ring words it reuses hold counts it must clear.
	for _, pt := range []int{8, 32, 16} {
		p := base
		p.Policy, p.Rate, p.PageTokens = Paged, 4, pt
		p.KVCapacity = 8 * perRequest
		cases = append(cases, tcase{fmt.Sprintf("paged/pages=%d", pt), p, true})
	}
	cases = append(cases, tcase{"disagg/after-pages", dis, true})

	rn := new(Runner)
	// abandon arms rn as a paged instance with 32-token pages and leaves
	// it undrained.
	abandon := func(t *testing.T) {
		t.Helper()
		s := base
		s.Policy, s.Rate, s.PageTokens = Paged, 4, 32
		capSpec, times, shapes := capacityOf(t, s)
		env := new(Envelope)
		if err := env.Set(shapes); err != nil {
			t.Fatal(err)
		}
		in, err := rn.Instance(capSpec, env)
		if err != nil {
			t.Fatal(err)
		}
		for i := range 8 {
			if err := in.Push(shapes[i], times[i]); err != nil {
				t.Fatal(err)
			}
		}
		if in.AdvanceTo(times[7] + 1); in.Load().Running == 0 {
			t.Fatal("the abandoned instance has nothing running")
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fresh, err := Run(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			if tc.dirty {
				abandon(t)
			}
			for pass, label := range []string{"cold", "warm"} {
				pooled, err := rn.Run(tc.spec)
				if err != nil {
					t.Fatalf("pooled %s run: %v", label, err)
				}
				if !reflect.DeepEqual(fresh, pooled) {
					t.Errorf("pooled %s (pass %d) result diverges from fresh Run", label, pass)
				}
				jf, err := json.Marshal(fresh)
				if err != nil {
					t.Fatal(err)
				}
				jp, err := json.Marshal(pooled)
				if err != nil {
					t.Fatal(err)
				}
				if string(jf) != string(jp) {
					t.Errorf("pooled %s (pass %d) JSON diverges from fresh Run", label, pass)
				}
			}
		})
	}
}

// TestRunnerInstanceMatchesNewInstance pins the steppable-replica side of
// the pooling seam: a Runner re-armed as an Instance — after having run
// full simulations — must reproduce a fresh NewInstance byte-identically
// over the same push sequence.
func TestRunnerInstanceMatchesNewInstance(t *testing.T) {
	s := spec0(t)
	s.Rate, s.Requests = 2.0, 48
	capSpec, times, shapes := capacityOf(t, s)

	drive := func(t *testing.T, in *Instance) Result {
		t.Helper()
		for i, at := range times {
			in.AdvanceTo(at)
			if err := in.Push(shapes[i], at); err != nil {
				t.Fatal(err)
			}
		}
		in.Drain()
		res, err := in.Result()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	fresh, err := NewInstance(capSpec, shapes)
	if err != nil {
		t.Fatal(err)
	}
	want := drive(t, fresh)

	rn := new(Runner)
	// Dirty the Runner's slabs with a full simulation first: the re-armed
	// instance must not see any of it.
	if _, err := rn.Run(s); err != nil {
		t.Fatal(err)
	}
	env := new(Envelope)
	if err := env.Set(shapes); err != nil {
		t.Fatal(err)
	}
	pooled, err := rn.Instance(capSpec, env)
	if err != nil {
		t.Fatal(err)
	}
	got := drive(t, pooled)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("pooled instance result diverges from fresh NewInstance")
	}
	jw, _ := json.Marshal(want)
	jg, _ := json.Marshal(got)
	if string(jw) != string(jg) {
		t.Errorf("pooled instance JSON diverges from fresh NewInstance")
	}
}
