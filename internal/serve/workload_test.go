package serve

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"optimus/internal/workload"
)

// uniformMix rewrites a spec-wide-shaped spec as its explicit one-tenant
// mix — the degenerate workload the equivalence suite pins.
func uniformMix(s Spec) Spec {
	s.Mix = []workload.TenantLoad{{
		Tenant: workload.DefaultTenant, Share: 1,
		PromptTokens: s.PromptTokens, GenTokens: s.GenTokens,
	}}
	s.PromptTokens, s.GenTokens = 0, 0
	return s
}

// TestUniformMixMatchesSpecWide is the tentpole equivalence gate: an
// explicit uniform single-tenant mix must reproduce the spec-wide
// (PR-3 interface) simulation byte-identically — same percentiles,
// per-request timelines, per-tenant breakdowns, KV accounting — across a
// rate × cap × policy × seed grid covering reservation, paged preemption
// and paged NoPreempt. JSON byte comparison makes "byte-identical"
// literal.
func TestUniformMixMatchesSpecWide(t *testing.T) {
	base := spec0(t)
	for _, rate := range []float64{0.25, 1, 2.5, 5} {
		for _, batchCap := range []int{0, 3, 16} {
			for _, seed := range []int64{1, 7} {
				for _, pol := range []struct {
					name   string
					mutate func(*Spec)
				}{
					{"reserve", func(s *Spec) {}},
					{"paged", func(s *Spec) { s.Policy = Paged }},
					{"paged-no-preempt", func(s *Spec) { s.Policy = Paged; s.NoPreempt = true }},
				} {
					specWide := base
					specWide.Rate, specWide.MaxBatch, specWide.Seed = rate, batchCap, seed
					pol.mutate(&specWide)
					want, err := Run(specWide)
					if err != nil {
						t.Fatal(err)
					}
					got, err := Run(uniformMix(specWide))
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s rate=%g cap=%d seed=%d: uniform mix diverges from spec-wide result",
							pol.name, rate, batchCap, seed)
					}
					ja, _ := json.Marshal(got)
					jb, _ := json.Marshal(want)
					if string(ja) != string(jb) {
						t.Fatalf("%s rate=%g cap=%d seed=%d: JSON encodings differ",
							pol.name, rate, batchCap, seed)
					}
				}
			}
		}
	}
}

// TestUniformMixMatchesSpecWideUnderPressure extends the equivalence to a
// preempting paged run and a closed-loop run — the stateful corners where
// a stray spec-wide constant would first diverge.
func TestUniformMixMatchesSpecWideUnderPressure(t *testing.T) {
	pressured := pressureSpec(t)
	want, err := Run(pressured)
	if err != nil {
		t.Fatal(err)
	}
	if want.Preemptions == 0 {
		t.Fatal("equivalence must be exercised under preemption")
	}
	got, err := Run(uniformMix(pressured))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("uniform mix diverges from spec-wide result on a preempting run")
	}

	closed := spec0(t)
	closed.Arrival, closed.Rate, closed.Clients = ClosedLoop, 0, 6
	closed.Requests = 32
	want, err = Run(closed)
	if err != nil {
		t.Fatal(err)
	}
	got, err = Run(uniformMix(closed))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("uniform mix diverges from spec-wide result on a closed-loop run")
	}
}

// mixedSpec is a two-tenant chat+batch workload: short interactive
// requests sharing the engine with long-prompt batch jobs.
func mixedSpec(t *testing.T) Spec {
	s := spec0(t)
	s.PromptTokens, s.GenTokens = 0, 0
	s.Mix = []workload.TenantLoad{
		{Tenant: "chat", Share: 0.7, PromptTokens: 200, GenTokens: 200},
		{Tenant: "batch", Share: 0.3, PromptTokens: 1200, GenTokens: 100},
	}
	s.Rate = 2
	s.Requests = 96
	return s
}

// TestMixedWorkloadBehavior: a heterogeneous mix must complete every
// request with per-request shapes echoed, produce a per-tenant breakdown
// that partitions the aggregate, respect the share weighting, and price
// the long-prompt tenant's prefill visibly higher (TTFT).
func TestMixedWorkloadBehavior(t *testing.T) {
	s := mixedSpec(t)
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != s.Requests {
		t.Fatalf("completed %d of %d requests", res.Requests, s.Requests)
	}
	shapes := map[string]workload.TenantLoad{}
	for _, tl := range s.Mix {
		shapes[tl.Tenant] = tl
	}
	genSum := 0
	for _, m := range res.PerRequest {
		tl, ok := shapes[m.Tenant]
		if !ok {
			t.Fatalf("request %d carries unknown tenant %q", m.ID, m.Tenant)
		}
		if m.PromptTokens != tl.PromptTokens || m.GenTokens != tl.GenTokens {
			t.Fatalf("request %d shape %d+%d does not match tenant %q's %d+%d",
				m.ID, m.PromptTokens, m.GenTokens, m.Tenant, tl.PromptTokens, tl.GenTokens)
		}
		if m.Admitted < m.Arrival || m.FirstToken <= m.Admitted || m.Done < m.FirstToken {
			t.Errorf("request %d timeline out of order: %+v", m.ID, m)
		}
		genSum += m.GenTokens
	}
	if got := res.TokensPerSec * res.SimTime; math.Abs(got-float64(genSum)) > 1e-6*float64(genSum) {
		t.Errorf("TokensPerSec %g inconsistent with %d generated tokens over %g s",
			res.TokensPerSec, genSum, res.SimTime)
	}

	if len(res.PerTenant) != 2 {
		t.Fatalf("expected 2 tenant summaries, got %+v", res.PerTenant)
	}
	if res.PerTenant[0].Tenant != "batch" || res.PerTenant[1].Tenant != "chat" {
		t.Fatalf("per-tenant rows must be sorted by name: %+v", res.PerTenant)
	}
	total := 0
	for _, tm := range res.PerTenant {
		total += tm.Requests
		if tm.Requests == 0 {
			t.Fatalf("tenant %q drew no requests; loosen the seed or requests", tm.Tenant)
		}
	}
	if total != res.Requests {
		t.Errorf("per-tenant requests sum to %d, result says %d", total, res.Requests)
	}
	// 0.7/0.3 shares over 96 requests: the split is random but a 50/50 or
	// worse inversion would mean the weighting is broken.
	chat := res.PerTenant[1]
	if chat.Requests <= res.PerTenant[0].Requests {
		t.Errorf("chat (share 0.7) drew %d requests, batch (share 0.3) %d — weighting inverted",
			chat.Requests, res.PerTenant[0].Requests)
	}
	// The 1200-token prefill costs strictly more than the 200-token one,
	// so the batch tenant's median TTFT must sit above chat's.
	if res.PerTenant[0].TTFT.P50 <= chat.TTFT.P50 {
		t.Errorf("long-prompt tenant should pay more TTFT: batch p50 %g vs chat p50 %g",
			res.PerTenant[0].TTFT.P50, chat.TTFT.P50)
	}
}

// TestMixedWorkloadDeterminism: multi-tenant runs draw tenant assignments
// from their own seeded stream and must stay byte-identical across runs,
// while a different seed reshuffles the assignment.
func TestMixedWorkloadDeterminism(t *testing.T) {
	s := mixedSpec(t)
	a, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Error("repeated mixed runs at one seed must be byte-identical")
	}
	s.Seed = 99
	c, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.PerRequest, c.PerRequest) {
		t.Error("different seeds should reshuffle arrivals and tenant draws")
	}
}

// TestMixedPagedConservation runs the per-iteration KV probe invariant on
// a heterogeneous paged workload under pressure: per-request page math
// must never leak or over-commit even when page needs differ per request,
// with and without preemption.
func TestMixedPagedConservation(t *testing.T) {
	for name, noPreempt := range map[string]bool{"preempting": false, "no-preempt": true} {
		s := mixedSpec(t)
		s.Policy = Paged
		s.Rate = 6
		s.Requests = 64
		_, perRequest := s.kvBudget()
		s.KVCapacity = 5 * perRequest
		s.NoPreempt = noPreempt
		steps := 0
		s.probe = func(ps probeState) {
			steps++
			if ps.runningPages > ps.usedPages {
				t.Fatalf("%s iter %d: running set holds %d pages but only %d committed — leak",
					name, ps.iteration, ps.runningPages, ps.usedPages)
			}
			if !noPreempt && ps.usedPages != ps.runningPages {
				t.Fatalf("%s iter %d: policy committed %d pages, running set holds %d — leak",
					name, ps.iteration, ps.usedPages, ps.runningPages)
			}
			if ps.usedPages > ps.totalPages {
				t.Fatalf("%s iter %d: %d pages committed of a %d-page pool",
					name, ps.iteration, ps.usedPages, ps.totalPages)
			}
			if ps.usedBytes > ps.budget*(1+1e-12) {
				t.Fatalf("%s iter %d: %g KV bytes committed of a %g budget",
					name, ps.iteration, ps.usedBytes, ps.budget)
			}
		}
		res, err := Run(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if steps != res.Iterations {
			t.Fatalf("%s: probe saw %d iterations, result says %d", name, steps, res.Iterations)
		}
		if !noPreempt && res.Preemptions == 0 {
			t.Fatalf("%s: invariant must be exercised under preemption; tighten the KV budget", name)
		}
		if noPreempt && res.Preemptions != 0 {
			t.Fatalf("%s: NoPreempt run evicted", name)
		}
	}
}

// TestMixedReserveHeterogeneousAccounting: under reservation, requests
// reserve their own context bytes — the long-prompt tenant more, the chat
// tenant less — and the peak commitment stays within the budget.
func TestMixedReserveHeterogeneousAccounting(t *testing.T) {
	s := mixedSpec(t)
	s.Rate = 6
	_, perLargest := s.kvBudget()
	s.KVCapacity = 4 * perLargest
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakKVBytes > s.KVCapacity*(1+1e-12) {
		t.Errorf("peak KV %g exceeds budget %g", res.PeakKVBytes, s.KVCapacity)
	}
	// Four largest contexts fit; chat contexts are smaller (400 of 1300
	// tokens), so a chat-heavy batch must at some point hold more than
	// four concurrent sequences — per-request accounting, not the old
	// spec-wide perRequest multiply.
	if res.PeakBatch <= 4 {
		t.Errorf("heterogeneous reservation should admit more small requests than budget/largest (peak %d)",
			res.PeakBatch)
	}
}

// TestTraceReplay: an explicit trace must complete exactly its events,
// honor its arrival times and shapes, and be byte-identical across runs.
func TestTraceReplay(t *testing.T) {
	s := spec0(t)
	s.PromptTokens, s.GenTokens, s.Rate, s.Requests, s.Seed = 0, 0, 0, 0, 0
	s.Trace = []workload.TraceEvent{
		{Arrival: 0, Request: workload.Request{Tenant: "chat", PromptTokens: 100, GenTokens: 40}},
		{Arrival: 0.05, Request: workload.Request{Tenant: "batch", PromptTokens: 900, GenTokens: 80}},
		{Arrival: 0.05, Request: workload.Request{Tenant: "chat", PromptTokens: 120, GenTokens: 30}},
		{Arrival: 2.5, Request: workload.Request{Tenant: "chat", PromptTokens: 80, GenTokens: 20}},
	}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != len(s.Trace) {
		t.Fatalf("completed %d of %d trace events", res.Requests, len(s.Trace))
	}
	for i, m := range res.PerRequest {
		ev := s.Trace[i]
		if m.Arrival != ev.Arrival || m.Tenant != ev.Tenant ||
			m.PromptTokens != ev.PromptTokens || m.GenTokens != ev.GenTokens {
			t.Errorf("request %d does not echo its trace event: %+v vs %+v", i, m, ev)
		}
		if m.Admitted < m.Arrival {
			t.Errorf("request %d admitted before it arrived", i)
		}
	}
	again, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(res)
	jb, _ := json.Marshal(again)
	if string(ja) != string(jb) {
		t.Error("trace replay must be byte-identical across runs")
	}
}

// TestWorkloadValidation covers the mix/trace spec checks.
func TestWorkloadValidation(t *testing.T) {
	check := func(name string, wantErr bool, mutate func(*Spec)) {
		t.Helper()
		s := spec0(t)
		mutate(&s)
		err := s.Validate()
		if wantErr && err == nil {
			t.Errorf("%s should fail validation", name)
		}
		if !wantErr && err != nil {
			t.Errorf("%s should validate: %v", name, err)
		}
	}
	clearShape := func(s *Spec) { s.PromptTokens, s.GenTokens = 0, 0 }
	goodMix := []workload.TenantLoad{
		{Tenant: "a", Share: 1, PromptTokens: 100, GenTokens: 50},
		{Tenant: "b", Share: 2, PromptTokens: 300, GenTokens: 20},
	}
	goodTrace := []workload.TraceEvent{
		{Arrival: 0, Request: workload.Request{Tenant: "a", PromptTokens: 100, GenTokens: 10}},
		{Arrival: 1, Request: workload.Request{Tenant: "b", PromptTokens: 200, GenTokens: 20}},
	}
	clearArrival := func(s *Spec) { s.Rate, s.Clients, s.Requests, s.Seed = 0, 0, 0, 0 }

	check("two-tenant mix", false, func(s *Spec) { clearShape(s); s.Mix = goodMix })
	check("trace", false, func(s *Spec) { clearShape(s); clearArrival(s); s.Trace = goodTrace })
	check("mix with spec-wide shape", true, func(s *Spec) { s.Mix = goodMix })
	check("trace with spec-wide shape", true, func(s *Spec) { clearArrival(s); s.Trace = goodTrace })
	check("mix and trace together", true, func(s *Spec) { clearShape(s); clearArrival(s); s.Mix = goodMix; s.Trace = goodTrace })
	check("trace with a rate", true, func(s *Spec) { clearShape(s); s.Trace = goodTrace; s.Rate = 1; s.Requests = 0; s.Seed = 0 })
	check("trace with explicit requests", true, func(s *Spec) {
		clearShape(s)
		clearArrival(s)
		s.Trace = goodTrace
		s.Requests = 7
	})
	check("empty tenant name", true, func(s *Spec) {
		clearShape(s)
		s.Mix = []workload.TenantLoad{{Share: 1, PromptTokens: 100, GenTokens: 50}}
	})
	// Separator-bearing tenant names make FormatMix's rendering ambiguous:
	// "a:1:2:3,b" as one tenant renders identically to two tenants, so two
	// distinct workloads would share one sweep memo token and CSV column.
	check("tenant name with colons", true, func(s *Spec) {
		clearShape(s)
		s.Mix = []workload.TenantLoad{{Tenant: "a:1:2:3", Share: 1, PromptTokens: 100, GenTokens: 50}}
	})
	check("tenant name with a comma", true, func(s *Spec) {
		clearShape(s)
		s.Mix = []workload.TenantLoad{{Tenant: "a,b", Share: 1, PromptTokens: 100, GenTokens: 50}}
	})
	check("tenant name with trailing whitespace", true, func(s *Spec) {
		clearShape(s)
		s.Mix = []workload.TenantLoad{{Tenant: "a ", Share: 1, PromptTokens: 100, GenTokens: 50}}
	})
	check("trace tenant name with a comma", true, func(s *Spec) {
		clearShape(s)
		clearArrival(s)
		s.Trace = []workload.TraceEvent{{Arrival: 0, Request: workload.Request{Tenant: "a,b", PromptTokens: 100, GenTokens: 10}}}
	})
	check("trace tenant name with a colon", true, func(s *Spec) {
		clearShape(s)
		clearArrival(s)
		s.Trace = []workload.TraceEvent{{Arrival: 0, Request: workload.Request{Tenant: "a:b", PromptTokens: 100, GenTokens: 10}}}
	})
	check("trace tenant name with leading whitespace", true, func(s *Spec) {
		clearShape(s)
		clearArrival(s)
		s.Trace = []workload.TraceEvent{{Arrival: 0, Request: workload.Request{Tenant: " a", PromptTokens: 100, GenTokens: 10}}}
	})
	check("duplicate tenant", true, func(s *Spec) {
		clearShape(s)
		s.Mix = []workload.TenantLoad{
			{Tenant: "a", Share: 1, PromptTokens: 100, GenTokens: 50},
			{Tenant: "a", Share: 1, PromptTokens: 200, GenTokens: 50},
		}
	})
	check("zero share", true, func(s *Spec) {
		clearShape(s)
		s.Mix = []workload.TenantLoad{{Tenant: "a", Share: 0, PromptTokens: 100, GenTokens: 50}}
	})
	check("NaN share", true, func(s *Spec) {
		clearShape(s)
		s.Mix = []workload.TenantLoad{{Tenant: "a", Share: math.NaN(), PromptTokens: 100, GenTokens: 50}}
	})
	check("zero mix gen", true, func(s *Spec) {
		clearShape(s)
		s.Mix = []workload.TenantLoad{{Tenant: "a", Share: 1, PromptTokens: 100}}
	})
	check("zero mix prompt", true, func(s *Spec) {
		clearShape(s)
		s.Mix = []workload.TenantLoad{{Tenant: "a", Share: 1, GenTokens: 100}}
	})
	check("unsorted trace", true, func(s *Spec) {
		clearShape(s)
		clearArrival(s)
		s.Trace = []workload.TraceEvent{
			{Arrival: 2, Request: workload.Request{Tenant: "a", PromptTokens: 100, GenTokens: 10}},
			{Arrival: 1, Request: workload.Request{Tenant: "a", PromptTokens: 100, GenTokens: 10}},
		}
	})
	check("negative trace arrival", true, func(s *Spec) {
		clearShape(s)
		clearArrival(s)
		s.Trace = []workload.TraceEvent{{Arrival: -1, Request: workload.Request{Tenant: "a", PromptTokens: 100, GenTokens: 10}}}
	})
	check("trace event without tenant", true, func(s *Spec) {
		clearShape(s)
		clearArrival(s)
		s.Trace = []workload.TraceEvent{{Arrival: 0, Request: workload.Request{PromptTokens: 100, GenTokens: 10}}}
	})
	// The largest mix request must fit, not just the average one.
	check("mix with an unfittable tenant", true, func(s *Spec) {
		clearShape(s)
		s.Mix = goodMix
		_, per := Spec{
			Model: s.Model, System: s.System, TP: s.TP, Precision: s.Precision,
			PromptTokens: 300, GenTokens: 20,
		}.kvBudget()
		s.KVCapacity = per / 2
	})
}

// TestParseFormatMix round-trips the CLI mix syntax and rejects garbage.
func TestParseFormatMix(t *testing.T) {
	mix, err := workload.ParseMix("chat:0.7:200:200, batch:0.3:2000:100")
	if err != nil {
		t.Fatal(err)
	}
	want := []workload.TenantLoad{
		{Tenant: "chat", Share: 0.7, PromptTokens: 200, GenTokens: 200},
		{Tenant: "batch", Share: 0.3, PromptTokens: 2000, GenTokens: 100},
	}
	if !reflect.DeepEqual(mix, want) {
		t.Fatalf("ParseMix = %+v, want %+v", mix, want)
	}
	formatted := workload.FormatMix(mix)
	back, err := workload.ParseMix(formatted)
	if err != nil || !reflect.DeepEqual(back, mix) {
		t.Fatalf("FormatMix %q does not round-trip: %+v, %v", formatted, back, err)
	}
	for _, bad := range []string{
		"", "chat", "chat:1:200", "chat:1:200:200:9:sys:extra", "chat:x:200:200",
		"chat:1:x:200", "chat:1:200:x", "chat:0:200:200", ":1:200:200",
		"chat:1:200:200,chat:1:100:100", "chat:1:0:200", "chat:1:200:0",
		"chat :1:200:200",      // internal trailing whitespace cannot round-trip
		"chat:1:200:200:x",     // non-numeric prefix length
		"chat:1:200:200:200",   // prefix swallows the whole prompt
		"chat:1:200:200:-1",    // negative prefix length
		"chat:1:200:200:9:s,m", // separator-bearing prefix id
	} {
		if _, err := workload.ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) should fail", bad)
		}
	}
	// The prefix forms round-trip: 5-field (id defaults to the tenant),
	// 6-field (explicit shared id), and the degenerate id-with-zero-tokens
	// case FormatMix must keep explicit to survive reparsing.
	for _, src := range []string{
		"chat:1:200:200:9",
		"chat:0.5:200:200:9:sys,batch:0.5:2000:100:9:sys",
	} {
		mix, err := workload.ParseMix(src)
		if err != nil {
			t.Fatalf("ParseMix(%q): %v", src, err)
		}
		back, err := workload.ParseMix(workload.FormatMix(mix))
		if err != nil || !reflect.DeepEqual(back, mix) {
			t.Fatalf("prefix mix %q does not round-trip via %q: %+v, %v", src, workload.FormatMix(mix), back, err)
		}
	}
	mix5, _ := workload.ParseMix("chat:1:200:200:9")
	if mix5[0].PrefixID != "chat" || mix5[0].PrefixTokens != 9 {
		t.Fatalf("5-field form must default PrefixID to the tenant: %+v", mix5[0])
	}
	zeroID := []workload.TenantLoad{{Tenant: "chat", Share: 1, PromptTokens: 200, GenTokens: 200, PrefixID: "sys"}}
	backZero, err := workload.ParseMix(workload.FormatMix(zeroID))
	if err != nil || !reflect.DeepEqual(backZero, zeroID) {
		t.Fatalf("zero-token explicit-id mix does not round-trip via %q: %+v, %v", workload.FormatMix(zeroID), backZero, err)
	}
}

// TestTenantNameCollisionRejected is the regression gate on the workload
// token: a tenant name carrying the mix separators used to render — via
// FormatMix's unescaped joins — identically to a different multi-tenant
// workload, so two distinct workloads shared one sweep CSV mix column and
// memo token. Such names are now rejected at validation, in mixes and
// traces alike.
func TestTenantNameCollisionRejected(t *testing.T) {
	// Pre-fix, these two distinct workloads rendered to the same token.
	impostor := []workload.TenantLoad{
		{Tenant: "a:1:2:3,b", Share: 1, PromptTokens: 2, GenTokens: 3},
	}
	honest := []workload.TenantLoad{
		{Tenant: "a", Share: 1, PromptTokens: 2, GenTokens: 3},
		{Tenant: "b", Share: 1, PromptTokens: 2, GenTokens: 3},
	}
	if workload.FormatMix(impostor) != workload.FormatMix(honest) {
		t.Fatalf("collision vector lost: %q vs %q — update the test", workload.FormatMix(impostor), workload.FormatMix(honest))
	}
	if err := workload.ValidateMix(impostor); err == nil {
		t.Error("separator-bearing tenant name must be rejected")
	}
	if err := workload.ValidateMix(honest); err != nil {
		t.Errorf("separator-free mix must validate: %v", err)
	}
	// The trace CSV reader can quote a comma-bearing tenant per RFC 4180,
	// so the trace validator must hold the same line.
	if _, err := workload.ParseTrace(strings.NewReader("0,\"a,b\",100,40\n")); err == nil {
		t.Error("quoted comma-bearing trace tenant must be rejected")
	}
}

// TestParseTrace covers the CSV trace reader: header detection, empty
// tenant defaulting, and malformed rows.
func TestParseTrace(t *testing.T) {
	in := "arrival,tenant,prompt,gen\n0.0,chat,100,40\n0.5,,900,80\n1.25,chat,120,30\n"
	trace, err := workload.ParseTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []workload.TraceEvent{
		{Arrival: 0, Request: workload.Request{Tenant: "chat", PromptTokens: 100, GenTokens: 40}},
		{Arrival: 0.5, Request: workload.Request{Tenant: workload.DefaultTenant, PromptTokens: 900, GenTokens: 80}},
		{Arrival: 1.25, Request: workload.Request{Tenant: "chat", PromptTokens: 120, GenTokens: 30}},
	}
	if !reflect.DeepEqual(trace, want) {
		t.Fatalf("ParseTrace = %+v, want %+v", trace, want)
	}
	// Headerless input parses identically.
	headerless, err := workload.ParseTrace(strings.NewReader("0.0,chat,100,40\n0.5,,900,80\n1.25,chat,120,30\n"))
	if err != nil || !reflect.DeepEqual(headerless, want) {
		t.Fatalf("headerless trace = %+v, %v", headerless, err)
	}
	// A first data row with stray whitespace must parse as data, never be
	// silently swallowed as a misdetected header (regression: the arrival
	// field was the only one not trimmed).
	padded, err := workload.ParseTrace(strings.NewReader("0.0 ,chat,100,40\n0.5,,900,80\n1.25,chat,120,30\n"))
	if err != nil || !reflect.DeepEqual(padded, want) {
		t.Fatalf("whitespace-padded first row = %+v, %v; want %+v", padded, err, want)
	}
	// A first data row whose arrival alone is malformed is an error, not a
	// header — its prompt/gen columns are numeric, a real header's are not.
	if _, err := workload.ParseTrace(strings.NewReader("abc,chat,100,40\n0.5,chat,900,80\n")); err == nil {
		t.Error("malformed first-row arrival should fail loudly, not vanish as a header")
	}
	for _, bad := range []string{
		"",                                   // empty
		"0.0,chat,100\n",                     // missing field
		"0.0,chat,100,40,5\n",                // extra field
		"0.0,chat,x,40\n",                    // bad prompt
		"0.0,chat,100,x\n",                   // bad gen
		"1.0,chat,100,40\n0.5,chat,100,40\n", // unsorted
		"arrival,tenant,prompt\n",            // short header
		"0.0,chat,100,40,sys,x\n",            // bad prefix length
		"0.0,chat,100,40,sys,100\n",          // prefix swallows the prompt
		"0.0,chat,100,40,sys,-3\n",           // negative prefix
		"0.0,chat,100,40,sys,20\n0.5,chat,100,40,sys,30\n", // one id, two lengths
		"0.0,chat,100,40,sys,20\n0.5,chat,100,40\n",        // column count drifts mid-trace
	} {
		if _, err := workload.ParseTrace(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseTrace(%q) should fail", bad)
		}
	}
}

// TestParseTraceBOMAndCRLF is the satellite bugfix regression: a trace
// exported from a Windows-side spreadsheet opens with a UTF-8 BOM and ends
// its rows with CRLF. The BOM used to glue itself onto the "arrival"
// header cell, failing the header detection and the first row's arrival
// parse; both byte sequences must now parse identically to the clean file.
func TestParseTraceBOMAndCRLF(t *testing.T) {
	want, err := workload.ParseTrace(strings.NewReader("arrival,tenant,prompt,gen\n0.0,chat,100,40\n0.5,,900,80\n"))
	if err != nil {
		t.Fatal(err)
	}
	for name, in := range map[string]string{
		"bom":            "\xef\xbb\xbfarrival,tenant,prompt,gen\n0.0,chat,100,40\n0.5,,900,80\n",
		"crlf":           "arrival,tenant,prompt,gen\r\n0.0,chat,100,40\r\n0.5,,900,80\r\n",
		"bom+crlf":       "\xef\xbb\xbfarrival,tenant,prompt,gen\r\n0.0,chat,100,40\r\n0.5,,900,80\r\n",
		"bom+headerless": "\xef\xbb\xbf0.0,chat,100,40\n0.5,,900,80\n",
	} {
		got, err := workload.ParseTrace(strings.NewReader(in))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: parsed %+v, want %+v", name, got, want)
		}
	}
	// A BOM'd v2 trace exercises both new paths at once.
	v2, err := workload.ParseTrace(strings.NewReader(
		"\xef\xbb\xbfarrival,tenant,prompt,gen,prefix_id,prefix_tokens\r\n0,chat,100,40,sys,30\r\n1,code,200,50,sys,30\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(v2) != 2 || v2[0].PrefixID != "sys" || v2[0].PrefixTokens != 30 || v2[1].PrefixID != "sys" {
		t.Fatalf("BOM'd v2 trace parsed as %+v", v2)
	}
}

// TestParseFormatTrace pins the trace round-trip in both schemas: a
// prefix-free trace renders in the four-column v1 form (byte-compatible
// with pre-prefix consumers), a prefixed one in the six-column v2 form,
// and ParseTrace(FormatTrace(t)) == t for both — including a v2 trace
// whose events only partially carry prefixes, and one defaulting the
// prefix id to the tenant.
func TestParseFormatTrace(t *testing.T) {
	for name, trace := range map[string][]workload.TraceEvent{
		"v1": {
			{Arrival: 0, Request: workload.Request{Tenant: "chat", PromptTokens: 100, GenTokens: 40}},
			{Arrival: 0.625, Request: workload.Request{Tenant: workload.DefaultTenant, PromptTokens: 900, GenTokens: 80}},
		},
		"v2": {
			{Arrival: 0, Request: workload.Request{Tenant: "chat", PromptTokens: 100, GenTokens: 40, PrefixID: "sys", PrefixTokens: 30}},
			{Arrival: 0.5, Request: workload.Request{Tenant: "code", PromptTokens: 200, GenTokens: 50, PrefixID: "sys", PrefixTokens: 30}},
		},
		"v2-partial": {
			{Arrival: 0, Request: workload.Request{Tenant: "chat", PromptTokens: 100, GenTokens: 40, PrefixID: "chat", PrefixTokens: 30}},
			{Arrival: 0.5, Request: workload.Request{Tenant: "raw", PromptTokens: 200, GenTokens: 50}},
		},
	} {
		var b strings.Builder
		if err := workload.FormatTrace(&b, trace); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wantCols := 4
		if name != "v1" {
			wantCols = 6
		}
		header := b.String()[:strings.Index(b.String(), "\n")]
		if got := strings.Count(header, ",") + 1; got != wantCols {
			t.Errorf("%s: rendered a %d-column header, want %d (%q)", name, got, wantCols, header)
		}
		back, err := workload.ParseTrace(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("%s: round-trip parse of %q: %v", name, b.String(), err)
		}
		if !reflect.DeepEqual(back, trace) {
			t.Errorf("%s: rendering %q is ambiguous: %+v parsed back as %+v", name, b.String(), trace, back)
		}
	}
}

// TestSingleTenantPerTenantBreakdown: the degenerate workload reports one
// DefaultTenant summary that mirrors the aggregate percentiles.
func TestSingleTenantPerTenantBreakdown(t *testing.T) {
	res, err := Run(spec0(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerTenant) != 1 || res.PerTenant[0].Tenant != workload.DefaultTenant {
		t.Fatalf("degenerate run should report one %q tenant, got %+v", workload.DefaultTenant, res.PerTenant)
	}
	tm := res.PerTenant[0]
	if tm.Requests != res.Requests || tm.TTFT != res.TTFT || tm.TPOT != res.TPOT ||
		tm.E2E != res.E2E || tm.Queue != res.Queue {
		t.Error("single-tenant breakdown must mirror the aggregate percentiles")
	}
}

// TestMixFeasibilityUsesLargestRequest: Feasible must gate on the mix's
// largest context — a budget that fits the small tenant but not the large
// one is infeasible, matching Run's verdict.
func TestMixFeasibilityUsesLargestRequest(t *testing.T) {
	s := mixedSpec(t)
	if !Feasible(s) {
		t.Fatal("baseline mixed spec must be feasible")
	}
	_, perLargest := s.kvBudget()
	s.KVCapacity = perLargest * 0.75
	if Feasible(s) {
		t.Error("budget below the largest request's context must be infeasible")
	}
	if _, err := Run(s); err == nil {
		t.Error("Run must reject what Feasible rejects")
	}
}
