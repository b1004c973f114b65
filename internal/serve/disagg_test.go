package serve

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"optimus/internal/arch"
	"optimus/internal/model"
	"optimus/internal/tech"
)

// stripDisaggIdentity zeroes the fields that name the disaggregated
// policy rather than describe the simulated behavior, so a degenerate
// disaggregated run can be compared byte for byte against a Paged run.
// PageTokens, KVPagesTotal and PeakKVPages are deliberately kept: the
// co-located split shares the paged policy's block geometry, so they must
// match too — as must the preemption counters.
func stripDisaggIdentity(r Result) Result {
	r.Policy = 0
	r.PrefillDevices, r.DecodeDevices = 0, 0
	r.PrefillPagesTotal, r.DecodePagesTotal = 0, 0
	r.PeakPrefillPages, r.PeakDecodePages = 0, 0
	r.KVTransfers, r.TransferTimeTotal = 0, 0
	stripped := append([]RequestMetrics(nil), r.PerRequest...)
	for i := range stripped {
		stripped[i].KVTransfers = 0
		stripped[i].KVTransferTime = 0
	}
	r.PerRequest = stripped
	return r
}

// stripPagedName zeroes only the policy enum, the single field a Paged
// result carries that a stripped disaggregated one cannot share.
func stripPagedName(r Result) Result {
	r.Policy = 0
	return r
}

// disaggDegenerate rewrites a Paged spec as its co-located disaggregated
// equivalent: both pools spanning every device and an infinite-bandwidth
// interconnect, so every per-pool constraint coincides with the shared
// one and every KV transfer prices to exactly zero.
func disaggDegenerate(s Spec) Spec {
	s.Policy = Disaggregated
	s.PrefillDevices, s.DecodeDevices = s.TP, s.TP
	s.TransferGBps = math.Inf(1)
	return s
}

// TestDisaggDegenerateMatchesPaged is the tentpole equivalence gate: the
// disaggregated policy with a co-located pool split (both pools spanning
// every device) and an infinite transfer bandwidth is block-for-block the
// paged policy, and must reproduce it byte-identically — same seeds, all
// percentiles, per-request timelines, page peaks, preemption counters —
// across a grid of arrival rates, batch caps and seeds. JSON byte
// comparison makes "byte-identical" literal.
func TestDisaggDegenerateMatchesPaged(t *testing.T) {
	base := spec0(t)
	base.Policy = Paged
	for _, rate := range []float64{0.25, 1, 2.5, 5} {
		for _, batchCap := range []int{0, 3, 16} {
			for _, seed := range []int64{1, 7} {
				paged := base
				paged.Rate, paged.MaxBatch, paged.Seed = rate, batchCap, seed
				want, err := Run(paged)
				if err != nil {
					t.Fatal(err)
				}
				got, err := Run(disaggDegenerate(paged))
				if err != nil {
					t.Fatal(err)
				}
				if got.TransferTimeTotal != 0 {
					t.Fatalf("rate=%g cap=%d: infinite bandwidth must price transfers at exactly zero, got %g",
						rate, batchCap, got.TransferTimeTotal)
				}
				if got.KVTransfers == 0 {
					t.Fatalf("rate=%g cap=%d: disaggregated run migrated no sequences", rate, batchCap)
				}
				if got.PrefillPagesTotal != want.KVPagesTotal || got.DecodePagesTotal != want.KVPagesTotal {
					t.Fatalf("rate=%g cap=%d: co-located pools must each span the whole budget: %d/%d of %d",
						rate, batchCap, got.PrefillPagesTotal, got.DecodePagesTotal, want.KVPagesTotal)
				}
				stripped, ref := stripDisaggIdentity(got), stripPagedName(want)
				if !reflect.DeepEqual(stripped, ref) {
					t.Fatalf("rate=%g cap=%d seed=%d: degenerate disaggregated result diverges from paged",
						rate, batchCap, seed)
				}
				ja, _ := json.Marshal(stripped)
				jb, _ := json.Marshal(ref)
				if string(ja) != string(jb) {
					t.Fatalf("rate=%g cap=%d seed=%d: JSON encodings differ", rate, batchCap, seed)
				}
			}
		}
	}
}

// TestDisaggDegenerateMatchesPagedUnderPressure extends the equivalence
// to a preempting run and a heterogeneous multi-tenant run — the stateful
// corners where the two-pool accounting would first diverge from the
// shared-counter one if the co-located constraints were not exactly
// equivalent.
func TestDisaggDegenerateMatchesPagedUnderPressure(t *testing.T) {
	pressured := pressureSpec(t)
	want, err := Run(pressured)
	if err != nil {
		t.Fatal(err)
	}
	if want.Preemptions == 0 {
		t.Fatal("equivalence must be exercised under preemption")
	}
	got, err := Run(disaggDegenerate(pressured))
	if err != nil {
		t.Fatal(err)
	}
	if got.Preemptions != want.Preemptions {
		t.Fatalf("degenerate disaggregated run preempted %d times, paged %d", got.Preemptions, want.Preemptions)
	}
	if !reflect.DeepEqual(stripDisaggIdentity(got), stripPagedName(want)) {
		t.Error("degenerate disaggregated result diverges from paged on a preempting run")
	}

	mixed := mixedSpec(t)
	mixed.Policy = Paged
	want, err = Run(mixed)
	if err != nil {
		t.Fatal(err)
	}
	got, err = Run(disaggDegenerate(mixed))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripDisaggIdentity(got), stripPagedName(want)) {
		t.Error("degenerate disaggregated result diverges from paged on a heterogeneous mix")
	}
}

// splitSpec is a genuinely split deployment: two devices, one backing
// each pool, under saturating load and a KV budget tight enough that
// decode growth must preempt.
func splitSpec(t *testing.T) Spec {
	t.Helper()
	sys, err := arch.SystemOf(arch.A100(), 2, 8, tech.NVLink3, tech.IBNDR)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := model.ByName("Llama2-13B")
	if err != nil {
		t.Fatal(err)
	}
	s := Spec{
		Model: cfg, System: sys, TP: 2, Precision: tech.FP16,
		PromptTokens: 200, GenTokens: 200,
		Arrival: Poisson, Rate: 5, Requests: 48, Seed: 1,
		Policy:         Disaggregated,
		PrefillDevices: 1, DecodeDevices: 1,
		TransferGBps: 50,
	}
	_, perRequest := s.kvBudget()
	// Each pool gets half of this: three full contexts' worth.
	s.KVCapacity = 6 * perRequest
	return s
}

// TestDisaggPerPoolConservation is the per-pool KV-conservation probe
// invariant: at every iteration the pages each pool has committed must
// exactly equal the pages the running set holds in that pool plus the
// resident prefix pages it caches, stay within that pool's capacity, and
// the combined commitment within the shared budget — including iterations
// that preempt and migrate. The paged rows cover the one-pool layout, the
// decode pool alone, which admission fills directly: nothing is ever held
// in a prefill pool and nothing migrates.
func TestDisaggPerPoolConservation(t *testing.T) {
	tiered := func(s *Spec) {
		*s = pressureSpec(t)
		_, perRequest := s.kvBudget()
		s.HostKVBytes, s.SwapGBps = 3*perRequest, 8
	}
	for name, mutate := range map[string]func(*Spec){
		"split":        func(s *Spec) {},
		"co-located":   func(s *Spec) { s.PrefillDevices, s.DecodeDevices = 2, 2 },
		"asym-closed":  func(s *Spec) { s.Arrival = ClosedLoop; s.Rate = 0; s.Clients = 10 },
		"free-link":    func(s *Spec) { s.TransferGBps = math.Inf(1) },
		"uneven-pools": func(s *Spec) { s.PrefillDevices, s.DecodeDevices = 1, 2 },
		"paged":        func(s *Spec) { *s = pressureSpec(t) },
		"paged-prefix": func(s *Spec) { *s = pressureSpec(t); s.PrefixTokens = 64 },
		"paged-tiered": tiered,
	} {
		s := splitSpec(t)
		mutate(&s)
		steps := 0
		s.probe = func(ps probeState) {
			steps++
			if ps.prefillPages != ps.runningPrefillPages {
				t.Fatalf("%s iter %d: prefill pool committed %d pages, running set holds %d — leak",
					name, ps.iteration, ps.prefillPages, ps.runningPrefillPages)
			}
			if ps.decodePages != ps.runningDecodePages+ps.prefixPages {
				t.Fatalf("%s iter %d: decode pool committed %d pages, running set holds %d + %d resident prefix — leak",
					name, ps.iteration, ps.decodePages, ps.runningDecodePages, ps.prefixPages)
			}
			if ps.prefillPages+ps.decodePages != ps.usedPages {
				t.Fatalf("%s iter %d: pools hold %d+%d pages but the policy reports %d",
					name, ps.iteration, ps.prefillPages, ps.decodePages, ps.usedPages)
			}
			if ps.prefillPages > ps.prefillTotal {
				t.Fatalf("%s iter %d: prefill pool %d of %d pages", name, ps.iteration, ps.prefillPages, ps.prefillTotal)
			}
			if ps.decodePages > ps.decodeTotal {
				t.Fatalf("%s iter %d: decode pool %d of %d pages", name, ps.iteration, ps.decodePages, ps.decodeTotal)
			}
			if ps.usedPages > ps.totalPages {
				t.Fatalf("%s iter %d: %d pages committed of a %d-page shared budget",
					name, ps.iteration, ps.usedPages, ps.totalPages)
			}
			if ps.usedBytes > ps.budget*(1+1e-12) {
				t.Fatalf("%s iter %d: %g KV bytes committed of a %g budget",
					name, ps.iteration, ps.usedBytes, ps.budget)
			}
			if ps.decidersInPrefill != 0 {
				t.Fatalf("%s iter %d: %d sequences about to decode while still prefill-resident — beginStep skipped their migration",
					name, ps.iteration, ps.decidersInPrefill)
			}
		}
		res, err := Run(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if steps != res.Iterations {
			t.Fatalf("%s: probe saw %d iterations, result says %d", name, steps, res.Iterations)
		}
		if res.Requests != s.Requests {
			t.Fatalf("%s: completed %d of %d requests", name, res.Requests, s.Requests)
		}
		if (name == "split" || s.Policy == Paged) && res.Preemptions == 0 {
			t.Fatalf("%s: invariant must be exercised under preemption; tighten the KV budget", name)
		}
		if s.Policy == Paged && res.KVTransfers != 0 {
			t.Fatalf("%s: the one-pool layout migrated %d sequences", name, res.KVTransfers)
		}
		if res.PeakPrefillPages > res.PrefillPagesTotal || res.PeakDecodePages > res.DecodePagesTotal {
			t.Fatalf("%s: per-pool peaks exceed pool capacity: %+v", name, res)
		}
	}
}

// TestDisaggSplitEvictsDecodeResidents pins the pool-aware LIFO rule: in
// a true partition the pools are separate memories, so decode pressure
// may only evict decode residents — preempting a still-prefilling
// sequence frees nothing the binding pool needs and would just thrash
// recomputes. Every eviction therefore follows that admission's
// migration, so a completed request's KV transfers bound its preemptions:
// Preemptions <= KVTransfers <= Preemptions+1 (the +1 slack is a victim
// resumed at produced == gen-1, whose recompute prefill finishes the
// request before it ever re-migrates). The pre-fix cross-pool cascade
// evicted prefill-held victims and broke the lower bound.
func TestDisaggSplitEvictsDecodeResidents(t *testing.T) {
	res, err := Run(splitSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Preemptions == 0 {
		t.Fatal("the bound must be exercised under preemption; tighten the KV budget")
	}
	for _, m := range res.PerRequest {
		if m.KVTransfers < m.Preemptions || m.KVTransfers > m.Preemptions+1 {
			t.Errorf("request %d: %d transfers for %d preemptions — a prefill-held sequence was evicted by decode pressure",
				m.ID, m.KVTransfers, m.Preemptions)
		}
	}
	if res.KVTransfers < res.Preemptions || res.KVTransfers > res.Preemptions+res.Requests {
		t.Errorf("aggregate bound broken: %d transfers, %d preemptions, %d requests",
			res.KVTransfers, res.Preemptions, res.Requests)
	}
}

// TestDisaggTransferCostsTime: a finite interconnect must charge real
// simulated time for the migrations — slower links slow TPOT and E2E —
// and the per-request transfer accounting must reconcile with the totals.
func TestDisaggTransferCostsTime(t *testing.T) {
	s := splitSpec(t)
	s.KVCapacity = 0 // ample budget: isolate the transfer cost
	s.Rate = 2

	free := s
	free.TransferGBps = math.Inf(1)
	fast, err := Run(free)
	if err != nil {
		t.Fatal(err)
	}
	if fast.TransferTimeTotal != 0 {
		t.Fatalf("infinite bandwidth charged %g s of transfer", fast.TransferTimeTotal)
	}

	s.TransferGBps = 1 // a deliberately slow 1 GB/s link
	slow, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if slow.TransferTimeTotal <= 0 {
		t.Fatal("finite bandwidth must charge transfer time")
	}
	if slow.KVTransfers < s.Requests {
		t.Errorf("every multi-token request migrates at least once: %d transfers for %d requests",
			slow.KVTransfers, s.Requests)
	}
	if slow.E2E.P95 <= fast.E2E.P95 || slow.TPOT.P95 <= fast.TPOT.P95 {
		t.Errorf("slow KV transfers must show up in the SLOs: e2e %g vs %g, tpot %g vs %g",
			slow.E2E.P95, fast.E2E.P95, slow.TPOT.P95, fast.TPOT.P95)
	}
	transfers, transferTime := 0, 0.0
	for _, m := range slow.PerRequest {
		transfers += m.KVTransfers
		transferTime += m.KVTransferTime
		if m.KVTransfers > 0 && m.KVTransferTime <= 0 {
			t.Errorf("request %d migrated %d times for free over a 1 GB/s link", m.ID, m.KVTransfers)
		}
	}
	if transfers != slow.KVTransfers {
		t.Errorf("per-request transfers sum to %d, result says %d", transfers, slow.KVTransfers)
	}
	if rel := math.Abs(transferTime-slow.TransferTimeTotal) / slow.TransferTimeTotal; rel > 1e-9 {
		t.Errorf("per-request transfer time sums to %g, result says %g", transferTime, slow.TransferTimeTotal)
	}
	// The hand-off is priced after the first token: the opening request's
	// prefill runs before any migration exists to stall it, so its TTFT is
	// bit-identical across link speeds (later arrivals queue behind
	// transfer-bearing iterations, so only the first is provably clean).
	if slow.PerRequest[0].TTFT != fast.PerRequest[0].TTFT {
		t.Errorf("the first token precedes the migration: request 0 ttft %g vs %g",
			slow.PerRequest[0].TTFT, fast.PerRequest[0].TTFT)
	}
}

// TestDisaggDeterminism: disaggregated simulations — preempting,
// migrating ones included — must be byte-identical across repeated runs.
func TestDisaggDeterminism(t *testing.T) {
	s := splitSpec(t)
	a, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if a.Preemptions == 0 {
		t.Fatal("determinism must be pinned on a preempting run")
	}
	b, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Error("disaggregated results differ across repeated runs")
	}
}

// TestDisaggValidation covers the disaggregated-specific spec checks.
func TestDisaggValidation(t *testing.T) {
	check := func(name string, wantErr bool, mutate func(*Spec)) {
		t.Helper()
		s := spec0(t)
		s.Policy = Disaggregated
		mutate(&s)
		err := s.Validate()
		if wantErr && err == nil {
			t.Errorf("%s should fail validation", name)
		}
		if !wantErr && err != nil {
			t.Errorf("%s should validate: %v", name, err)
		}
	}
	check("disagg defaults", false, func(s *Spec) {})
	check("explicit co-located split", false, func(s *Spec) { s.PrefillDevices, s.DecodeDevices = 1, 1 })
	check("custom page size", false, func(s *Spec) { s.PageTokens = 32 })
	check("free transfer", false, func(s *Spec) { s.TransferGBps = math.Inf(1) })
	check("negative prefill pool", true, func(s *Spec) { s.PrefillDevices = -1 })
	check("negative decode pool", true, func(s *Spec) { s.DecodeDevices = -1 })
	check("prefill pool beyond TP", true, func(s *Spec) { s.PrefillDevices = 2 })
	check("decode pool beyond TP", true, func(s *Spec) { s.DecodeDevices = 2 })
	check("negative transfer bandwidth", true, func(s *Spec) { s.TransferGBps = -1 })
	check("NaN transfer bandwidth", true, func(s *Spec) { s.TransferGBps = math.NaN() })
	check("no-preempt under disagg", true, func(s *Spec) { s.NoPreempt = true })
	check("negative page size", true, func(s *Spec) { s.PageTokens = -1 })
	check("pool knobs under reserve", true, func(s *Spec) { s.Policy = ReserveFull; s.PrefillDevices = 1 })
	check("transfer bandwidth under paged", true, func(s *Spec) { s.Policy = Paged; s.TransferGBps = 50 })
	check("NaN transfer bandwidth under reserve", true, func(s *Spec) { s.Policy = ReserveFull; s.TransferGBps = math.NaN() })
}

// TestDisaggFeasibleMatchesRun extends the sweep-pruning contract: the
// largest request's full context must fit each pool, not just the shared
// budget — a half split needs twice the single-context headroom.
func TestDisaggFeasibleMatchesRun(t *testing.T) {
	s := splitSpec(t)
	if !Feasible(s) {
		t.Error("baseline split spec must be feasible")
	}
	if _, err := Run(s); err != nil {
		t.Errorf("feasible split spec must run: %v", err)
	}
	// 1.5 contexts of shared budget: the paged policy would accept it, but
	// each half pool holds only 0.75 of one — the decode pool could never
	// grow the lone request to completion.
	_, per := s.kvBudget()
	s.KVCapacity = 1.5 * per
	if Feasible(s) {
		t.Error("half pools below one full context must be infeasible")
	}
	if _, err := Run(s); err == nil {
		t.Error("infeasible split spec must be rejected by Run")
	}
}

// TestDisaggPolicyNames covers the enum rendering, parsing and JSON.
func TestDisaggPolicyNames(t *testing.T) {
	if Disaggregated.String() != "disagg" {
		t.Errorf("Disaggregated renders as %q", Disaggregated.String())
	}
	for _, token := range []string{"disagg", "disaggregated"} {
		got, err := ParsePolicy(token)
		if err != nil || got != Disaggregated {
			t.Errorf("ParsePolicy(%q) = %v, %v", token, got, err)
		}
	}
	data, err := json.Marshal(Disaggregated)
	if err != nil || string(data) != `"disagg"` {
		t.Errorf("Disaggregated marshals to %s, %v", data, err)
	}
	var back Policy
	if err := json.Unmarshal(data, &back); err != nil || back != Disaggregated {
		t.Errorf("Disaggregated does not round-trip JSON: %v, %v", back, err)
	}
}

// TestCanonicalPoolSplit pins the pool-split and link halves of
// Spec.Canonical, the one rule the simulator and the sweep's memo-key
// canonicalization share.
func TestCanonicalPoolSplit(t *testing.T) {
	for _, c := range []struct {
		pol                 Policy
		prefill, decode, tp int
		wantPre, wantDec    int
	}{
		{ReserveFull, 2, 2, 4, 0, 0},
		{Paged, 2, 2, 4, 0, 0},
		{Disaggregated, 0, 0, 4, 4, 4}, // unset → co-located
		{Disaggregated, 2, 0, 4, 2, 4},
		{Disaggregated, 1, 3, 4, 1, 3},
		{Disaggregated, 1, 1, 0, 0, 0}, // no devices → no geometry
	} {
		got := Spec{Policy: c.pol, PrefillDevices: c.prefill, DecodeDevices: c.decode, TP: c.tp}.Canonical()
		if got.PrefillDevices != c.wantPre || got.DecodeDevices != c.wantDec {
			t.Errorf("Canonical split(%v, %d, %d, %d) = %d+%d, want %d+%d",
				c.pol, c.prefill, c.decode, c.tp, got.PrefillDevices, got.DecodeDevices, c.wantPre, c.wantDec)
		}
	}
	transfer := func(pol Policy, gbps float64) float64 {
		return Spec{Policy: pol, TransferGBps: gbps}.Canonical().TransferGBps
	}
	if got := transfer(Paged, 50); got != 0 {
		t.Errorf("paged transfer bandwidth canonicalizes to %g, want 0", got)
	}
	if got := transfer(Disaggregated, 0); got != DefaultTransferGBps {
		t.Errorf("unset disagg bandwidth canonicalizes to %g, want %g", got, DefaultTransferGBps)
	}
	if got := transfer(Disaggregated, math.Inf(1)); !math.IsInf(got, 1) {
		t.Errorf("infinite bandwidth must stay infinite, got %g", got)
	}
	if got := (Spec{Policy: Disaggregated, PromptTokens: 400}).Canonical().PageTokens; got != DefaultPageTokens {
		t.Errorf("disagg page size canonicalizes to %d, want the paged default %d", got, DefaultPageTokens)
	}
}
