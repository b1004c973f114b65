package serve

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"optimus/internal/workload"
)

// prefixedMix tags every tenant of a mix with a zero-length shared prefix
// under an explicit id: the degenerate form that must change nothing.
func prefixedMix(mix []workload.TenantLoad) []workload.TenantLoad {
	out := make([]workload.TenantLoad, len(mix))
	for i, tl := range mix {
		tl.PrefixID = "degenerate-" + tl.Tenant
		tl.PrefixTokens = 0
		out[i] = tl
	}
	return out
}

// TestPrefixDegenerateMatchesPaged is the prefix-cache equivalence gate: a
// zero-length shared prefix (even under an explicit prefix id) is exactly
// the plain paged policy — no interning, no resident pages, no skipped
// prefill — and must reproduce it byte-identically across a grid of
// arrival rates, batch caps and seeds, plus a preempting run and a
// heterogeneous multi-tenant run. JSON byte comparison makes
// "byte-identical" literal.
func TestPrefixDegenerateMatchesPaged(t *testing.T) {
	base := spec0(t)
	base.Policy = Paged
	base.PromptTokens, base.GenTokens = 0, 0
	base.Mix = []workload.TenantLoad{{Tenant: workload.DefaultTenant, Share: 1, PromptTokens: 200, GenTokens: 200}}
	for _, rate := range []float64{0.25, 2.5, 5} {
		for _, batchCap := range []int{0, 3} {
			for _, seed := range []int64{1, 7} {
				plain := base
				plain.Rate, plain.MaxBatch, plain.Seed = rate, batchCap, seed
				want, err := Run(plain)
				if err != nil {
					t.Fatal(err)
				}
				pfx := plain
				pfx.Mix = prefixedMix(plain.Mix)
				got, err := Run(pfx)
				if err != nil {
					t.Fatal(err)
				}
				if got.PrefixHits != 0 || got.PrefixSavedTokens != 0 {
					t.Fatalf("rate=%g cap=%d: zero-length prefix must never hit, got %d hits", rate, batchCap, got.PrefixHits)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("rate=%g cap=%d seed=%d: degenerate prefixed result diverges from paged", rate, batchCap, seed)
				}
				ja, _ := json.Marshal(got)
				jb, _ := json.Marshal(want)
				if string(ja) != string(jb) {
					t.Fatalf("rate=%g cap=%d seed=%d: JSON encodings differ", rate, batchCap, seed)
				}
			}
		}
	}

	// A preempting run: the eviction/readmission path must also ignore the
	// degenerate prefix bit for bit.
	pressured := pressureSpec(t)
	pressured.PromptTokens, pressured.GenTokens = 0, 0
	pressured.Mix = []workload.TenantLoad{{Tenant: workload.DefaultTenant, Share: 1, PromptTokens: 200, GenTokens: 200}}
	want, err := Run(pressured)
	if err != nil {
		t.Fatal(err)
	}
	if want.Preemptions == 0 {
		t.Fatal("equivalence must be exercised under preemption")
	}
	pfx := pressured
	pfx.Mix = prefixedMix(pressured.Mix)
	got, err := Run(pfx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("degenerate prefixed result diverges from paged on a preempting run")
	}

	// A heterogeneous multi-tenant run through the same gate.
	mixed := mixedSpec(t)
	mixed.Policy = Paged
	want, err = Run(mixed)
	if err != nil {
		t.Fatal(err)
	}
	mp := mixed
	mp.Mix = prefixedMix(mixed.Mix)
	got, err = Run(mp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("degenerate prefixed result diverges from paged on a heterogeneous mix")
	}
}

// TestTieredDegenerateMatchesPaged is the host-tier equivalence gate: a
// host tier too small for a single page (hostTotal == 0) can never accept
// a swap-out, so every preemption discards and recomputes — byte-identical
// to the tierless paged policy across rates, caps and seeds, including a
// preempting run (the only kind that could touch the tier at all).
func TestTieredDegenerateMatchesPaged(t *testing.T) {
	base := pressureSpec(t)
	_, perRequest := base.kvBudget()
	pageBytes := perRequest / float64(base.PromptTokens+base.GenTokens) // per-token KV
	for _, rate := range []float64{2.5, 5} {
		for _, batchCap := range []int{0, 3} {
			for _, seed := range []int64{1, 7} {
				plain := base
				plain.Rate, plain.MaxBatch, plain.Seed = rate, batchCap, seed
				want, err := Run(plain)
				if err != nil {
					t.Fatal(err)
				}
				tiered := plain
				// Half a page of host bytes: a configured tier with zero
				// usable capacity.
				tiered.HostKVBytes = pageBytes * float64(DefaultPageTokens) / 2
				tiered.SwapGBps = 8
				got, err := Run(tiered)
				if err != nil {
					t.Fatal(err)
				}
				if got.KVSwapOuts != 0 || got.KVSwapIns != 0 || got.SwapTimeTotal != 0 {
					t.Fatalf("rate=%g cap=%d: sub-page host tier must never swap, got %d out / %d in",
						rate, batchCap, got.KVSwapOuts, got.KVSwapIns)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("rate=%g cap=%d seed=%d: degenerate tiered result diverges from paged", rate, batchCap, seed)
				}
				ja, _ := json.Marshal(got)
				jb, _ := json.Marshal(want)
				if string(ja) != string(jb) {
					t.Fatalf("rate=%g cap=%d seed=%d: JSON encodings differ", rate, batchCap, seed)
				}
			}
		}
	}
}

// TestPrefixCacheCountsHitsAndSavings: with an uncontended KV budget the
// shared prefix stays resident after the first admission charges it, so
// every later request hits, each hit saves exactly the prefix's tokens of
// prefill, and TTFT improves against the identical unprefixed run.
func TestPrefixCacheCountsHitsAndSavings(t *testing.T) {
	s := spec0(t)
	s.Policy = Paged
	s.Rate, s.Requests = 2, 48
	plain, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	s.PrefixTokens = 128
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != s.Requests {
		t.Fatalf("completed %d of %d requests", res.Requests, s.Requests)
	}
	if res.PrefixHits != s.Requests-1 {
		t.Errorf("uncontended cache should hit on every request after the first: %d hits of %d requests",
			res.PrefixHits, s.Requests)
	}
	if res.PrefixSavedTokens != res.PrefixHits*s.PrefixTokens {
		t.Errorf("each hit skips the full prefix: saved %d tokens over %d hits of %d",
			res.PrefixSavedTokens, res.PrefixHits, s.PrefixTokens)
	}
	if res.TTFT.Mean >= plain.TTFT.Mean {
		t.Errorf("skipped prefill must shorten mean TTFT: %g with cache vs %g without",
			res.TTFT.Mean, plain.TTFT.Mean)
	}
	if res.KVSwapOuts != 0 || res.HostPagesTotal != 0 {
		t.Errorf("no host tier configured, yet result reports one: %+v", res)
	}
}

// TestPrefixConservationUnderPressure drives a prefixed workload through a
// preempting run and asserts, every iteration, that committed pages close
// exactly as running-set pages plus resident prefix pages — the refcount
// invariant LIFO preemption must not break — while the host tier never
// overcommits its capacity.
func TestPrefixConservationUnderPressure(t *testing.T) {
	s := pressureSpec(t)
	s.PrefixTokens = 64
	_, perRequest := s.kvBudget()
	s.HostKVBytes = 3 * perRequest
	s.SwapGBps = 8
	steps := 0
	s.probe = func(ps probeState) {
		steps++
		if ps.usedPages != ps.runningPages+ps.prefixPages {
			t.Fatalf("iter %d: %d pages committed, running set holds %d + %d resident prefix — leak",
				ps.iteration, ps.usedPages, ps.runningPages, ps.prefixPages)
		}
		if ps.usedPages > ps.totalPages {
			t.Fatalf("iter %d: %d pages committed of a %d-page pool", ps.iteration, ps.usedPages, ps.totalPages)
		}
		if ps.hostPages < 0 || ps.hostPages > ps.hostTotal {
			t.Fatalf("iter %d: host tier holds %d pages of %d", ps.iteration, ps.hostPages, ps.hostTotal)
		}
	}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if steps != res.Iterations {
		t.Fatalf("probe saw %d iterations, result says %d", steps, res.Iterations)
	}
	if res.Preemptions == 0 {
		t.Fatal("invariant must be exercised under preemption")
	}
	if res.PrefixHits == 0 {
		t.Fatal("invariant must be exercised with live cache hits")
	}
	if res.PeakHostPages > res.HostPagesTotal {
		t.Fatalf("peak host occupancy %d exceeds the %d-page tier", res.PeakHostPages, res.HostPagesTotal)
	}
}

// TestTieredSwapAccounting pins the swap-in/recompute decision at its two
// extremes: a free link always swaps back in (no token is ever recomputed)
// and a near-zero link always recomputes (swap-ins never win), while
// swap-outs happen under both — eviction stores pages whenever the tier
// has room, before any readmission pricing.
func TestTieredSwapAccounting(t *testing.T) {
	base := pressureSpec(t)
	_, perRequest := base.kvBudget()
	base.HostKVBytes = 64 * perRequest // room for every victim

	fast := base
	fast.SwapGBps = math.Inf(1)
	res, err := Run(fast)
	if err != nil {
		t.Fatal(err)
	}
	if res.Preemptions == 0 {
		t.Fatal("tier accounting must be exercised under preemption")
	}
	if res.KVSwapOuts != res.Preemptions {
		t.Errorf("a roomy tier stores every victim: %d swap-outs of %d preemptions", res.KVSwapOuts, res.Preemptions)
	}
	if res.KVSwapIns != res.KVSwapOuts {
		t.Errorf("a free link swaps every victim back in: %d in of %d out", res.KVSwapIns, res.KVSwapOuts)
	}
	if res.RecomputedTokens != 0 {
		t.Errorf("free swap-ins must leave nothing to recompute, got %d tokens", res.RecomputedTokens)
	}
	if res.SwapTimeTotal != 0 {
		t.Errorf("an infinite link prices swaps at exactly zero, got %g s", res.SwapTimeTotal)
	}

	slow := base
	slow.SwapGBps = 1e-6
	res, err = Run(slow)
	if err != nil {
		t.Fatal(err)
	}
	if res.KVSwapOuts == 0 {
		t.Fatal("eviction stores victims regardless of the link speed")
	}
	if res.KVSwapIns != 0 {
		t.Errorf("a near-zero link never beats recompute, yet %d swap-ins", res.KVSwapIns)
	}
	if res.RecomputedTokens == 0 {
		t.Error("recompute readmissions must count their rebuilt tokens")
	}
	if res.SwapTimeTotal == 0 {
		t.Error("swap-outs still pay the link")
	}
}
