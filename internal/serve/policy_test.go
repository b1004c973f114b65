package serve

import (
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"testing"

	"optimus/internal/memfoot"
	"optimus/internal/model"
)

// stripPolicyIdentity zeroes the fields that name the admission policy
// rather than describe the simulated behavior, so a degenerate paged run
// can be compared byte for byte against a ReserveFull run. Preemption
// counters are deliberately kept: the degenerate configuration must not
// preempt, so they must match (at zero) too.
func stripPolicyIdentity(r Result) Result {
	r.Policy = 0
	r.PageTokens = 0
	r.KVPagesTotal = 0
	r.PeakKVPages = 0
	return r
}

// TestPagedDegenerateMatchesReserveFull is the tentpole equivalence gate:
// the paged policy with PageTokens covering the full prompt+generation
// context and preemption disabled is block-granular reservation, and must
// reproduce the PR-2 reservation simulator byte-identically — same seeds,
// all percentiles, per-request timelines, peak KV — across a grid of
// arrival rates and batch caps. A second pass leaves preemption enabled:
// with one page per full context it can never trigger, so the results
// must still be identical.
func TestPagedDegenerateMatchesReserveFull(t *testing.T) {
	base := spec0(t)
	for _, rate := range []float64{0.25, 1, 2.5, 5} {
		for _, batchCap := range []int{0, 3, 16} {
			for _, seed := range []int64{1, 7} {
				reserve := base
				reserve.Rate, reserve.MaxBatch, reserve.Seed = rate, batchCap, seed
				want, err := Run(reserve)
				if err != nil {
					t.Fatal(err)
				}
				for _, noPreempt := range []bool{true, false} {
					paged := reserve
					paged.Policy = Paged
					paged.PageTokens = paged.PromptTokens + paged.GenTokens
					paged.NoPreempt = noPreempt
					got, err := Run(paged)
					if err != nil {
						t.Fatal(err)
					}
					if got.Preemptions != 0 || got.RecomputedTokens != 0 {
						t.Fatalf("rate=%g cap=%d: degenerate paged run preempted (%d evictions)",
							rate, batchCap, got.Preemptions)
					}
					if got.KVPagesTotal == 0 || got.PageTokens != paged.PageTokens {
						t.Fatalf("rate=%g cap=%d: paged geometry not reported: %+v",
							rate, batchCap, got)
					}
					stripped := stripPolicyIdentity(got)
					if !reflect.DeepEqual(stripped, want) {
						t.Fatalf("rate=%g cap=%d seed=%d noPreempt=%v: degenerate paged result diverges from reservation",
							rate, batchCap, seed, noPreempt)
					}
					ja, _ := json.Marshal(stripped)
					jb, _ := json.Marshal(want)
					if string(ja) != string(jb) {
						t.Fatalf("rate=%g cap=%d seed=%d noPreempt=%v: JSON encodings differ",
							rate, batchCap, seed, noPreempt)
					}
				}
			}
		}
	}
}

// pressureSpec is a paged configuration whose KV budget holds only a
// handful of full contexts under saturating load, so block growth must
// preempt.
func pressureSpec(t *testing.T) Spec {
	s := spec0(t)
	_, perRequest := s.kvBudget()
	s.Policy = Paged
	s.Rate = 5
	s.Requests = 48
	s.KVCapacity = 6 * perRequest
	return s
}

// TestPagedPreemptsUnderPressure: with a tight page pool and saturating
// load the paged policy must evict (counting the discarded tokens), yet
// every request still completes with a causally ordered timeline, and the
// per-request eviction counts must reconcile with the totals.
func TestPagedPreemptsUnderPressure(t *testing.T) {
	s := pressureSpec(t)
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Preemptions == 0 {
		t.Fatal("pressure spec should preempt; tighten the test's KV budget")
	}
	if res.RecomputedTokens == 0 {
		t.Error("preemptions of decoding requests must discard generated tokens")
	}
	if res.Requests != s.Requests {
		t.Fatalf("completed %d of %d requests despite preemption", res.Requests, s.Requests)
	}
	sum := 0
	for _, m := range res.PerRequest {
		sum += m.Preemptions
		if m.Admitted < m.Arrival || m.FirstToken <= m.Admitted || m.Done < m.FirstToken {
			t.Errorf("request %d timeline out of order: %+v", m.ID, m)
		}
		if m.TTFT != m.FirstToken-m.Arrival || m.E2E != m.Done-m.Arrival {
			t.Errorf("request %d derived metrics inconsistent: %+v", m.ID, m)
		}
	}
	if sum != res.Preemptions {
		t.Errorf("per-request preemptions sum to %d, result says %d", sum, res.Preemptions)
	}
	// Preemption must cost simulated time: the eviction stall plus the
	// recompute prefill (billed over prompt AND regenerated tokens) land
	// in Done-FirstToken, so preempted requests decode strictly slower on
	// average than untouched ones in the same run.
	var evictedTPOT, smoothTPOT float64
	var evicted, smooth int
	for _, m := range res.PerRequest {
		if m.Preemptions > 0 {
			evictedTPOT += m.TPOT
			evicted++
		} else {
			smoothTPOT += m.TPOT
			smooth++
		}
	}
	if evicted == 0 || smooth == 0 {
		t.Fatalf("pressure run should mix preempted (%d) and untouched (%d) requests", evicted, smooth)
	}
	if evictedTPOT/float64(evicted) <= smoothTPOT/float64(smooth) {
		t.Errorf("preempted requests should pay for their recompute: mean TPOT %g (evicted) vs %g (untouched)",
			evictedTPOT/float64(evicted), smoothTPOT/float64(smooth))
	}
	if res.PeakKVPages > res.KVPagesTotal {
		t.Errorf("peak pages %d exceed the pool of %d", res.PeakKVPages, res.KVPagesTotal)
	}
	if res.PeakKVBytes > res.KVCapacity*(1+1e-12) {
		t.Errorf("peak KV %g exceeds budget %g", res.PeakKVBytes, res.KVCapacity)
	}

	// The same load with preemption disabled must never evict — admission
	// reserves full-context pages instead.
	s.NoPreempt = true
	safe, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if safe.Preemptions != 0 || safe.RecomputedTokens != 0 {
		t.Errorf("NoPreempt run evicted: %+v", safe)
	}
	if safe.PeakBatch > res.PeakBatch {
		t.Errorf("full-context page reservation should admit no more than growth+preemption: reserve %d vs paged %d",
			safe.PeakBatch, res.PeakBatch)
	}
}

// TestPagedAdmitsMoreThanReservation: on a long-generation workload with
// a small KV budget, admission on the prompt's pages alone must reach a
// higher concurrency — the vLLM observation that full-context reservation
// is wildly pessimistic — and convert it into throughput.
func TestPagedAdmitsMoreThanReservation(t *testing.T) {
	s := spec0(t)
	s.PromptTokens = 100
	s.GenTokens = 400
	s.Rate = 4
	s.Requests = 48
	_, perRequest := s.kvBudget()
	s.KVCapacity = 8 * perRequest

	reserve, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	s.Policy = Paged
	paged, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if paged.PeakBatch <= reserve.PeakBatch {
		t.Errorf("paged admission should batch more sequences: reserve peak %d, paged peak %d",
			reserve.PeakBatch, paged.PeakBatch)
	}
	if paged.ThroughputRPS <= reserve.ThroughputRPS {
		t.Errorf("paged admission should lift saturated throughput: reserve %g rps, paged %g rps",
			reserve.ThroughputRPS, paged.ThroughputRPS)
	}
	if paged.PageTokens != DefaultPageTokens {
		t.Errorf("zero PageTokens should resolve to the default %d, got %d",
			DefaultPageTokens, paged.PageTokens)
	}
}

// TestKVConservationInvariant is the instrumented-hook property test:
// at every iteration, the pages the running set holds must be covered by
// the pages the policy has committed, the commitment must never exceed
// the pool or the byte budget, and — whenever preemption is the safety
// valve — held and committed must coincide exactly. Includes iterations
// that preempt.
func TestKVConservationInvariant(t *testing.T) {
	for name, c := range map[string]struct {
		mutate func(*Spec)
		// reserves marks variants whose admissions commit full contexts
		// they have not filled yet (NoPreempt), where held < committed is
		// legitimate.
		reserves bool
	}{
		"reserve":          {mutate: func(s *Spec) { s.Policy = ReserveFull; s.KVCapacity = 0 }},
		"paged-preempting": {mutate: func(s *Spec) {}},
		"paged-no-preempt": {mutate: func(s *Spec) { s.NoPreempt = true }, reserves: true},
		"paged-closed":     {mutate: func(s *Spec) { s.Arrival = ClosedLoop; s.Rate = 0; s.Clients = 12 }},
	} {
		s := pressureSpec(t)
		c.mutate(&s)
		reserves := c.reserves
		steps := 0
		s.probe = func(ps probeState) {
			steps++
			if ps.runningPages > ps.usedPages {
				t.Fatalf("%s iter %d: running set holds %d pages but only %d committed — leak",
					name, ps.iteration, ps.runningPages, ps.usedPages)
			}
			if !reserves && ps.usedPages != ps.runningPages {
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
		if name == "paged-preempting" && res.Preemptions == 0 {
			t.Fatalf("%s: invariant must be exercised under preemption", name)
		}
	}
}

// TestPagedDeterminism: paged simulations — including ones that preempt —
// must be byte-identical across repeated runs and across GOMAXPROCS
// settings (the simulator is a single goroutine; nothing may leak in).
func TestPagedDeterminism(t *testing.T) {
	s := pressureSpec(t)
	prev := runtime.GOMAXPROCS(1)
	a, err := Run(s)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	if a.Preemptions == 0 {
		t.Fatal("determinism must be pinned on a preempting run")
	}
	runtime.GOMAXPROCS(4)
	b, err := Run(s)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	jc, _ := json.Marshal(c)
	if string(ja) != string(jb) {
		t.Error("paged results differ across GOMAXPROCS=1 and 4")
	}
	if string(ja) != string(jc) {
		t.Error("paged results differ across repeated runs")
	}
}

// kvBudget is the KV budget and largest-request reservation the pre-draw
// rules size s from: newPolicy's, at the workload's largest possible
// context.
func (s Spec) kvBudget() (budget, perRequest float64) {
	s.Policy = ReserveFull
	env := possibleEnvelope(s.Workload())
	p := newPolicy(s, &env, new(policyStore)).(*reservePolicy)
	return p.budget, p.perRequest
}

// TestRunDerivesKVGeometryOnce pins the kvBudget hoist: one simulation
// must evaluate the memfoot inference footprint exactly once, regardless
// of policy — the footprint model is far too slow for the event loop, and
// the pre-hoist code re-derived it in every helper.
func TestRunDerivesKVGeometryOnce(t *testing.T) {
	defer func(orig func(model.Config, int, int, int, float64) memfoot.InferenceBreakdown) {
		inferenceFootprint = orig
	}(inferenceFootprint)

	for _, policy := range []Policy{ReserveFull, Paged} {
		s := spec0(t)
		s.Policy = policy
		calls := 0
		inferenceFootprint = func(cfg model.Config, tp, batch, context int, elemBytes float64) memfoot.InferenceBreakdown {
			calls++
			return memfoot.Inference(cfg, tp, batch, context, elemBytes)
		}
		if _, err := Run(s); err != nil {
			t.Fatal(err)
		}
		if calls != 1 {
			t.Errorf("%v: Run evaluated the footprint model %d times, want exactly 1", policy, calls)
		}
	}
}

// TestPagedValidation covers the policy-specific spec checks.
func TestPagedValidation(t *testing.T) {
	check := func(name string, wantErr bool, mutate func(*Spec)) {
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
	check("paged defaults", false, func(s *Spec) { s.Policy = Paged })
	check("paged custom page", false, func(s *Spec) { s.Policy = Paged; s.PageTokens = 32 })
	check("paged no-preempt", false, func(s *Spec) { s.Policy = Paged; s.NoPreempt = true })
	check("page tokens beyond context clamp", false, func(s *Spec) { s.Policy = Paged; s.PageTokens = 1 << 20 })
	check("page tokens under reserve-full", true, func(s *Spec) { s.PageTokens = 16 })
	check("no-preempt under reserve-full", true, func(s *Spec) { s.NoPreempt = true })
	check("negative page tokens", true, func(s *Spec) { s.Policy = Paged; s.PageTokens = -1 })
	check("unknown policy", true, func(s *Spec) { s.Policy = Policy(9) })
	check("paged kv budget below one context", true, func(s *Spec) {
		s.Policy = Paged
		_, per := s.kvBudget()
		s.KVCapacity = per / 2
	})
	check("paged NaN kv budget", true, func(s *Spec) { s.Policy = Paged; s.KVCapacity = math.NaN() })
	check("infinite kv budget", true, func(s *Spec) { s.KVCapacity = math.Inf(1) })
	// A huge-but-finite budget must validate and still resolve a usable
	// (positive, clamped) batch cap rather than overflowing negative and
	// stalling the event loop.
	huge := spec0(t)
	huge.KVCapacity = 1e30
	huge.Requests = 2
	if err := huge.Validate(); err != nil {
		t.Fatalf("huge finite KV budget should validate: %v", err)
	}
	res, err := Run(huge)
	if err != nil {
		t.Fatalf("huge finite KV budget should simulate: %v", err)
	}
	if res.MaxBatch <= 0 {
		t.Errorf("huge budget resolved a non-positive batch cap %d", res.MaxBatch)
	}
}

// TestPagedFeasibleMatchesRun extends the sweep-pruning contract to the
// paged policy: Feasible's verdict must agree with Run's accept/reject.
func TestPagedFeasibleMatchesRun(t *testing.T) {
	s := spec0(t)
	s.Policy = Paged
	if !Feasible(s) {
		t.Error("baseline paged spec must be feasible")
	}
	if _, err := Run(s); err != nil {
		t.Errorf("feasible paged spec must run: %v", err)
	}
	_, per := s.kvBudget()
	s.KVCapacity = per / 2
	if Feasible(s) {
		t.Error("half-context paged budget must be infeasible")
	}
	if _, err := Run(s); err == nil {
		t.Error("infeasible paged spec must be rejected by Run")
	}
}

// TestCanonicalPageTokens pins the block-size half of Spec.Canonical, the
// one rule the simulator and the sweep's memo-key canonicalization share.
func TestCanonicalPageTokens(t *testing.T) {
	for _, c := range []struct {
		pol           Policy
		page, context int
		want          int
	}{
		{ReserveFull, 16, 400, 0},          // reservation never pages
		{Paged, 0, 400, DefaultPageTokens}, // unset → default
		{Paged, -5, 400, DefaultPageTokens},
		{Paged, 32, 400, 32},
		{Paged, 1 << 20, 400, 400}, // clamped to the context
		{Paged, 16, 0, 0},          // empty context → no geometry
	} {
		s := Spec{Policy: c.pol, PageTokens: c.page, PromptTokens: c.context}
		if got := s.Canonical().PageTokens; got != c.want {
			t.Errorf("Canonical PageTokens(%v, %d, %d) = %d, want %d",
				c.pol, c.page, c.context, got, c.want)
		}
	}
	// The clamp sees session growth: turn 3 of a 100+100 session carries
	// a 500-token prompt, so a 300-token page fits its context.
	s := Spec{Policy: Paged, PageTokens: 300, PromptTokens: 100, GenTokens: 100, Turns: 3}
	if got := s.Canonical().PageTokens; got != 300 {
		t.Errorf("Canonical PageTokens of a 3-turn session = %d, want 300", got)
	}
}

// TestPolicyNames covers the enum rendering and CLI parsing.
func TestPolicyNames(t *testing.T) {
	if ReserveFull.String() != "reserve-full" || Paged.String() != "paged" {
		t.Error("unexpected policy names")
	}
	if Policy(9).String() == "" {
		t.Error("unknown policy should still render")
	}
	for token, want := range map[string]Policy{
		"reserve": ReserveFull, "reserve-full": ReserveFull, "reservation": ReserveFull,
		"paged": Paged, "page": Paged,
	} {
		got, err := ParsePolicy(token)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", token, got, err, want)
		}
	}
	if _, err := ParsePolicy("lru"); err == nil {
		t.Error("unknown policy token should fail to parse")
	}
	// JSON artifacts must say "paged", not a bare enum int, and parse back.
	for _, pol := range []Policy{ReserveFull, Paged} {
		data, err := json.Marshal(pol)
		if err != nil || string(data) != `"`+pol.String()+`"` {
			t.Errorf("Policy %v marshals to %s, %v", pol, data, err)
		}
		var back Policy
		if err := json.Unmarshal(data, &back); err != nil || back != pol {
			t.Errorf("Policy %v does not round-trip JSON: %v, %v", pol, back, err)
		}
	}
	var bad Policy
	if err := json.Unmarshal([]byte(`"lru"`), &bad); err == nil {
		t.Error("unknown policy name should fail to unmarshal")
	}
}
