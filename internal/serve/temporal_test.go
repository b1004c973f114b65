package serve

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"optimus/internal/workload"
)

// TestScheduleDegenerateMatchesPoisson is the temporal equivalence gate: a
// constant Schedule — single-segment or split into equal-rate pieces —
// must reproduce the plain constant-rate Poisson simulation
// byte-identically across the rate × cap × policy × seed grid. JSON byte
// comparison makes "byte-identical" literal.
func TestScheduleDegenerateMatchesPoisson(t *testing.T) {
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
					plain := base
					plain.Rate, plain.MaxBatch, plain.Seed = rate, batchCap, seed
					pol.mutate(&plain)
					want, err := Run(plain)
					if err != nil {
						t.Fatal(err)
					}
					for _, sched := range []workload.Schedule{
						{{Start: 0, End: 60, Rate: rate}},
						{{Start: 0, End: 30, Rate: rate}, {Start: 30, End: 90, Rate: rate}},
					} {
						scheduled := plain
						scheduled.Rate, scheduled.Schedule = 0, sched
						got, err := Run(scheduled)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s rate=%g cap=%d seed=%d: constant schedule %v diverges from plain Poisson",
								pol.name, rate, batchCap, seed, sched)
						}
						ja, _ := json.Marshal(got)
						jb, _ := json.Marshal(want)
						if string(ja) != string(jb) {
							t.Fatalf("%s rate=%g cap=%d seed=%d: JSON encodings differ", pol.name, rate, batchCap, seed)
						}
					}
				}
			}
		}
	}
}

// TestScheduleBurstReshapesArrivals: a genuinely piecewise schedule must
// change the simulated outcome (same seed, same total work) and still
// complete every request deterministically.
func TestScheduleBurstReshapesArrivals(t *testing.T) {
	flat := spec0(t)
	flat.Rate, flat.Requests = 1, 64

	burst := flat
	burst.Rate = 0
	burst.Schedule = workload.Schedule{{Start: 0, End: 40, Rate: 0.25}, {Start: 40, End: 50, Rate: 20}}
	want, err := Run(burst)
	if err != nil {
		t.Fatal(err)
	}
	if want.Requests != burst.Requests {
		t.Fatalf("burst run completed %d of %d", want.Requests, burst.Requests)
	}
	flatRes, err := Run(flat)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(want.PerRequest, flatRes.PerRequest) {
		t.Fatal("a burst schedule should reshape the arrival timeline")
	}
	// The burst concentrates queueing: its p95 queue delay must exceed the
	// gentle flat rate's.
	if want.Queue.P95 <= flatRes.Queue.P95 {
		t.Errorf("burst queueing p95 %v should exceed flat %v", want.Queue.P95, flatRes.Queue.P95)
	}
	again, err := Run(burst)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, again) {
		t.Error("scheduled runs must be byte-identical across invocations")
	}
}

// TestOneTurnCohortMatchesMix: Turns of 0 and 1 are the same degenerate
// single-turn workload — byte-identical results across policies and seeds.
func TestOneTurnCohortMatchesMix(t *testing.T) {
	base := spec0(t)
	for _, seed := range []int64{1, 7} {
		for _, pol := range []struct {
			name   string
			mutate func(*Spec)
		}{
			{"reserve", func(s *Spec) {}},
			{"paged", func(s *Spec) { s.Policy = Paged }},
		} {
			zero := base
			zero.Seed = seed
			pol.mutate(&zero)
			want, err := Run(zero)
			if err != nil {
				t.Fatal(err)
			}
			one := zero
			one.Turns = 1
			got, err := Run(one)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s seed=%d: Turns=1 diverges from the flat mix", pol.name, seed)
			}
			ja, _ := json.Marshal(got)
			jb, _ := json.Marshal(want)
			if string(ja) != string(jb) {
				t.Fatalf("%s seed=%d: JSON encodings differ", pol.name, seed)
			}
		}
	}
}

// TestSessionCohortsExercisePrefixCache: a multi-turn cohort must complete
// every request, echo coherent per-request shapes, and lift the paged
// prefix cache — turn 3 of each session finds turn 2's context resident
// and grows it in place.
func TestSessionCohortsExercisePrefixCache(t *testing.T) {
	s := spec0(t)
	s.Policy = Paged
	s.Rate, s.Requests, s.Turns, s.Think = 2, 48, 3, 5
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != s.Requests {
		t.Fatalf("completed %d of %d cohort requests", res.Requests, s.Requests)
	}
	if res.PrefixHits == 0 {
		t.Error("three-turn sessions must hit the prefix cache (turn 3 covers turn 2's context)")
	}
	if res.PrefixSavedTokens == 0 {
		t.Error("prefix hits must save prefill tokens")
	}
	prevArrival := math.Inf(-1)
	for i, m := range res.PerRequest {
		if m.Arrival < prevArrival {
			t.Fatalf("request %d arrivals out of order", i)
		}
		prevArrival = m.Arrival
	}
	again, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(res)
	jb, _ := json.Marshal(again)
	if string(ja) != string(jb) {
		t.Error("cohort runs must be byte-identical across invocations")
	}
}

// TestHeavyTailMixServes: a sigma-carrying mix draws varied lengths within
// the declared clamp bounds, completes every request, and leaves a
// zero-sigma sibling untouched.
func TestHeavyTailMixServes(t *testing.T) {
	s := spec0(t)
	s.PromptTokens, s.GenTokens = 0, 0
	s.Mix = []workload.TenantLoad{{
		Tenant: "chat", Share: 1,
		PromptTokens: 200, GenTokens: 100, PromptSigma: 1.2, GenSigma: 0.8,
	}}
	s.Rate, s.Requests = 1, 48
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != s.Requests {
		t.Fatalf("completed %d of %d heavy-tailed requests", res.Requests, s.Requests)
	}
	pmin, pmax := s.Mix[0].PromptBounds()
	gmin, gmax := s.Mix[0].GenBounds()
	varied := false
	for i, m := range res.PerRequest {
		if m.PromptTokens < pmin || m.PromptTokens > pmax || m.GenTokens < gmin || m.GenTokens > gmax {
			t.Fatalf("request %d shape %d+%d outside clamp bounds [%d,%d]+[%d,%d]",
				i, m.PromptTokens, m.GenTokens, pmin, pmax, gmin, gmax)
		}
		if m.PromptTokens != 200 || m.GenTokens != 100 {
			varied = true
		}
	}
	if !varied {
		t.Error("sigma draws should vary at least one request's lengths")
	}
}

// TestSpecTemporalValidation covers the Schedule/Turns/Think spec checks.
func TestSpecTemporalValidation(t *testing.T) {
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
	sched := workload.Schedule{{Start: 0, End: 60, Rate: 2}}
	check("schedule", false, func(s *Spec) { s.Rate, s.Schedule = 0, sched })
	check("schedule with a rate", true, func(s *Spec) { s.Schedule = sched })
	check("invalid schedule", true, func(s *Spec) { s.Rate, s.Schedule = 0, workload.Schedule{{Start: 5, End: 60, Rate: 2}} })
	check("closed-loop schedule", true, func(s *Spec) {
		s.Arrival, s.Rate, s.Clients, s.Schedule = ClosedLoop, 0, 4, sched
	})
	check("closed-loop turns", true, func(s *Spec) {
		s.Arrival, s.Rate, s.Clients, s.Turns, s.Policy = ClosedLoop, 0, 4, 2, Paged
	})
	check("negative turns", true, func(s *Spec) { s.Turns = -1 })
	check("paged cohort", false, func(s *Spec) { s.Policy, s.Turns = Paged, 3 })
	check("cohort under reservation", true, func(s *Spec) { s.Turns = 2 })
	check("cohort without preemption", true, func(s *Spec) { s.Policy, s.NoPreempt, s.Turns = Paged, true, 2 })
	check("cohort over a prefix mix", true, func(s *Spec) {
		s.Policy, s.Turns = Paged, 2
		s.PromptTokens, s.GenTokens = 0, 0
		s.Mix = []workload.TenantLoad{{Tenant: "a", Share: 1, PromptTokens: 100, GenTokens: 50, PrefixID: "a", PrefixTokens: 40}}
	})
	check("think without turns", true, func(s *Spec) { s.Think = 2 })
	check("think with one turn", true, func(s *Spec) { s.Turns, s.Think = 1, 2 })
	check("NaN think", true, func(s *Spec) { s.Policy, s.Turns, s.Think = Paged, 2, math.NaN() })
	check("negative think", true, func(s *Spec) { s.Policy, s.Turns, s.Think = Paged, 2, -1 })
	goodTrace := []workload.TraceEvent{{Arrival: 0, Request: workload.Request{Tenant: "a", PromptTokens: 100, GenTokens: 10}}}
	clearAll := func(s *Spec) {
		s.PromptTokens, s.GenTokens, s.Rate, s.Clients, s.Requests, s.Seed = 0, 0, 0, 0, 0, 0
	}
	check("trace with a schedule", true, func(s *Spec) { clearAll(s); s.Trace = goodTrace; s.Schedule = sched })
	check("trace with turns", true, func(s *Spec) { clearAll(s); s.Trace = goodTrace; s.Turns = 2 })
	check("trace with think", true, func(s *Spec) { clearAll(s); s.Trace = goodTrace; s.Think = 1 })
}
