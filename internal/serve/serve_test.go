package serve

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"optimus/internal/arch"
	"optimus/internal/infer"
	"optimus/internal/model"
	"optimus/internal/tech"
	"optimus/internal/workload"
)

// spec0 is the baseline experiment: Llama2-13B on one A100, 200/200-token
// requests, open-loop Poisson arrivals.
func spec0(t *testing.T) Spec {
	t.Helper()
	sys, err := arch.SystemOf(arch.A100(), 1, 8, tech.NVLink3, tech.IBNDR)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := model.ByName("Llama2-13B")
	if err != nil {
		t.Fatal(err)
	}
	return Spec{
		Model: cfg, System: sys, TP: 1, Precision: tech.FP16,
		PromptTokens: 200, GenTokens: 200,
		Arrival: Poisson, Rate: 0.5, Requests: 64, Seed: 1,
	}
}

// TestLowLoadTTFTMatchesPrefill: at vanishing load every request finds an
// idle engine, so simulated TTFT must converge to the closed-form prefill
// latency of the step-cost engine — the satellite sanity gate.
func TestLowLoadTTFTMatchesPrefill(t *testing.T) {
	s := spec0(t)
	s.Rate = 0.01 // mean interarrival 100 s >> multi-second service time
	s.Requests = 16
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := infer.PrefillCost(s.inferSpec(possibleEnvelope(s.Workload()).bounds))
	if err != nil {
		t.Fatal(err)
	}
	want := pre.Time()
	for _, q := range []float64{res.TTFT.P50, res.TTFT.P95, res.TTFT.Max} {
		if rel := math.Abs(q-want) / want; rel > 1e-9 {
			t.Errorf("low-load TTFT %v differs from closed-form prefill %v (rel %g)", q, want, rel)
		}
	}
	if res.Queue.Max != 0 {
		t.Errorf("low-load queueing delay should be zero, got %v", res.Queue.Max)
	}
	// And E2E converges to prefill + the G-1 decode steps that follow the
	// prefill-emitted first token.
	coster, err := infer.NewStepCoster(s.inferSpec(possibleEnvelope(s.Workload()).bounds))
	if err != nil {
		t.Fatal(err)
	}
	e2e := want
	for kv := s.PromptTokens + 2; kv <= s.PromptTokens+s.GenTokens; kv++ {
		e2e += coster.DecodeStep(kv, 1).Time()
	}
	if rel := math.Abs(res.E2E.P50-e2e) / e2e; rel > 1e-6 {
		t.Errorf("low-load E2E %v differs from closed-form %v (rel %g)", res.E2E.P50, e2e, rel)
	}
}

// TestDeterministicAcrossRuns: equal seeds must give byte-identical
// results (the simulator is single-threaded, so GOMAXPROCS cannot leak in;
// JSON round-trips make "byte-identical" literal).
func TestDeterministicAcrossRuns(t *testing.T) {
	s := spec0(t)
	a, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("repeated runs at one seed must be identical")
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Error("JSON encodings differ across identical runs")
	}
	s.Seed = 2
	c, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.PerRequest, c.PerRequest) {
		t.Error("different seeds should produce different arrival timelines")
	}
}

// TestLoadIncreasesLatency: pushing the arrival rate toward saturation
// must raise queueing delay and p95 E2E, while batching lifts throughput.
func TestLoadIncreasesLatency(t *testing.T) {
	s := spec0(t)
	s.Rate = 0.05
	light, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	s.Rate = 2.0
	heavy, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if heavy.E2E.P95 <= light.E2E.P95 {
		t.Errorf("p95 E2E should grow with load: light %v, heavy %v", light.E2E.P95, heavy.E2E.P95)
	}
	if heavy.Queue.P95 <= light.Queue.P95 {
		t.Errorf("queueing should grow with load: light %v, heavy %v", light.Queue.P95, heavy.Queue.P95)
	}
	if heavy.ThroughputRPS <= light.ThroughputRPS {
		t.Errorf("continuous batching should lift throughput under load: light %v, heavy %v",
			light.ThroughputRPS, heavy.ThroughputRPS)
	}
	if heavy.MeanBatch <= light.MeanBatch {
		t.Errorf("mean batch should grow with load: light %v, heavy %v", light.MeanBatch, heavy.MeanBatch)
	}
}

// TestBatchCapBoundsOccupancy: the iteration batch cap must bound peak
// concurrency, and a tighter cap cannot improve p95 latency at high load.
func TestBatchCapBoundsOccupancy(t *testing.T) {
	s := spec0(t)
	s.Rate = 5
	s.MaxBatch = 4
	capped, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if capped.PeakBatch > 4 {
		t.Errorf("peak batch %d exceeds cap 4", capped.PeakBatch)
	}
	if capped.MaxBatch != 4 {
		t.Errorf("resolved MaxBatch = %d, want 4", capped.MaxBatch)
	}
	s.MaxBatch = 32
	wide, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if wide.E2E.P95 >= capped.E2E.P95 {
		t.Errorf("wider batching should cut saturated p95 E2E: cap4 %v, cap32 %v",
			capped.E2E.P95, wide.E2E.P95)
	}
}

// TestKVCapacityGatesAdmission: shrinking the KV budget to two full-context
// reservations must hold concurrency at two regardless of demand.
func TestKVCapacityGatesAdmission(t *testing.T) {
	s := spec0(t)
	s.Rate = 5
	_, perRequest := s.kvBudget()
	s.KVCapacity = 2.5 * perRequest
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakBatch != 2 {
		t.Errorf("2.5-request KV budget should cap concurrency at 2, got %d", res.PeakBatch)
	}
	if res.PeakKVBytes > s.KVCapacity {
		t.Errorf("KV reservation %g exceeds budget %g", res.PeakKVBytes, s.KVCapacity)
	}
}

// TestClosedLoopConcurrency: closed-loop arrivals keep exactly Clients
// requests in flight (capacity permitting) and complete every request.
func TestClosedLoopConcurrency(t *testing.T) {
	s := spec0(t)
	s.Arrival = ClosedLoop
	s.Rate = 0
	s.Clients = 4
	s.Requests = 32
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 32 {
		t.Fatalf("completed %d of 32 requests", res.Requests)
	}
	if res.PeakBatch != 4 {
		t.Errorf("closed loop with 4 clients should peak at 4 in flight, got %d", res.PeakBatch)
	}
	if res.Queue.Max != 0 {
		t.Errorf("closed loop under capacity should never queue, got %v", res.Queue.Max)
	}
	// Zero think time: the engine is never idle, so makespan ≈ work.
	if res.ThroughputRPS <= 0 || res.MeanBatch < 3 {
		t.Errorf("closed loop should keep the engine busy: %+v", res)
	}
}

// TestPerRequestInvariants: every completed request's timeline must be
// causally ordered and consistent with the summary percentiles.
func TestPerRequestInvariants(t *testing.T) {
	s := spec0(t)
	s.Rate = 1
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerRequest) != s.Requests {
		t.Fatalf("got %d per-request rows, want %d", len(res.PerRequest), s.Requests)
	}
	for i, m := range res.PerRequest {
		if m.ID != i {
			t.Fatalf("row %d has ID %d; rows must be in arrival order", i, m.ID)
		}
		if m.Admitted < m.Arrival || m.FirstToken <= m.Admitted || m.Done < m.FirstToken {
			t.Errorf("request %d timeline out of order: %+v", m.ID, m)
		}
		if m.TTFT != m.FirstToken-m.Arrival || m.E2E != m.Done-m.Arrival || m.Queue != m.Admitted-m.Arrival {
			t.Errorf("request %d derived metrics inconsistent: %+v", m.ID, m)
		}
		if m.TPOT <= 0 {
			t.Errorf("request %d TPOT must be positive with 200 generated tokens", m.ID)
		}
		if m.E2E > res.E2E.Max+1e-12 {
			t.Errorf("request %d E2E %v exceeds reported max %v", m.ID, m.E2E, res.E2E.Max)
		}
	}
}

// TestValidateRejectsBadSpecs covers the serving-specific validation.
func TestValidateRejectsBadSpecs(t *testing.T) {
	good := spec0(t)
	if err := good.Validate(); err != nil {
		t.Fatalf("baseline should validate: %v", err)
	}
	check := func(name string, mutate func(*Spec)) {
		s := good
		mutate(&s)
		if _, err := Run(s); err == nil {
			t.Errorf("%s should fail", name)
		}
	}
	check("zero rate", func(s *Spec) { s.Rate = 0 })
	check("NaN rate", func(s *Spec) { s.Rate = math.NaN() })
	check("infinite rate", func(s *Spec) { s.Rate = math.Inf(1) })
	check("closed loop without clients", func(s *Spec) { s.Arrival = ClosedLoop; s.Rate = 0 })
	// The CLI rejects cross-process flags (-clients under poisson, -rate
	// under closed); the library must be as strict instead of silently
	// ignoring the stray field.
	check("poisson with clients", func(s *Spec) { s.Clients = 4 })
	check("closed loop with a rate", func(s *Spec) { s.Arrival = ClosedLoop; s.Clients = 4 })
	check("trace with closed-loop arrivals", func(s *Spec) {
		s.PromptTokens, s.GenTokens = 0, 0
		s.Rate, s.Requests, s.Seed = 0, 0, 0
		s.Arrival, s.Clients = ClosedLoop, 4
		s.Trace = []workload.TraceEvent{{Arrival: 0, Request: workload.Request{Tenant: "a", PromptTokens: 100, GenTokens: 10}}}
	})
	check("unknown arrival", func(s *Spec) { s.Arrival = Arrival(9) })
	check("negative requests", func(s *Spec) { s.Requests = -1 })
	check("zero gen tokens", func(s *Spec) { s.GenTokens = 0 })
	check("negative cap", func(s *Spec) { s.MaxBatch = -1 })
	check("negative kv budget", func(s *Spec) { s.KVCapacity = -1 })
	check("TP mismatch", func(s *Spec) { s.TP = 4 })
	check("kv budget below one request", func(s *Spec) {
		_, per := s.kvBudget()
		s.KVCapacity = per / 2
	})
}

// TestFeasibleMatchesRun: Feasible's verdict must agree with whether Run
// accepts the spec — the contract the sweep engine's pruning relies on.
func TestFeasibleMatchesRun(t *testing.T) {
	good := spec0(t)
	if !Feasible(good) {
		t.Error("baseline must be feasible")
	}
	if _, err := Run(good); err != nil {
		t.Errorf("feasible spec must run: %v", err)
	}

	// Llama2-70B at fp16 (140 GB weights) cannot fit one 80 GB A100.
	big := good
	cfg, err := model.ByName("Llama2-70B")
	if err != nil {
		t.Fatal(err)
	}
	big.Model = cfg
	if Feasible(big) {
		t.Error("70B on one 80 GB device must be infeasible")
	}
	if _, err := Run(big); err == nil {
		t.Error("infeasible spec must be rejected by Run")
	}
}

// TestArrivalString covers the names.
func TestArrivalString(t *testing.T) {
	if Poisson.String() != "poisson" || ClosedLoop.String() != "closed-loop" {
		t.Error("unexpected arrival names")
	}
	if Arrival(7).String() == "" {
		t.Error("unknown arrival should still render")
	}
}

// TestRunMatchesTraceReplay: an open-loop spec replayed as a trace of its
// own drawn stream gives the same Result (reflect + JSON): Run sizes the
// simulator from the stream it serves, whether it drew the stream or
// replayed it.
func TestRunMatchesTraceReplay(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Spec)
	}{
		{"fixed", func(s *Spec) {}},
		{"lognormal/reserve", func(s *Spec) { lognormalMix(t, s) }},
		{"lognormal/paged", func(s *Spec) { lognormalMix(t, s); s.Policy = Paged; s.KVCapacity = 12e9 }},
		{"lognormal/disagg", func(s *Spec) { lognormalMix(t, s); s.Policy = Disaggregated; s.KVCapacity = 12e9 }},
		{"sessions/paged", func(s *Spec) { s.GenTokens, s.Turns, s.Think = 100, 3, 2; s.Policy = Paged; s.KVCapacity = 3e9 }},
		{"schedule", func(s *Spec) {
			s.Rate = 0
			s.Schedule = workload.Schedule{{Start: 0, End: 10, Rate: 1}, {Start: 10, End: 20, Rate: 6}}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := spec0(t)
			s.Rate, s.Requests, s.Seed = 2, 64, 3
			tc.mut(&s)
			want, err := Run(s)
			if err != nil {
				t.Fatal(err)
			}
			times, shapes := s.Workload().WithDefaults().Stream(nil, nil)
			replay, _, _ := capacityOf(t, s)
			for i, sh := range shapes {
				replay.Trace = append(replay.Trace, workload.TraceEvent{Arrival: times[i], Request: sh})
			}
			got, err := Run(replay)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("trace replay diverges from Run: E2E p95 %g vs %g, %d vs %d iterations, MaxBatch %d vs %d",
					got.E2E.P95, want.E2E.P95, got.Iterations, want.Iterations, got.MaxBatch, want.MaxBatch)
			}
			jw, _ := json.Marshal(want)
			jg, _ := json.Marshal(got)
			if string(jw) != string(jg) {
				t.Error("JSON encodings differ")
			}
		})
	}
}

// TestRunVerdictMatchesValidate: Run errors exactly when Validate does,
// with the same error. Both judge the workload's possible shapes, never
// the stream a seed happens to draw — so a heavy-tailed mix whose largest
// possible request overflows the KV budget stays rejected even though
// every request it draws would fit.
func TestRunVerdictMatchesValidate(t *testing.T) {
	overflow := spec0(t)
	lognormalMix(t, &overflow)
	overflow.Requests = 16
	_, per := overflow.kvBudget()
	overflow.KVCapacity = per / 2
	_, shapes := overflow.Workload().WithDefaults().Stream(nil, nil)
	b := possibleEnvelope(overflow.Workload()).bounds
	for _, sh := range shapes {
		if 2*sh.Context() > b.MaxContext {
			t.Fatalf("drawn %d-token request would not fit half the largest possible %d-token one", sh.Context(), b.MaxContext)
		}
	}

	for _, tc := range []struct {
		name    string
		mut     func(*Spec)
		wantErr bool
	}{
		{"fixed", func(s *Spec) {}, false},
		{"lognormal", func(s *Spec) { lognormalMix(t, s) }, false},
		{"lognormal paged", func(s *Spec) { lognormalMix(t, s); s.Policy = Paged; s.KVCapacity = 12e9 }, false},
		{"lognormal beyond the budget", func(s *Spec) { *s = overflow }, true},
		{"lognormal paged beyond the budget", func(s *Spec) { *s = overflow; s.Policy = Paged }, true},
		{"sessions", func(s *Spec) { s.Turns = 3; s.Policy = Paged }, false},
		{"sessions on reserve", func(s *Spec) { s.Turns = 3 }, true},
		{"closed loop", func(s *Spec) { s.Arrival, s.Rate, s.Clients = ClosedLoop, 0, 4 }, false},
		{"zero rate", func(s *Spec) { s.Rate = 0 }, true},
		{"negative requests", func(s *Spec) { s.Requests = -1 }, true},
		{"page size on reserve", func(s *Spec) { s.PageTokens = 16 }, true},
		{"KV below one request", func(s *Spec) { s.KVCapacity = 1e6 }, true},
		{"paged KV below one request", func(s *Spec) { s.Policy, s.KVCapacity = Paged, 1e6 }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := spec0(t)
			s.Requests = 16
			tc.mut(&s)
			verr := s.Validate()
			_, rerr := Run(s)
			if (verr != nil) != tc.wantErr {
				t.Fatalf("Validate: %v, want error %v", verr, tc.wantErr)
			}
			if (rerr != nil) != (verr != nil) || rerr != nil && rerr.Error() != verr.Error() {
				t.Errorf("Run error %v, Validate error %v", rerr, verr)
			}
		})
	}
}
