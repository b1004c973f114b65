package sweep

import (
	"math"
	"testing"

	"optimus/internal/arch"
	"optimus/internal/model"
	"optimus/internal/serve"
	"optimus/internal/workload"
)

// TestServingTemporalValidation covers the Schedules/Turns/Think axis
// checks.
func TestServingTemporalValidation(t *testing.T) {
	sched := workload.Schedule{{Start: 0, End: 10, Rate: 1}, {Start: 10, End: 20, Rate: 4}}
	check := func(name string, wantErr bool, mutate func(*Spec)) {
		t.Helper()
		s := servingSpec0(t)
		mutate(&s)
		err := s.Validate()
		if wantErr && err == nil {
			t.Errorf("%s should fail validation", name)
		}
		if !wantErr && err != nil {
			t.Errorf("%s should validate: %v", name, err)
		}
	}
	check("schedules axis", false, func(s *Spec) { s.Rates, s.Schedules = nil, []workload.Schedule{sched} })
	check("schedules with rates", true, func(s *Spec) { s.Schedules = []workload.Schedule{sched} })
	check("invalid schedule", true, func(s *Spec) {
		s.Rates, s.Schedules = nil, []workload.Schedule{{{Start: 5, End: 10, Rate: 1}}}
	})
	check("paged turns axis", false, func(s *Spec) {
		s.Policies = []serve.Policy{serve.Paged}
		s.Turns = []int{0, 3}
	})
	check("negative turns", true, func(s *Spec) { s.Turns = []int{-1} })
	check("turns without paged", true, func(s *Spec) { s.Turns = []int{2} })
	check("turns with prefix axis", true, func(s *Spec) {
		s.Policies = []serve.Policy{serve.Paged}
		s.Turns = []int{2}
		s.PrefixTokens = []int{64}
	})
	check("turns over a prefix mix", true, func(s *Spec) {
		s.Policies = []serve.Policy{serve.Paged}
		s.Turns = []int{2}
		s.Mixes = [][]workload.TenantLoad{{{Tenant: "a", Share: 1, PromptTokens: 100, GenTokens: 50,
			PrefixID: "a", PrefixTokens: 40}}}
	})
	check("think with sessions", false, func(s *Spec) {
		s.Policies = []serve.Policy{serve.Paged}
		s.Turns = []int{2}
		s.Think = 5
	})
	check("think without sessions", true, func(s *Spec) { s.Think = 5 })
	check("NaN think", true, func(s *Spec) {
		s.Policies = []serve.Policy{serve.Paged}
		s.Turns = []int{2}
		s.Think = math.NaN()
	})
	check("trace with schedules", true, func(s *Spec) {
		s.Rates = nil
		s.Trace = []workload.TraceEvent{{Arrival: 0,
			Request: workload.Request{Tenant: "a", PromptTokens: 100, GenTokens: 10}}}
		s.Schedules = []workload.Schedule{sched}
	})
	check("trace with turns", true, func(s *Spec) {
		s.Rates = nil
		s.Trace = []workload.TraceEvent{{Arrival: 0,
			Request: workload.Request{Tenant: "a", PromptTokens: 100, GenTokens: 10}}}
		s.Turns = []int{2}
	})
	check("training schedules axis", true, func(s *Spec) {
		s.Workload = Training
		s.Rates, s.BatchCaps, s.ServeRequests = nil, nil, 0
		s.Schedules = []workload.Schedule{sched}
	})
}

// TestServingScheduleAxisEnumeration: schedules enumerate as an arrival
// axis — a constant schedule canonicalizes to the plain-rate candidate and
// deduplicates against an equivalent schedule, while a genuinely piecewise
// schedule keeps its timeline (rate zero), in a copy of its own, under a
// distinct key.
func TestServingScheduleAxisEnumeration(t *testing.T) {
	s := servingSpec0(t)
	s.Systems = s.Systems[:1]
	s.BatchCaps = []int{4}
	s.Rates = nil
	s.Schedules = []workload.Schedule{
		{{Start: 0, End: 60, Rate: 2}},                                // constant → rate 2
		{{Start: 0, End: 30, Rate: 2}, {Start: 30, End: 60, Rate: 2}}, // same constant, split → dedup
		{{Start: 0, End: 10, Rate: 1}, {Start: 10, End: 20, Rate: 4}}, // genuinely piecewise
	}
	pts := Enumerate(s.withDefaults())
	if len(pts) != 2 {
		t.Fatalf("3 schedules should canonicalize to 2 candidates (constant deduped), got %d", len(pts))
	}
	var constant, piecewise *Point
	for i := range pts {
		if len(pts[i].Schedule) == 0 {
			constant = &pts[i]
		} else {
			piecewise = &pts[i]
		}
	}
	if constant == nil || constant.Rate != 2 {
		t.Fatalf("constant schedule should enumerate as the plain rate-2 candidate: %+v", pts)
	}
	if piecewise == nil || piecewise.Rate != 0 || len(piecewise.Schedule) != 2 {
		t.Fatalf("piecewise schedule should keep its timeline with rate 0: %+v", pts)
	}
	if &piecewise.Schedule[0] == &s.Schedules[2][0] {
		t.Fatal("a candidate must own its schedule, not share the spec's")
	}
	if constant.Key() == piecewise.Key() {
		t.Fatal("constant and piecewise candidates must not share a key")
	}
}

// TestServingTurnsAxisEnumeration: the turns axis multiplies paged
// candidates only — non-paged policies canonicalize every depth to the
// single-turn candidate, and depths 0 and 1 collapse together.
func TestServingTurnsAxisEnumeration(t *testing.T) {
	s := servingSpec0(t)
	s.Systems = s.Systems[:1]
	s.Rates = []float64{2}
	s.BatchCaps = []int{4}
	s.Policies = []serve.Policy{serve.ReserveFull, serve.Paged}
	s.Turns = []int{0, 1, 3}
	pts := Enumerate(s.withDefaults())
	// Reserve: one candidate (all depths collapse). Paged: depth {0,1}
	// collapse plus depth 3 — three total.
	counts := map[serve.Policy]int{}
	for _, p := range pts {
		counts[p.Policy]++
		if p.Policy != serve.Paged && p.Turns != 0 {
			t.Fatalf("non-paged candidate kept turns %d", p.Turns)
		}
	}
	if counts[serve.ReserveFull] != 1 || counts[serve.Paged] != 2 {
		t.Fatalf("want 1 reserve + 2 paged candidates, got %v", counts)
	}
}

// TestServingTemporalSweepEndToEnd: a schedule × turns serving sweep runs
// through the serial path, completes, and stamps the temporal fields onto
// its ranked points.
func TestServingTemporalSweepEndToEnd(t *testing.T) {
	s := servingSpec0(t)
	s.Systems = s.Systems[:1]
	s.Rates = nil
	s.Schedules = []workload.Schedule{{{Start: 0, End: 5, Rate: 0.5}, {Start: 5, End: 10, Rate: 4}}}
	s.BatchCaps = []int{4}
	s.Policies = []serve.Policy{serve.Paged}
	s.Turns = []int{3}
	s.Think = 2
	s.ServeRequests = 24
	res, err := Serial(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("want 1 ranked row, got %d", len(res.Rows))
	}
	p := res.Rows[0].Point
	if len(p.Schedule) != 2 || p.Turns != 3 || p.Think != 2 {
		t.Fatalf("temporal fields not stamped: %+v", p)
	}
	if res.Rows[0].Metrics.PrefixHits == 0 {
		t.Error("three-turn cohort candidates should hit the prefix cache")
	}
}

// TestServingTurnsPageTokensMatchRun: a session candidate's page size
// clamps against the context its longest turn reaches, exactly as the
// simulator clamps it. Turn 3 of a 100+100 session carries a 500-token
// prompt, so a 300-token page is not clamped to the 200-token turn-less
// context: the memo key records the page size serve.Run simulates.
func TestServingTurnsPageTokensMatchRun(t *testing.T) {
	cfg, sys := cell0(t)
	spec := Spec{
		Workload: Serving, Models: []model.Config{cfg}, Systems: []*arch.System{sys},
		Seqs: []int{100}, GenTokens: []int{100}, Turns: []int{3},
		Policies: []serve.Policy{serve.Paged}, ServePageTokens: 300, ServeRequests: 16,
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	pts := Enumerate(spec)
	if len(pts) != 1 {
		t.Fatalf("expected one candidate, got %d", len(pts))
	}
	p := pts[0]
	raw := servingSpec(&p)
	raw.PageTokens = spec.ServePageTokens
	res, err := serve.Run(raw)
	if err != nil {
		t.Fatal(err)
	}
	if p.PageTokens != res.PageTokens {
		t.Errorf("candidate enumerates %d-token pages, serve.Run simulates %d", p.PageTokens, res.PageTokens)
	}
}
