package workload

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestSeededSourceMatchesFresh: a recycled generator, part of whose
// stream was drawn under another seed, draws exactly a fresh generator's
// stream once seeded, for each kind of draw the workload makes.
func TestSeededSourceMatchesFresh(t *testing.T) {
	draws := []func(*rand.Rand) float64{(*rand.Rand).ExpFloat64, (*rand.Rand).Float64, (*rand.Rand).NormFloat64}
	salted := uint64(42) ^ lengthSeedSalt
	for _, seed := range []int64{0, 1, 7, -3, 42 ^ shapeSeedSalt, int64(salted)} {
		for _, used := range []int{0, 1, 1000} {
			rng := seeded(seed + 1)
			for range used {
				rng.NormFloat64()
			}
			// What seeded does to the generator the pool hands back.
			rng.Seed(seed)
			fresh := rand.New(rand.NewSource(seed))
			for i := range 3000 {
				draw := draws[i%len(draws)]
				if got, want := draw(rng), draw(fresh); got != want {
					t.Fatalf("seed %d, %d draws used: draw %d is %v, a fresh source gives %v", seed, used, i, got, want)
				}
			}
			sources.Put(rng)
		}
	}
}

func TestAppendPoissonArrivalsDeterministic(t *testing.T) {
	a := appendPoissonArrivals(nil, 2, 64, 7)
	b := appendPoissonArrivals(nil, 2, 64, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal seeds must be byte-identical")
	}
	c := appendPoissonArrivals(nil, 2, 64, 8)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds should differ")
	}
	if !sort.Float64sAreSorted(a) {
		t.Fatal("arrivals must be non-decreasing")
	}
	// Appending extends the destination in place.
	ext := appendPoissonArrivals(a[:len(a):len(a)], 2, 4, 9)
	if len(ext) != 68 || !reflect.DeepEqual(ext[:64], a) {
		t.Fatal("append should extend dst without disturbing the prefix")
	}
}

// TestAppendPoissonArrivalsPanics: a zero, negative, NaN or infinite rate
// would silently yield Inf/NaN timestamps that stall every downstream
// event loop, and a negative count has no meaning — both violate the
// documented contract and panic; valid inputs yield positive, finite,
// non-decreasing timestamps.
func TestAppendPoissonArrivalsPanics(t *testing.T) {
	for _, tc := range []struct {
		name      string
		rate      float64
		n         int
		wantPanic bool
	}{
		{"valid", 2.5, 8, false},
		{"zero-n", 1, 0, false},
		{"zero-rate", 0, 8, true},
		{"negative-rate", -1, 8, true},
		{"nan-rate", math.NaN(), 8, true},
		{"inf-rate", math.Inf(1), 8, true},
		{"negative-n", 1, -1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); (r != nil) != tc.wantPanic {
					t.Errorf("panic = %v, wantPanic %v", r, tc.wantPanic)
				}
			}()
			times := appendPoissonArrivals(nil, tc.rate, tc.n, 1)
			if len(times) != tc.n {
				t.Errorf("got %d timestamps, want %d", len(times), tc.n)
			}
			for i, ts := range times {
				if !(ts > 0) || math.IsInf(ts, 0) {
					t.Errorf("timestamp %d = %g, want positive finite", i, ts)
				}
				if i > 0 && ts < times[i-1] {
					t.Errorf("timestamps must be non-decreasing, got %g after %g", ts, times[i-1])
				}
			}
		})
	}
}

func TestAppendScheduleArrivalsPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("invalid schedule should panic")
			}
		}()
		appendScheduleArrivals(nil, Schedule{{1, 2, 5}}, 4, 1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative count should panic")
			}
		}()
		appendScheduleArrivals(nil, Schedule{{0, 10, 5}}, -1, 1)
	}()
}

// A burst segment must concentrate arrivals: the same unit-exponential
// stream spent against a 10x rate advances time 10x slower.
func TestAppendScheduleArrivalsShapesRate(t *testing.T) {
	sched := Schedule{{0, 100, 0.5}, {100, 200, 20}}
	got := appendScheduleArrivals(nil, sched, 400, 3)
	if !sort.Float64sAreSorted(got) {
		t.Fatal("arrivals must be non-decreasing")
	}
	early, burst := 0, 0
	for _, ts := range got {
		switch {
		case ts < 100:
			early++
		case ts < 200:
			burst++
		}
	}
	// ~50 arrivals fit the first segment (0.5/s over 100 s), ~2000 would fit
	// the burst; with 400 requests nearly all land in the burst window.
	if early > 80 || burst < 300 {
		t.Fatalf("burst did not shape arrivals: %d early, %d burst of %d", early, burst, len(got))
	}
}

// Zero-rate interior segments absorb no probability mass: no arrival may
// land strictly inside a quiet period.
func TestAppendScheduleArrivalsJumpsQuietPeriods(t *testing.T) {
	sched := Schedule{{0, 10, 5}, {10, 20, 0}, {20, 30, 5}}
	got := appendScheduleArrivals(nil, sched, 200, 11)
	for _, ts := range got {
		if ts > 10 && ts < 20 {
			t.Fatalf("arrival %g inside the zero-rate window", ts)
		}
	}
}

// The final segment's rate extends indefinitely: any request count can be
// generated even when the schedule's span is short.
func TestAppendScheduleArrivalsExtendsFinalRate(t *testing.T) {
	sched := Schedule{{0, 1, 100}, {1, 2, 0.1}}
	got := appendScheduleArrivals(nil, sched, 500, 5)
	if len(got) != 500 {
		t.Fatalf("want 500 arrivals, got %d", len(got))
	}
	if last := got[len(got)-1]; last <= 2 {
		t.Fatalf("tail should spill past the schedule span, last arrival %g", last)
	}
}

func TestAppendMixShapesSingleTenantFastPath(t *testing.T) {
	mix := []TenantLoad{{Tenant: "chat", Share: 1, PromptTokens: 100, GenTokens: 50}}
	got := AppendMixShapes(nil, mix, 8, 42)
	for _, r := range got {
		if r.Tenant != "chat" || r.PromptTokens != 100 || r.GenTokens != 50 {
			t.Fatalf("unexpected shape %+v", r)
		}
	}
}

func TestAppendMixShapesWeighted(t *testing.T) {
	mix := []TenantLoad{
		{Tenant: "a", Share: 9, PromptTokens: 10, GenTokens: 10},
		{Tenant: "b", Share: 1, PromptTokens: 20, GenTokens: 20},
	}
	got := AppendMixShapes(nil, mix, 1000, 1)
	counts := map[string]int{}
	for _, r := range got {
		counts[r.Tenant]++
	}
	if counts["a"] < 800 || counts["b"] < 50 {
		t.Fatalf("shares not respected: %v", counts)
	}
	again := AppendMixShapes(nil, mix, 1000, 1)
	if !reflect.DeepEqual(got, again) {
		t.Fatal("equal seeds must assign identical tenants")
	}
}

// Zero-sigma mixes must not consume length randomness: adding a sigma to
// one tenant must not perturb another tenant's constant lengths, and the
// tenant-assignment sequence must be unchanged.
func TestLengthDrawsDecorrelated(t *testing.T) {
	flat := []TenantLoad{
		{Tenant: "a", Share: 1, PromptTokens: 100, GenTokens: 50},
		{Tenant: "b", Share: 1, PromptTokens: 200, GenTokens: 80},
	}
	heavy := []TenantLoad{
		{Tenant: "a", Share: 1, PromptTokens: 100, GenTokens: 50, PromptSigma: 1.5},
		{Tenant: "b", Share: 1, PromptTokens: 200, GenTokens: 80},
	}
	a := AppendMixShapes(nil, flat, 256, 3)
	b := AppendMixShapes(nil, heavy, 256, 3)
	varied := false
	for i := range a {
		if a[i].Tenant != b[i].Tenant {
			t.Fatal("sigma draws must not perturb tenant assignment")
		}
		if b[i].Tenant == "b" && (b[i].PromptTokens != 200 || b[i].GenTokens != 80) {
			t.Fatalf("zero-sigma tenant's lengths changed: %+v", b[i])
		}
		if b[i].Tenant == "a" && b[i].GenTokens != 50 {
			t.Fatalf("zero-sigma field changed: %+v", b[i])
		}
		if b[i].Tenant == "a" && b[i].PromptTokens != 100 {
			varied = true
		}
	}
	if !varied {
		t.Fatal("sigma 1.5 should vary at least one prompt length over 256 draws")
	}
}

// Heavy-tailed draws clamp to [lo, HeavyTailCap*median].
func TestLengthDrawBounds(t *testing.T) {
	mix := []TenantLoad{{
		Tenant: "a", Share: 1, PromptTokens: 50, GenTokens: 20,
		PromptSigma: 3, GenSigma: 3,
		PrefixID: "a", PrefixTokens: 30,
	}}
	got := AppendMixShapes(nil, mix, 2048, 9)
	pmin, pmax := mix[0].PromptBounds()
	gmin, gmax := mix[0].GenBounds()
	if pmin != 31 || pmax != HeavyTailCap*50 || gmin != 1 || gmax != HeavyTailCap*20 {
		t.Fatalf("bounds: prompt [%d,%d] gen [%d,%d]", pmin, pmax, gmin, gmax)
	}
	hitLo, hitHi := false, false
	for _, r := range got {
		if r.PromptTokens < pmin || r.PromptTokens > pmax {
			t.Fatalf("prompt %d outside [%d, %d]", r.PromptTokens, pmin, pmax)
		}
		if r.GenTokens < gmin || r.GenTokens > gmax {
			t.Fatalf("gen %d outside [%d, %d]", r.GenTokens, gmin, gmax)
		}
		hitLo = hitLo || r.PromptTokens == pmin
		hitHi = hitHi || r.PromptTokens == pmax
	}
	// Sigma 3 is wild enough that both clamps trigger across 2048 draws.
	if !hitLo || !hitHi {
		t.Fatalf("clamps never triggered (lo %v, hi %v)", hitLo, hitHi)
	}
}

func TestGenerateDegenerateMatchesPoisson(t *testing.T) {
	mix := []TenantLoad{{Tenant: "chat", Share: 1, PromptTokens: 100, GenTokens: 50}}
	wantT := appendPoissonArrivals(nil, 2, 128, 7)
	wantS := AppendMixShapes(nil, mix, 128, 7)
	for _, p := range []ArrivalProcess{
		{Rate: 2, Seed: 7},
		{Schedule: Schedule{{0, 60, 2}}, Seed: 7},
		{Schedule: Schedule{{0, 30, 2}, {30, 60, 2}}, Seed: 7},
		{Rate: 2, Turns: 1, Seed: 7},
	} {
		gotT, gotS := p.Generate(mix, 128, nil, nil)
		if !reflect.DeepEqual(gotT, wantT) || !reflect.DeepEqual(gotS, wantS) {
			t.Errorf("process %+v not byte-identical to the plain Poisson stream", p)
		}
	}
}

func TestGenerateScheduleDiffersFromConstant(t *testing.T) {
	mix := []TenantLoad{{Tenant: "chat", Share: 1, PromptTokens: 100, GenTokens: 50}}
	p := ArrivalProcess{Schedule: Schedule{{0, 10, 1}, {10, 20, 8}}, Seed: 7}
	gotT, _ := p.Generate(mix, 64, nil, nil)
	flatT, _ := ArrivalProcess{Rate: 1, Seed: 7}.Generate(mix, 64, nil, nil)
	if reflect.DeepEqual(gotT, flatT) {
		t.Fatal("a genuinely piecewise schedule should reshape arrivals")
	}
}

func TestGenerateSessionCohorts(t *testing.T) {
	mix := []TenantLoad{{Tenant: "chat", Share: 1, PromptTokens: 100, GenTokens: 50}}
	p := ArrivalProcess{Rate: 2, Turns: 3, Think: 5, Seed: 7}
	gotT, gotS := p.Generate(mix, 90, nil, nil)
	if len(gotT) != 90 || len(gotS) != 90 {
		t.Fatalf("cohort stream must still carry n requests, got %d/%d", len(gotT), len(gotS))
	}
	if !sort.Float64sAreSorted(gotT) {
		t.Fatal("merged cohort arrivals must be sorted")
	}
	perSession := map[int][]Request{}
	for _, r := range gotS {
		if r.Session < 1 || r.Turn < 1 || r.Turn > 3 {
			t.Fatalf("bad session markers: %+v", r)
		}
		perSession[r.Session] = append(perSession[r.Session], r)
	}
	for s, reqs := range perSession {
		sort.Slice(reqs, func(a, b int) bool { return reqs[a].Turn < reqs[b].Turn })
		for i, r := range reqs {
			k := r.Turn
			wantCtx := (k - 1) * 150
			if r.PromptTokens != wantCtx+100 || r.PrefixTokens != wantCtx || r.GenTokens != 50 {
				t.Fatalf("session %d turn %d shape %+v", s, k, r)
			}
			if k == 1 && r.PrefixID != "" {
				t.Fatalf("turn 1 must carry no prefix id: %+v", r)
			}
			if k > 1 && r.PrefixID != sessionPrefixID(s) {
				t.Fatalf("turn %d prefix id %q, want %q", k, r.PrefixID, sessionPrefixID(s))
			}
			if i > 0 && r.Turn != reqs[i-1].Turn+1 {
				t.Fatalf("session %d turns not consecutive after truncation sort: %v", s, reqs)
			}
		}
	}
	// Think time spaces a session's turns exactly.
	byTurn := map[[2]int]float64{}
	for i, r := range gotS {
		byTurn[[2]int{r.Session, r.Turn}] = gotT[i]
	}
	for key, ts := range byTurn {
		if key[1] > 1 {
			prev, ok := byTurn[[2]int{key[0], key[1] - 1}]
			if ok && math.Abs(ts-prev-5) > 1e-9 {
				t.Fatalf("session %d turn %d arrives %g after its predecessor, want 5", key[0], key[1], ts-prev)
			}
		}
	}
	// The trace the cohorts produce passes session-aware validation.
	trace := make([]TraceEvent, len(gotS))
	for i := range gotS {
		trace[i] = TraceEvent{Arrival: gotT[i], Request: gotS[i]}
	}
	if err := ValidateTrace(trace); err != nil {
		t.Fatalf("generated cohort trace must validate: %v", err)
	}
}

// Cohort truncation trims the stream to exactly n requests even when
// sessions*turns overshoots.
func TestGenerateSessionTruncation(t *testing.T) {
	mix := []TenantLoad{{Tenant: "chat", Share: 1, PromptTokens: 10, GenTokens: 5}}
	for _, n := range []int{1, 7, 29} {
		gotT, gotS := ArrivalProcess{Rate: 4, Turns: 4, Seed: 1}.Generate(mix, n, nil, nil)
		if len(gotT) != n || len(gotS) != n {
			t.Fatalf("n=%d: got %d/%d requests", n, len(gotT), len(gotS))
		}
	}
}

// With zero think time a session's turns arrive coincident; the merge
// must keep them in turn order.
func TestGenerateZeroThinkKeepsTurnOrder(t *testing.T) {
	mix := []TenantLoad{{Tenant: "chat", Share: 1, PromptTokens: 10, GenTokens: 5}}
	_, gotS := ArrivalProcess{Rate: 2, Turns: 3, Seed: 3}.Generate(mix, 30, nil, nil)
	last := map[int]int{}
	for _, r := range gotS {
		if r.Turn != last[r.Session]+1 {
			t.Fatalf("session %d turn %d arrived after turn %d", r.Session, r.Turn, last[r.Session])
		}
		last[r.Session] = r.Turn
	}
}

// TestExpandSessionsMatchesStableSort: the merged session expansion is
// bit for bit the stream the sort-based expansion it replaced produced
// (sortedSessions), across rates and schedules, turn counts up to and
// past the request count, zero think (coincident turns) and positive
// think, heavy-tailed and multi-tenant mixes, and buffers that already
// hold a prefix, which Generate keeps and appends after.
func TestExpandSessionsMatchesStableSort(t *testing.T) {
	mixes := map[string][]TenantLoad{
		"one":   {{Tenant: "chat", Share: 1, PromptTokens: 100, GenTokens: 50}},
		"heavy": {{Tenant: "chat", Share: 1, PromptTokens: 100, GenTokens: 50, PromptSigma: 1.1, GenSigma: 0.4}},
		"tenants": {
			{Tenant: "a", Share: 1, PromptTokens: 30, GenTokens: 10},
			{Tenant: "b", Share: 3, PromptTokens: 200, GenTokens: 20, GenSigma: 0.7},
			{Tenant: "c", Share: 0.5, PromptTokens: 8, GenTokens: 300, PromptSigma: 0.3},
		},
	}
	arrivals := map[string]ArrivalProcess{
		"slow":     {Rate: 0.5},
		"fast":     {Rate: 40},
		"bursty":   {Schedule: Schedule{{Start: 0, End: 30, Rate: 1}, {Start: 30, End: 45, Rate: 16}, {Start: 45, End: 90, Rate: 2}}},
		"quiet":    {Schedule: Schedule{{Start: 0, End: 5, Rate: 3}, {Start: 5, End: 50, Rate: 0}, {Start: 50, End: 60, Rate: 9}}},
		"constant": {Schedule: Schedule{{Start: 0, End: 5, Rate: 2}, {Start: 5, End: 9, Rate: 2}}},
	}
	for mixName, mix := range mixes {
		for procName, proc := range arrivals {
			for _, n := range []int{0, 1, 7, 64, 129} {
				turnCounts := []int{2, 3, 4, 5, 6, 7, 8, 9, 10, n, n + 3, 1 << 30}
				for _, turns := range turnCounts {
					if turns < 2 {
						continue
					}
					for _, think := range []float64{0, 0.25, 5} {
						p := proc
						p.Turns, p.Think, p.Seed = turns, think, int64(n*31+turns)
						name := fmt.Sprintf("%s/%s/n=%d/turns=%d/think=%g", mixName, procName, n, turns, think)
						wantT, wantS := sortedSessions(p, mix, n)
						gotT, gotS := p.Generate(mix, n, nil, nil)
						assertSameStream(t, name, gotT, gotS, wantT, wantS)

						preT := []float64{-3, -2}
						preS := []Request{{Tenant: "x", PromptTokens: 1, GenTokens: 1}}
						gotT, gotS = p.Generate(mix, n, slices.Clone(preT), slices.Clone(preS))
						if !slices.Equal(gotT[:len(preT)], preT) || !slices.Equal(gotS[:len(preS)], preS) {
							t.Fatalf("%s: Generate overwrote the buffers' prefix", name)
						}
						assertSameStream(t, name+"/prefixed", gotT[len(preT):], gotS[len(preS):], wantT, wantS)
					}
				}
			}
		}
	}

	// Integer bases and think make ties across sessions as well as
	// within them, so the (session, turn) tie break decides the order.
	base := make([]float64, 40)
	sessions := make([]Request, len(base))
	for s := range base {
		base[s] = float64(s / 3)
		sessions[s] = Request{Tenant: "t", PromptTokens: 10 + s, GenTokens: 1 + s%4}
	}
	for _, turns := range []int{2, 3, 5, 40} {
		for _, think := range []float64{0, 1, 2} {
			n := len(base) * min(turns, 3)
			wantT, wantS := sortedExpansion(base, sessions, n, turns, think)
			gotT, gotS := expandSessions(nil, nil, base, slices.Clone(sessions), n, turns, think)
			assertSameStream(t, fmt.Sprintf("ties/turns=%d/think=%g", turns, think), gotT, gotS, wantT, wantS)
		}
	}
}

// assertSameStream fails unless the two streams agree bit for bit.
func assertSameStream(t *testing.T, name string, gotT []float64, gotS []Request, wantT []float64, wantS []Request) {
	t.Helper()
	if len(gotT) != len(wantT) || len(gotS) != len(wantS) {
		t.Fatalf("%s: %d arrivals and %d shapes, want %d and %d", name, len(gotT), len(gotS), len(wantT), len(wantS))
	}
	for i := range wantT {
		if math.Float64bits(gotT[i]) != math.Float64bits(wantT[i]) || gotS[i] != wantS[i] {
			t.Fatalf("%s: request %d is %v %+v, want %v %+v", name, i, gotT[i], gotS[i], wantT[i], wantS[i])
		}
	}
}

// sortedSessions is the session-cohort Generate as it was before the
// merge: per-session base arrivals and shapes drawn into fresh slices
// (lengths applied in a second pass over the shapes), then expanded by
// a stable sort.
func sortedSessions(p ArrivalProcess, mix []TenantLoad, n int) ([]float64, []Request) {
	count := (n + p.Turns - 1) / p.Turns
	sched, rate := CanonicalSchedule(p.Schedule, p.Rate)
	var base []float64
	if sched == nil {
		base = appendPoissonArrivals(nil, rate, count, p.Seed)
	} else {
		base = appendScheduleArrivals(nil, sched, count, p.Seed)
	}
	shapes := make([]Request, 0, count)
	if len(mix) == 1 {
		for range count {
			shapes = append(shapes, mix[0].Shape())
		}
	} else {
		total := 0.0
		for _, t := range mix {
			total += t.Share
		}
		rng := rand.New(rand.NewSource(p.Seed ^ shapeSeedSalt))
		for range count {
			x := rng.Float64() * total
			k := 0
			for k < len(mix)-1 {
				x -= mix[k].Share
				if x < 0 {
					break
				}
				k++
			}
			shapes = append(shapes, mix[k].Shape())
		}
	}
	byTenant := make(map[string]TenantLoad, len(mix))
	for _, t := range mix {
		byTenant[t.Tenant] = t
	}
	rng := rand.New(rand.NewSource(int64(uint64(p.Seed) ^ lengthSeedSalt)))
	for i := range shapes {
		t := byTenant[shapes[i].Tenant]
		if t.PromptSigma != 0 {
			lo, hi := t.PromptBounds()
			shapes[i].PromptTokens = lognormalDraw(rng, t.PromptTokens, t.PromptSigma, lo, hi)
		}
		if t.GenSigma != 0 {
			lo, hi := t.GenBounds()
			shapes[i].GenTokens = lognormalDraw(rng, t.GenTokens, t.GenSigma, lo, hi)
		}
	}
	return sortedExpansion(base, shapes, n, p.Turns, p.Think)
}

// sortedExpansion is the sort-based session expansion: every turn of
// every session (up to n per session), stably sorted by arrival, then
// truncated to n.
func sortedExpansion(arrivals []float64, shapes []Request, n, turns int, think float64) ([]float64, []Request) {
	turns = min(turns, n)
	var outT []float64
	var outS []Request
	for s := range arrivals {
		sh := shapes[s]
		p, g := sh.PromptTokens, sh.GenTokens
		for k := 1; k <= turns; k++ {
			ctx := (k - 1) * (p + g)
			r := Request{Tenant: sh.Tenant, PromptTokens: ctx + p, GenTokens: g, PrefixTokens: ctx, Session: s + 1, Turn: k}
			if k > 1 {
				r.PrefixID = sessionPrefixID(s + 1)
			}
			outT = append(outT, arrivals[s]+float64(float64(k-1)*think))
			outS = append(outS, r)
		}
	}
	idx := make([]int, len(outT))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return outT[idx[a]] < outT[idx[b]] })
	mergedT := make([]float64, 0, n)
	mergedS := make([]Request, 0, n)
	for _, i := range idx[:n] {
		mergedT = append(mergedT, outT[i])
		mergedS = append(mergedS, outS[i])
	}
	return mergedT, mergedS
}

// sessionPrefixID is session s's prefix id built alone, the reference
// for the ids expandSessions cuts from one string.
func sessionPrefixID(session int) string {
	return "~s" + strconv.Itoa(session)
}

// TestSessionPrefixIDs: the one string holds every session's id in order,
// each cut at the next '~', across digit-count boundaries, and is built
// with exactly its own length.
func TestSessionPrefixIDs(t *testing.T) {
	for _, n := range []int{0, 1, 9, 10, 11, 99, 100, 101, 1000, 1234} {
		ids := sessionPrefixIDs(n)
		var want strings.Builder
		for s := 1; s <= n; s++ {
			want.WriteString(sessionPrefixID(s))
		}
		if ids != want.String() {
			t.Fatalf("n=%d: ids %q, want %q", n, ids, want.String())
		}
		if got := testing.AllocsPerRun(5, func() { sessionPrefixIDs(n) }); n > 0 && got != 1 {
			t.Errorf("n=%d: %v allocations, want 1", n, got)
		}
	}
}
