package workload

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// openSpec is a small valid generated workload.
func openSpec() Spec {
	return Spec{PromptTokens: 200, GenTokens: 100, Rate: 2, Requests: 16, Seed: 3}
}

// traceSpec is a small valid replay.
func traceSpec() Spec {
	return Spec{Trace: []TraceEvent{
		{Arrival: 0, Request: Request{Tenant: "a", PromptTokens: 120, GenTokens: 20}},
		{Arrival: 0.5, Request: Request{Tenant: "b", PromptTokens: 80, GenTokens: 30}},
	}}
}

// TestSpecValidate walks every workload rule through Spec.Validate: each
// rejection names the offending field, and each accepted corner stays
// accepted.
func TestSpecValidate(t *testing.T) {
	sched := Schedule{{Start: 0, End: 10, Rate: 1}, {Start: 10, End: 20, Rate: 4}}
	mix := []TenantLoad{{Tenant: "a", Share: 1, PromptTokens: 100, GenTokens: 50}}
	prefixMix := []TenantLoad{{Tenant: "a", Share: 1, PromptTokens: 100, GenTokens: 50, PrefixID: "a", PrefixTokens: 40}}
	for _, tc := range []struct {
		name    string
		mut     func(*Spec)
		wantErr string // "" accepts
	}{
		{"spec-wide", func(s *Spec) {}, ""},
		{"mix", func(s *Spec) { s.PromptTokens, s.GenTokens, s.Mix = 0, 0, mix }, ""},
		{"trace", func(s *Spec) { *s = traceSpec() }, ""},
		{"trace with its own count", func(s *Spec) { *s = traceSpec(); s.Requests = 2 }, ""},
		{"schedule", func(s *Spec) { s.Rate, s.Schedule = 0, sched }, ""},
		{"sessions", func(s *Spec) { s.Turns, s.Think = 3, 2 }, ""},
		{"closed loop", func(s *Spec) { s.Rate, s.Closed, s.Clients = 0, true, 4 }, ""},
		{"default count", func(s *Spec) { s.Requests = 0 }, ""},

		{"empty trace", func(s *Spec) { s.Trace = []TraceEvent{} }, "empty trace"},
		{"mix and trace", func(s *Spec) { *s = traceSpec(); s.Mix = mix }, "Mix and Trace"},
		{"shape with mix", func(s *Spec) { s.Mix = mix }, "PromptTokens"},
		{"prefix with trace", func(s *Spec) { *s = traceSpec(); s.PrefixTokens = 8 }, "PrefixTokens"},
		{"rate with trace", func(s *Spec) { *s = traceSpec(); s.Rate = 1 }, "leave Arrival/Rate/Clients/Seed/Schedule/Turns/Think unset"},
		{"closed trace", func(s *Spec) { *s = traceSpec(); s.Closed = true }, "Arrival"},
		{"count with trace", func(s *Spec) { *s = traceSpec(); s.Requests = 3 }, "leave it zero"},
		{"clients open-loop", func(s *Spec) { s.Clients = 4 }, "Clients"},
		{"closed with rate", func(s *Spec) { s.Closed, s.Clients = true, 4 }, "Rate"},
		{"closed with turns", func(s *Spec) { s.Rate, s.Closed, s.Clients, s.Turns = 0, true, 4, 2 }, "Turns"},
		{"schedule with rate", func(s *Spec) { s.Schedule = sched }, "Schedule"},
		{"sessions with prefix", func(s *Spec) { s.Turns, s.PrefixTokens = 3, 50 }, "PrefixTokens"},
		{"sessions with prefix mix", func(s *Spec) { s.PromptTokens, s.GenTokens, s.Mix, s.Turns = 0, 0, prefixMix, 3 }, "Mix"},
		{"think without sessions", func(s *Spec) { s.Turns, s.Think = 1, 2 }, "Think"},
		{"negative count", func(s *Spec) { s.Requests = -1 }, "negative request count"},
		{"negative turns", func(s *Spec) { s.Turns = -2 }, "negative session turns"},
		{"NaN think", func(s *Spec) { s.Turns, s.Think = 3, math.NaN() }, "think time"},
		{"no clients", func(s *Spec) { s.Rate, s.Closed = 0, true }, "positive Clients"},
		{"zero rate", func(s *Spec) { s.Rate = 0 }, "positive finite rate"},
		{"infinite rate", func(s *Spec) { s.Rate = math.Inf(1) }, "positive finite rate"},
		{"bad schedule", func(s *Spec) { s.Rate, s.Schedule = 0, Schedule{{Start: 5, End: 1, Rate: 1}} }, "schedule"},
		{"empty prompt", func(s *Spec) { s.PromptTokens = 0 }, "positive prompt length"},
		{"bad trace", func(s *Spec) { *s = traceSpec(); s.Trace[1].Arrival = -1 }, "non-decreasing"},
		{"oversized session", func(s *Spec) { s.Turns = MaxContextTokens }, "token limit"},
		{"oversized trace", func(s *Spec) { *s = traceSpec(); s.Trace[0].PromptTokens = math.MaxInt / 2 }, "token limit"},
		{"oversized heavy tail", func(s *Spec) {
			s.PromptTokens, s.GenTokens = 0, 0
			s.Mix = []TenantLoad{{Tenant: "a", Share: 1, PromptTokens: MaxContextTokens / 4, GenTokens: 1, PromptSigma: 1}}
		}, "token limit"},
	} {
		s := openSpec()
		tc.mut(&s)
		err := s.Validate()
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: got %v, want an error naming %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestCheckDoesNotAllocate: validation runs once per simulated run, so
// the rule walk must not allocate on an accepted spec.
func TestCheckDoesNotAllocate(t *testing.T) {
	s := Spec{PromptTokens: 200, GenTokens: 200, Schedule: Schedule{{Start: 0, End: 1, Rate: 1}},
		Turns: 3, Think: 1, Requests: 64, Seed: 1}
	if n := testing.AllocsPerRun(100, func() {
		if err := Check(s.SetFields(), Field.String); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Check allocates %v times per call", n)
	}
}

// TestStream: a replay streams the trace verbatim, a closed loop draws
// shapes only, and an open loop is exactly the ArrivalProcess draw over
// the spec-wide shape's one-entry mix.
func TestStream(t *testing.T) {
	tr := traceSpec().WithDefaults()
	arrivals, shapes := tr.Stream(nil, nil)
	if len(arrivals) != 2 || arrivals[1] != 0.5 || shapes[1] != tr.Trace[1].Request {
		t.Errorf("trace stream %v %v does not replay the trace", arrivals, shapes)
	}

	closed := Spec{PromptTokens: 50, GenTokens: 10, Closed: true, Clients: 2}.WithDefaults()
	arrivals, shapes = closed.Stream(nil, nil)
	if len(arrivals) != 0 || len(shapes) != DefaultRequests {
		t.Errorf("closed stream: %d arrivals and %d shapes, want 0 and %d", len(arrivals), len(shapes), DefaultRequests)
	}

	open := openSpec()
	open.Turns, open.Think = 3, 1
	d := open.WithDefaults()
	arrivals, shapes = d.Stream(nil, nil)
	proc := ArrivalProcess{Rate: open.Rate, Turns: 3, Think: 1, Seed: open.Seed}
	var one [1]TenantLoad
	wantT, wantS := proc.Generate(d.mix(&one), d.Requests, nil, nil)
	if !reflect.DeepEqual(arrivals, wantT) || !reflect.DeepEqual(shapes, wantS) {
		t.Error("open-loop stream differs from ArrivalProcess.Generate")
	}
}

// TestDrawKeepsOneShape: Draw appends Stream's arrival times bit for bit
// and, for a uniform workload (no trace, at most one turn, one mix entry
// with zero sigmas), the one shape every Stream entry has; any other
// workload's Draw is its Stream.
func TestDrawKeepsOneShape(t *testing.T) {
	sched := Schedule{{Start: 0, End: 5, Rate: 1}, {Start: 5, End: 10, Rate: 6}}
	for _, tc := range []struct {
		name    string
		uniform bool
		mut     func(*Spec)
	}{
		{"poisson", true, func(s *Spec) {}},
		{"schedule", true, func(s *Spec) { s.Rate, s.Schedule = 0, sched }},
		{"closed", true, func(s *Spec) { s.Rate, s.Closed, s.Clients = 0, true, 4 }},
		{"spec-wide prefix", true, func(s *Spec) { s.PrefixTokens = 64 }},
		{"one turn", true, func(s *Spec) { s.Turns = 1 }},
		{"one-entry mix", true, func(s *Spec) {
			s.PromptTokens, s.GenTokens = 0, 0
			s.Mix = []TenantLoad{{Tenant: "a", Share: 1, PromptTokens: 90, GenTokens: 30, PrefixID: "p", PrefixTokens: 16}}
		}},
		{"two tenants", false, func(s *Spec) {
			s.PromptTokens, s.GenTokens = 0, 0
			s.Mix = []TenantLoad{{Tenant: "a", Share: 1, PromptTokens: 90, GenTokens: 30}, {Tenant: "b", Share: 1, PromptTokens: 40, GenTokens: 60}}
		}},
		{"sigma", false, func(s *Spec) {
			s.PromptTokens, s.GenTokens = 0, 0
			s.Mix = []TenantLoad{{Tenant: "a", Share: 1, PromptTokens: 90, GenTokens: 30, GenSigma: 0.5}}
		}},
		{"sessions", false, func(s *Spec) { s.Turns, s.Think = 3, 1 }},
		{"trace", false, func(s *Spec) { *s = traceSpec() }},
	} {
		s := openSpec()
		tc.mut(&s)
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		d := s.WithDefaults()
		wantT, wantS := d.Stream(nil, nil)
		pre := Request{Tenant: "x", PromptTokens: 1, GenTokens: 1}
		gotT, gotS := d.Draw([]float64{-1}, []Request{pre})
		if gotT[0] != -1 || gotS[0] != pre || !slices.Equal(gotT[1:], wantT) {
			t.Errorf("%s: Draw's arrival times are not Stream's, appended", tc.name)
		}
		gotS = gotS[1:]
		switch {
		case !tc.uniform:
			if !slices.Equal(gotS, wantS) {
				t.Errorf("%s: Draw's shapes are not Stream's", tc.name)
			}
		case len(gotS) != 1:
			t.Errorf("%s: a uniform draw of %d requests holds %d shapes, want 1", tc.name, d.Requests, len(gotS))
		default:
			for i, sh := range wantS {
				if sh != gotS[0] {
					t.Fatalf("%s: Stream's shape %d %+v is not the drawn one %+v", tc.name, i, sh, gotS[0])
				}
			}
		}
	}
}

// TestGenerateSessionTurnCap: a session deeper than the request count is
// built only as deep as the truncation keeps, which changes nothing —
// and a billion-turn session over four requests stays cheap.
func TestGenerateSessionTurnCap(t *testing.T) {
	mix := []TenantLoad{{Tenant: "a", Share: 1, PromptTokens: 30, GenTokens: 10}}
	for _, think := range []float64{0, 2} {
		wantT, wantS := ArrivalProcess{Rate: 1, Turns: 4, Think: think, Seed: 5}.Generate(mix, 4, nil, nil)
		gotT, gotS := ArrivalProcess{Rate: 1, Turns: 1 << 30, Think: think, Seed: 5}.Generate(mix, 4, nil, nil)
		if !reflect.DeepEqual(gotT, wantT) || !reflect.DeepEqual(gotS, wantS) {
			t.Errorf("think %g: a deep session's first turns differ from a four-turn one's", think)
		}
	}
}

// FuzzWorkloadSpec: for arbitrary field combinations Validate never
// panics, and whenever it accepts a spec the stream carries exactly the
// defaulted Requests (a replay's length), arrivals never decrease,
// drawing into buffers that already hold requests keeps them and appends
// the same stream, and every shape lies inside the bounds of the spec's
// Extremes.
func FuzzWorkloadSpec(f *testing.F) {
	// prompt, gen, prefix, shape (kind in the low bits; 0x80 keeps the
	// spec-wide fields beside a mix or trace), rate, sched, turns, think,
	// requests, seed, closed, clients
	f.Add(200, 100, 0, uint8(0), 2.0, uint8(0), 0, 0.0, 16, int64(1), false, 0)  // spec-wide
	f.Add(200, 100, 40, uint8(1), 2.0, uint8(0), 0, 0.0, 16, int64(2), false, 0) // prefixed mix
	f.Add(200, 100, 0, uint8(2), 2.0, uint8(0), 0, 0.0, 64, int64(3), false, 0)  // heavy tails
	f.Add(200, 100, 40, uint8(3), 0.0, uint8(0), 0, 0.0, 0, int64(0), false, 0)  // trace
	f.Add(200, 100, 0, uint8(4), 0.0, uint8(0), 0, 0.0, 0, int64(0), false, 0)   // empty trace
	f.Add(200, 100, 0, uint8(0), 0.0, uint8(1), 3, 1.5, 40, int64(4), false, 0)  // bursty sessions
	f.Add(200, 100, 0, uint8(2), 0.0, uint8(2), 4, 0.0, 33, int64(5), false, 0)  // constant schedule
	f.Add(200, 100, 0, uint8(0), 0.0, uint8(0), 0, 0.0, 8, int64(6), true, 3)    // closed loop
	f.Add(200, 100, 0, uint8(0x81), 2.0, uint8(0), 0, 0.0, 16, int64(1), false, 0)
	f.Add(200, 100, 0, uint8(3), 2.0, uint8(0), 2, 1.0, 5, int64(1), true, 2)
	f.Add(1<<30, 1<<30, 0, uint8(0), 2.0, uint8(0), 1<<30, 0.0, 4, int64(1), false, 0)
	f.Add(200, 100, 0, uint8(0), 1.0, uint8(0), 1<<30, 0.0, 4, int64(1), false, 0)

	f.Fuzz(func(t *testing.T, prompt, gen, prefix int, shape uint8, rate float64, sched uint8,
		turns int, think float64, requests int, seed int64, closed bool, clients int) {
		s := Spec{
			PromptTokens: prompt, GenTokens: gen, PrefixTokens: prefix,
			Rate: rate, Turns: turns, Think: think, Requests: requests, Seed: seed,
			Closed: closed, Clients: clients,
		}
		switch shape & 0x7f % 5 {
		case 1:
			s.Mix = []TenantLoad{
				{Tenant: "a", Share: 1, PromptTokens: prompt, GenTokens: gen},
				{Tenant: "b", Share: 2, PromptTokens: gen, GenTokens: prompt, PrefixID: "p", PrefixTokens: prefix},
			}
		case 2:
			s.Mix = []TenantLoad{{Tenant: "a", Share: 1, PromptTokens: prompt, GenTokens: gen, PromptSigma: 1.2, GenSigma: 0.5}}
		case 3:
			s.Trace = []TraceEvent{
				{Arrival: 0, Request: Request{Tenant: "a", PromptTokens: prompt, GenTokens: gen}},
				{Arrival: 1, Request: Request{Tenant: "b", PromptTokens: prompt + 1, GenTokens: gen, PrefixID: "p", PrefixTokens: prefix}},
				{Arrival: 1, Request: Request{Tenant: "a", PromptTokens: gen, GenTokens: 1}},
			}
		case 4:
			s.Trace = []TraceEvent{}
		}
		if shape&0x80 == 0 && (s.Mix != nil || s.Trace != nil) {
			s.PromptTokens, s.GenTokens, s.PrefixTokens = 0, 0, 0
		}
		switch sched % 3 {
		case 1:
			s.Schedule = Schedule{{Start: 0, End: 10, Rate: rate}, {Start: 10, End: 20, Rate: 4}}
		case 2:
			s.Schedule = Schedule{{Start: 0, End: 10, Rate: 2}, {Start: 10, End: 20, Rate: 2}}
		}

		if err := s.Validate(); err != nil { // must not panic, whatever the fields
			return
		}
		d := s.WithDefaults()
		if d.Requests > 4096 {
			return // accepted, but too long a stream to draw per fuzz input
		}
		arrivals, shapes := d.Stream(nil, nil)
		want := d.Requests
		if s.Trace != nil && want != len(s.Trace) {
			t.Fatalf("replay of %d events defaults to %d requests", len(s.Trace), want)
		}
		if len(shapes) != want || (!s.Closed && len(arrivals) != want) || (s.Closed && len(arrivals) != 0) {
			t.Fatalf("stream of %d arrivals and %d shapes, want %d requests (closed %v)", len(arrivals), len(shapes), want, s.Closed)
		}
		for i := 1; i < len(arrivals); i++ {
			if !(arrivals[i] >= arrivals[i-1]) {
				t.Fatalf("arrival %d at %g precedes %g", i, arrivals[i], arrivals[i-1])
			}
		}
		pre := Request{Tenant: "x", PromptTokens: 1, GenTokens: 1}
		moreT, moreS := d.Stream([]float64{-1}, []Request{pre, pre})
		if moreT[0] != -1 || moreS[0] != pre || moreS[1] != pre ||
			!slices.Equal(moreT[1:], arrivals) || !slices.Equal(moreS[2:], shapes) {
			t.Fatal("a stream appended to filled buffers must keep their contents and append the same stream")
		}
		drawT, drawS := d.Draw(nil, nil)
		if !slices.Equal(drawT, arrivals) {
			t.Fatal("Draw's arrival times must be Stream's")
		}
		if len(drawS) != 1 && !slices.Equal(drawS, shapes) {
			t.Fatal("a draw of more than one shape must be Stream's shapes")
		}
		for i, r := range shapes {
			if len(drawS) == 1 && r != drawS[0] {
				t.Fatalf("Stream's shape %d is not the one shape Draw holds", i)
			}
		}
		var b Bounds
		s.Extremes(func(first bool, prompt, gen, _ int) {
			c := prompt + gen
			if first {
				b = Bounds{MinPrompt: prompt, MaxPrompt: prompt, MaxGen: gen, MinContext: c, MaxContext: c}
			}
			b.MinPrompt, b.MaxPrompt = min(b.MinPrompt, prompt), max(b.MaxPrompt, prompt)
			b.MaxGen = max(b.MaxGen, gen)
			b.MinContext, b.MaxContext = min(b.MinContext, c), max(b.MaxContext, c)
		})
		for i, r := range shapes {
			if r.PromptTokens < b.MinPrompt || r.PromptTokens > b.MaxPrompt || r.GenTokens > b.MaxGen ||
				r.Context() < b.MinContext || r.Context() > b.MaxContext {
				t.Fatalf("shape %d (%d+%d) outside the extremes' bounds %+v", i, r.PromptTokens, r.GenTokens, b)
			}
		}
	})
}
