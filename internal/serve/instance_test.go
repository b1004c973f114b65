package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"optimus/internal/workload"
)

// capacityOf strips a full workload spec down to the capacity descriptor an
// Instance carries, and returns the arrival stream (times + shapes) the
// router would push — drawn by the same workload.Spec.Stream Run draws
// from.
func capacityOf(t *testing.T, s Spec) (cap Spec, times []float64, shapes []workload.Request) {
	t.Helper()
	w := s.Workload()
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	times, shapes = w.WithDefaults().Stream(nil, nil)
	cap = s
	cap.SetWorkload(workload.Spec{})
	return cap, times, shapes
}

// lognormalMix replaces s's shape with a heavy-tailed two-tenant mix whose
// largest possible request (8× each median) is far beyond any it draws.
func lognormalMix(t *testing.T, s *Spec) {
	t.Helper()
	mix, err := workload.ParseMix("chat:0.7:300~0.8:150~0.6,batch:0.3:1200~0.5:400")
	if err != nil {
		t.Fatal(err)
	}
	s.PromptTokens, s.GenTokens, s.Mix = 0, 0, mix
}

// TestInstanceReproducesRun: an Instance pushed Run's own arrival stream
// on that stream's envelope must reproduce Run byte-identically (reflect +
// JSON) across the policy and workload axes — the pin that Run is the
// Instance driver, and the foundation of the R=1 cluster equivalence.
func TestInstanceReproducesRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Spec)
	}{
		{"reserve", func(s *Spec) {}},
		{"paged", func(s *Spec) { s.Policy = Paged; s.PageTokens = 16; s.KVCapacity = 3e9; s.MaxBatch = 8 }},
		{"disagg", func(s *Spec) { s.Policy = Disaggregated; s.TransferGBps = 25; s.KVCapacity = 3e9 }},
		{"mix", func(s *Spec) {
			s.PromptTokens, s.GenTokens = 0, 0
			s.Mix = []workload.TenantLoad{
				{Tenant: "chat", Share: 0.7, PromptTokens: 150, GenTokens: 100},
				{Tenant: "batch", Share: 0.3, PromptTokens: 400, GenTokens: 50},
			}
		}},
		// Heavy-tailed lengths: the drawn stream never reaches the
		// workload's possible extremes, and Run sizes from the stream.
		{"lognormal/reserve", func(s *Spec) { lognormalMix(t, s) }},
		{"lognormal/paged", func(s *Spec) { lognormalMix(t, s); s.Policy = Paged; s.KVCapacity = 12e9 }},
		{"lognormal/disagg", func(s *Spec) { lognormalMix(t, s); s.Policy = Disaggregated; s.KVCapacity = 12e9 }},
		{"sessions/paged", func(s *Spec) { s.GenTokens, s.Turns, s.Think = 100, 3, 2; s.Policy = Paged; s.KVCapacity = 3e9 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := spec0(t)
			s.Rate, s.Requests = 2.0, 48
			tc.mut(&s)
			want, err := Run(s)
			if err != nil {
				t.Fatal(err)
			}

			capSpec, times, shapes := capacityOf(t, s)
			in, err := NewInstance(capSpec, shapes)
			if err != nil {
				t.Fatal(err)
			}
			for i, at := range times {
				in.AdvanceTo(at)
				if err := in.Push(shapes[i], at); err != nil {
					t.Fatal(err)
				}
			}
			in.Drain()
			got, err := in.Result()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("instance result diverges from Run")
			}
			jw, _ := json.Marshal(want)
			jg, _ := json.Marshal(got)
			if string(jw) != string(jg) {
				t.Errorf("JSON encodings differ:\nrun:      %.200s\ninstance: %.200s", jw, jg)
			}
		})
	}
}

// TestInstanceAdvanceGranularityIrrelevant: an instance's outcome depends
// only on its push sequence, never on whether or how finely the driver
// interleaves AdvanceTo (Push advances to the arrival itself) — the
// property that lets load-independent routing run replicas fully parallel
// while load-aware routing barriers per arrival to sample loads.
func TestInstanceAdvanceGranularityIrrelevant(t *testing.T) {
	s := spec0(t)
	s.Rate, s.Requests = 2.0, 32
	capSpec, times, shapes := capacityOf(t, s)

	run := func(advance func(in *Instance, at float64)) Result {
		in, err := NewInstance(capSpec, shapes)
		if err != nil {
			t.Fatal(err)
		}
		for i, at := range times {
			advance(in, at)
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

	coarse := run(func(in *Instance, at float64) {})                       // push everything, then drain
	perArrival := run(func(in *Instance, at float64) { in.AdvanceTo(at) }) // barrier before each push
	fine := run(func(in *Instance, at float64) {                           // many tiny advances
		for t := in.Load().Now; t < at; t += 0.05 {
			in.AdvanceTo(t)
		}
		in.AdvanceTo(at)
	})
	if !reflect.DeepEqual(coarse, perArrival) || !reflect.DeepEqual(coarse, fine) {
		t.Error("advance granularity changed the simulation outcome")
	}
}

// TestInstanceLoadObservables: the load snapshot tracks the event loop —
// monotone completion count, conserved in-flight accounting, and a final
// drained state with nothing queued or running.
func TestInstanceLoadObservables(t *testing.T) {
	s := spec0(t)
	s.Rate, s.Requests = 4.0, 24
	capSpec, times, shapes := capacityOf(t, s)
	in, err := NewInstance(capSpec, shapes)
	if err != nil {
		t.Fatal(err)
	}
	prevDone := 0
	for i, at := range times {
		in.AdvanceTo(at)
		l := in.Load()
		if l.Done < prevDone {
			t.Fatalf("completed count went backwards: %d then %d", prevDone, l.Done)
		}
		prevDone = l.Done
		if l.Done+l.InFlight() != in.Pushed() {
			t.Fatalf("push %d: done %d + in-flight %d != pushed %d", i, l.Done, l.InFlight(), in.Pushed())
		}
		if l.KVBytes < 0 || l.KVPages < 0 {
			t.Fatalf("negative KV accounting: %g bytes, %d pages", l.KVBytes, l.KVPages)
		}
		if err := in.Push(shapes[i], at); err != nil {
			t.Fatal(err)
		}
	}
	in.Drain()
	l := in.Load()
	if l.InFlight() != 0 || l.Done != len(times) {
		t.Errorf("drained instance load = %+v, want 0 in flight and %d done", l, len(times))
	}
	if in.Pushed() != len(times) {
		t.Errorf("Pushed() = %d, want %d", in.Pushed(), len(times))
	}
}

// TestInstanceLedgerCounts checks the completion counts an instance
// reports against an oracle that reads only the drained result: after
// every AdvanceTo, Load().Done must equal the number of requests in the
// final PerRequest whose Done is at or before the Load's clock (a later
// completion lands strictly after it, every iteration having positive
// duration), and Result called before Drain must report the rest of the
// pushes as in flight. A heavy-tailed two-tenant mix makes completions
// leave push order, which the test confirms, while PerRequest stays in
// push order.
func TestInstanceLedgerCounts(t *testing.T) {
	s := spec0(t)
	lognormalMix(t, &s)
	s.Rate, s.Requests = 6, 64
	capSpec, times, shapes := capacityOf(t, s)
	in, err := NewInstance(capSpec, shapes)
	if err != nil {
		t.Fatal(err)
	}
	type snapshot struct {
		now          float64
		done, pushed int
		err          string
	}
	var snaps []snapshot
	advance := func(to float64) {
		in.AdvanceTo(to)
		l := in.Load()
		_, err := in.Result()
		if err == nil {
			t.Fatalf("Result before Drain at %g returned no error", l.Now)
		}
		snaps = append(snaps, snapshot{l.Now, l.Done, in.Pushed(), err.Error()})
	}
	for i, at := range times {
		advance((in.Load().Now + at) / 2)
		advance(at)
		if err := in.Push(shapes[i], at); err != nil {
			t.Fatal(err)
		}
	}
	for l := in.Load(); l.InFlight() > 0; l = in.Load() {
		advance(l.Now + 0.5)
	}
	in.Drain()
	res, err := in.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != len(times) || len(res.PerRequest) != len(times) {
		t.Fatalf("drained %d requests (%d in PerRequest), want %d", res.Requests, len(res.PerRequest), len(times))
	}
	reordered := false
	for i, m := range res.PerRequest {
		if m.ID != i {
			t.Fatalf("PerRequest[%d] holds request %d: the ledger left push order", i, m.ID)
		}
		reordered = reordered || (i > 0 && m.Done < res.PerRequest[i-1].Done)
	}
	if !reordered {
		t.Fatal("every request completed in push order; the mix no longer exercises out-of-order completion")
	}
	inFlight := 0
	for _, sn := range snaps {
		completed := 0
		for _, m := range res.PerRequest {
			if m.Done <= sn.now {
				completed++
			}
		}
		if sn.done != completed {
			t.Fatalf("at %g: Load().Done = %d, but %d requests of the drained result completed by then", sn.now, sn.done, completed)
		}
		if want := fmt.Sprintf("serve: result before drain (%d requests still in flight)", sn.pushed-completed); sn.err != want {
			t.Fatalf("at %g: Result before Drain reported %q, want %q", sn.now, sn.err, want)
		}
		inFlight = max(inFlight, sn.pushed-completed)
	}
	if inFlight == 0 {
		t.Fatal("no snapshot had a request in flight; the counts were never tested mid-run")
	}
}

// TestCoastedLoadMatchesProbed: a paged instance coasts through page
// crossings that fit, growing the committed pages in O(1) and the held
// ones once at the end, while a probed instance — which never coasts —
// steps and scans every iteration. Driven through the same pushes and a
// grid of AdvanceTo targets, the two must show the same Load after every
// call, because a load-aware router reads it between advances, and the
// same Result once drained. One layout is a single pool with a host tier,
// the other a split; the probed side checks the next-event state at each
// of its iterations. Both budgets are tight enough that some crossings a
// coast reaches do not fit.
func TestCoastedLoadMatchesProbed(t *testing.T) {
	tiered := spec0(t)
	tiered.Policy, tiered.Rate, tiered.Requests = Paged, 2, 48
	_, perRequest := tiered.kvBudget()
	tiered.KVCapacity, tiered.HostKVBytes, tiered.SwapGBps = 3*perRequest, 4*perRequest, 8
	split := splitSpec(t)
	_, perRequest = split.kvBudget()
	split.Rate, split.KVCapacity = 2, 4*perRequest
	for _, tc := range []struct {
		name string
		spec Spec
	}{{"tiered", tiered}, {"split", split}} {
		t.Run(tc.name, func(t *testing.T) {
			capSpec, times, shapes := capacityOf(t, tc.spec)
			coasted, err := NewInstance(capSpec, shapes)
			if err != nil {
				t.Fatal(err)
			}
			var probed *Instance
			peak := 0
			capSpec.probe = func(probeState) { checkNextEvent(t, probed.sim, &peak) }
			if probed, err = NewInstance(capSpec, shapes); err != nil {
				t.Fatal(err)
			}
			advance := func(to float64) {
				coasted.AdvanceTo(to)
				probed.AdvanceTo(to)
				if got, want := coasted.Load(), probed.Load(); got != want {
					t.Fatalf("after AdvanceTo(%g): coasted load %+v, stepped %+v", to, got, want)
				}
			}
			const grid = 0.3
			for i, at := range times {
				for to := coasted.Load().Now + grid; to < at; to += grid {
					advance(to)
				}
				advance(at)
				for _, in := range []*Instance{coasted, probed} {
					if err := in.Push(shapes[i], at); err != nil {
						t.Fatal(err)
					}
				}
			}
			for l := coasted.Load(); l.InFlight() > 0; l = coasted.Load() {
				advance(l.Now + grid)
			}
			var res [2]Result
			for i, in := range []*Instance{coasted, probed} {
				in.Drain()
				if res[i], err = in.Result(); err != nil {
					t.Fatal(err)
				}
			}
			jc, _ := json.Marshal(res[0])
			jp, _ := json.Marshal(res[1])
			if string(jc) != string(jp) {
				t.Errorf("coasted result diverges from the stepped one: %d vs %d iterations, %d vs %d preemptions",
					res[0].Iterations, res[1].Iterations, res[0].Preemptions, res[1].Preemptions)
			}
		})
	}
}

// TestInstanceValidation pins the Instance API's rejection surface: specs
// smuggling workload or arrival fields, empty envelopes, out-of-order or
// malformed pushes, oversized contexts, use-after-drain, and prefixed
// pushes into a policy that cannot cache prefixes.
func TestInstanceValidation(t *testing.T) {
	s := spec0(t)
	capSpec, _, shapes := capacityOf(t, s)

	bad := capSpec
	bad.PromptTokens = 100
	if _, err := NewInstance(bad, shapes); err == nil || !strings.Contains(err.Error(), "capacity only") {
		t.Errorf("workload fields on an instance spec: got %v", err)
	}
	bad = capSpec
	bad.Rate = 1
	if _, err := NewInstance(bad, shapes); err == nil || !strings.Contains(err.Error(), "arrival process") {
		t.Errorf("arrival fields on an instance spec: got %v", err)
	}
	if _, err := NewInstance(capSpec, nil); err == nil || !strings.Contains(err.Error(), "envelope") {
		t.Errorf("empty envelope: got %v", err)
	}
	if _, err := NewInstance(capSpec, []workload.Request{{Tenant: "x", PromptTokens: -1, GenTokens: 1}}); err == nil {
		t.Error("malformed envelope shape should be rejected")
	}

	in, err := NewInstance(capSpec, shapes)
	if err != nil {
		t.Fatal(err)
	}
	sh := shapes[0]
	if err := in.Push(sh, 5); err != nil {
		t.Fatal(err)
	}
	if err := in.Push(sh, 4); err == nil || !strings.Contains(err.Error(), "non-decreasing") {
		t.Errorf("decreasing push time: got %v", err)
	}
	if err := in.Push(sh, math.Inf(1)); err == nil {
		t.Error("infinite push time should be rejected")
	}
	if err := in.Push(workload.Request{Tenant: "x", PromptTokens: 0, GenTokens: 1}, 6); err == nil {
		t.Error("zero-prompt push should be rejected")
	}
	if err := in.Push(workload.Request{Tenant: "x", PromptTokens: 1 << 20, GenTokens: 1 << 20}, 6); err == nil ||
		!strings.Contains(err.Error(), "envelope") {
		t.Errorf("over-envelope context: got %v", err)
	}
	if _, err := in.Result(); err == nil || !strings.Contains(err.Error(), "drain") {
		t.Errorf("result before drain: got %v", err)
	}
	in.Drain()
	if err := in.Push(sh, 7); err == nil || !strings.Contains(err.Error(), "drain") {
		t.Errorf("push after drain: got %v", err)
	}

	// The prefixed-push gate: only Paged with preemption enabled caches
	// prefixes. Disaggregated runs on the same paged policy type, so a gate
	// keyed on the policy type would silently admit prefixes into its two
	// pools.
	prefixed := func(id string, tokens, session int) workload.Request {
		return workload.Request{Tenant: "x", PromptTokens: 200, GenTokens: 200, PrefixID: id, PrefixTokens: tokens, Session: session}
	}
	for name, mutate := range map[string]func(*Spec){
		"reserve":          func(s *Spec) {},
		"paged-no-preempt": func(s *Spec) { s.Policy, s.NoPreempt = Paged, true },
		"disagg":           func(s *Spec) { s.Policy = Disaggregated },
	} {
		c := capSpec
		mutate(&c)
		in, err := NewInstance(c, shapes)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := in.Push(prefixed("sys", 64, 0), 0); err == nil || !strings.Contains(err.Error(), "prefixed push") {
			t.Errorf("%s: prefixed push: got %v", name, err)
		}
	}
	paged := capSpec
	paged.Policy = Paged
	in, err = NewInstance(paged, shapes)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range []struct {
		r       workload.Request
		wantErr string
	}{
		{prefixed("sys", 64, 0), ""},
		{prefixed("sys", 32, 0), "one length"},
		{prefixed("~s1", 160, 1), ""},
		{prefixed("~s1", 176, 1), ""},
		{prefixed("~s1", 120, 1), "shrank"},
		// 150 prefix tokens take 10 pages and the 250 private ones 16:
		// one page beyond the envelope's 25-page largest request.
		{prefixed("~s2", 150, 2), "26 KV pages"},
	} {
		err := in.Push(c.r, float64(i))
		if c.wantErr == "" && err != nil {
			t.Errorf("push %d: %v", i, err)
		}
		if c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)) {
			t.Errorf("push %d: got %v, want an error containing %q", i, err, c.wantErr)
		}
	}

	// The page budget holds exactly the envelope's one 128-token request
	// (8 pages of 16 tokens). A 10-token prefix rounds up to a page of its
	// own and the 118 private tokens to 8 more: admitting the push would
	// commit 9 of the 8 pages.
	small := spec0(t)
	small.PromptTokens, small.GenTokens = 100, 28
	_, per := small.kvBudget()
	paged.PageTokens, paged.KVCapacity = 16, per
	in, err = NewInstance(paged, []workload.Request{{Tenant: "x", PromptTokens: 100, GenTokens: 28}})
	if err != nil {
		t.Fatal(err)
	}
	over := workload.Request{Tenant: "x", PromptTokens: 100, GenTokens: 28, PrefixID: "p", PrefixTokens: 10}
	if err := in.Push(over, 0); err == nil || !strings.Contains(err.Error(), "9 KV pages") {
		t.Errorf("prefixed push beyond the page budget: got %v", err)
	}
	over.PrefixTokens = 16 // 1 + 7 pages: exactly the budget
	if err := in.Push(over, 0); err != nil {
		t.Errorf("page-aligned prefixed push: %v", err)
	}
}

// TestInstanceZeroPushes: an instance drained without any pushes reports a
// zero-request Result rather than dividing by zero iterations.
func TestInstanceZeroPushes(t *testing.T) {
	s := spec0(t)
	capSpec, _, shapes := capacityOf(t, s)
	in, err := NewInstance(capSpec, shapes)
	if err != nil {
		t.Fatal(err)
	}
	in.Drain()
	res, err := in.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 0 || res.Iterations != 0 || res.SimTime != 0 {
		t.Errorf("zero-push result = %d requests, %d iterations, %g sim time; want all zero",
			res.Requests, res.Iterations, res.SimTime)
	}
	if math.IsNaN(res.MeanBatch) || math.IsNaN(res.MeanKVUtil) {
		t.Error("zero-push result carries NaN means")
	}
}
