package serve

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"optimus/internal/arch"
	"optimus/internal/model"
	"optimus/internal/tech"
	"optimus/internal/workload"
)

// fuzzBase builds the fixed model/system the spec fuzzers mutate around.
func fuzzBase(f *testing.F) Spec {
	f.Helper()
	sys, err := arch.SystemOf(arch.A100(), 1, 8, tech.NVLink3, tech.IBNDR)
	if err != nil {
		f.Fatal(err)
	}
	cfg, err := model.ByName("Llama2-13B")
	if err != nil {
		f.Fatal(err)
	}
	return Spec{
		Model: cfg, System: sys, TP: 1, Precision: tech.FP16,
		Arrival: Poisson,
	}
}

// FuzzSpecValidate is the satellite fuzz gate on the new policy fields:
// Validate must never panic on any field combination, and whenever it
// accepts a spec, the policy must report a single request as feasible —
// Run may never start a simulation whose lone request cannot fit. The
// f.Add corpus doubles as a regression suite under plain `go test`.
func FuzzSpecValidate(f *testing.F) {
	base := fuzzBase(f)

	// policy, pageTokens, noPreempt, rate, clients, requests, maxBatch,
	// kvCapacity, prompt, gen, tp, arrival, prefillDevs, decodeDevs,
	// transferGBps
	f.Add(int8(0), 0, false, 1.0, 0, 16, 0, 0.0, 200, 200, 1, int8(0), 0, 0, 0.0)     // baseline reserve
	f.Add(int8(1), 0, false, 1.0, 0, 16, 0, 0.0, 200, 200, 1, int8(0), 0, 0, 0.0)     // baseline paged
	f.Add(int8(1), 16, true, 2.0, 0, 16, 4, 0.0, 200, 200, 1, int8(0), 0, 0, 0.0)     // paged no-preempt
	f.Add(int8(1), -3, false, 1.0, 0, 16, 0, 0.0, 200, 200, 1, int8(0), 0, 0, 0.0)    // negative page size
	f.Add(int8(1), 1<<30, false, 1.0, 0, 16, 0, 0.0, 200, 200, 1, int8(0), 0, 0, 0.0) // page beyond context
	f.Add(int8(0), 16, false, 1.0, 0, 16, 0, 0.0, 200, 200, 1, int8(0), 0, 0, 0.0)    // page size under reserve
	f.Add(int8(0), 0, true, 1.0, 0, 16, 0, 0.0, 200, 200, 1, int8(0), 0, 0, 0.0)      // no-preempt under reserve
	f.Add(int8(3), 0, false, 1.0, 0, 16, 0, 0.0, 200, 200, 1, int8(0), 0, 0, 0.0)     // unknown policy
	f.Add(int8(1), 8, false, 1.0, 0, 16, 0, 1e6, 200, 200, 1, int8(0), 0, 0, 0.0)     // budget below one request
	f.Add(int8(1), 8, false, math.NaN(), 0, 16, 0, 0.0, 200, 200, 1, int8(0), 0, 0, 0.0)
	f.Add(int8(0), 0, false, 1.0, 0, 2, 0, 1e30, 200, 200, 1, int8(0), 0, 0, 0.0) // huge finite budget
	f.Add(int8(0), 0, false, 1.0, 0, 2, 0, math.Inf(1), 200, 200, 1, int8(0), 0, 0, 0.0)
	f.Add(int8(1), 8, false, 0.0, 4, 16, 0, 0.0, 200, 200, 1, int8(1), 0, 0, 0.0) // closed loop
	f.Add(int8(1), 8, false, 1.0, 0, -1, -1, -1.0, 0, 0, 4, int8(7), 0, 0, 0.0)   // garbage everything
	f.Add(int8(2), 0, false, 1.0, 0, 8, 0, 0.0, 200, 200, 1, int8(0), 0, 0, 0.0)  // disagg defaults
	f.Add(int8(2), 16, false, 1.0, 0, 8, 0, 0.0, 200, 200, 1, int8(0), 1, 1, math.Inf(1))
	f.Add(int8(2), 0, false, 1.0, 0, 8, 0, 0.0, 200, 200, 1, int8(0), 3, 1, 50.0)  // pool beyond TP
	f.Add(int8(2), 0, false, 1.0, 0, 8, 0, 0.0, 200, 200, 1, int8(0), 0, 0, -5.0)  // negative bandwidth
	f.Add(int8(0), 0, false, 1.0, 0, 8, 0, 0.0, 200, 200, 1, int8(0), 1, 1, 50.0)  // pools under reserve
	f.Add(int8(1), 0, false, 1.0, 0, 8, 0, 0.0, 200, 200, 1, int8(0), 0, 0, 50.0)  // bandwidth under paged
	f.Add(int8(2), 0, false, 1.0, 0, 8, 0, 2.2e9, 200, 200, 1, int8(0), 1, 1, 1.0) // tight split pools

	f.Fuzz(func(t *testing.T, policy int8, pageTokens int, noPreempt bool,
		rate float64, clients, requests, maxBatch int, kvCapacity float64,
		prompt, gen, tp int, arrival int8, prefillDevs, decodeDevs int, transferGBps float64) {
		s := base
		s.Policy = Policy(policy)
		s.PageTokens = pageTokens
		s.NoPreempt = noPreempt
		s.Rate = rate
		s.Clients = clients
		s.Requests = requests
		s.MaxBatch = maxBatch
		s.KVCapacity = kvCapacity
		s.PromptTokens = prompt
		s.GenTokens = gen
		s.TP = tp
		s.Arrival = Arrival(arrival)
		s.PrefillDevices = prefillDevs
		s.DecodeDevices = decodeDevs
		s.TransferGBps = transferGBps

		err := s.Validate() // must not panic, whatever the fields
		if err != nil {
			return
		}
		if !Feasible(s) {
			t.Fatalf("Validate accepted a spec whose single request cannot fit: %+v", s)
		}
		// An accepted spec must simulate: run a truncated simulation when
		// it is cheap enough to finish instantly, and require that it
		// never errors and completes every request.
		if s.Requests > 0 && s.Requests <= 8 && s.GenTokens <= 64 && s.PromptTokens <= 4096 {
			res, runErr := Run(s)
			if runErr != nil {
				t.Fatalf("validated spec failed to run: %v (%+v)", runErr, s)
			}
			if res.Requests != s.Requests {
				t.Fatalf("run completed %d of %d requests (%+v)", res.Requests, s.Requests, s)
			}
		}
	})
}

// FuzzMixRoundTrip is the satellite gate on tenant-name hygiene: any mix
// ValidateMix accepts must survive FormatMix → ParseMix unchanged. The
// rendering is the sweep CSV's workload column and the CLI's axis syntax,
// so an ambiguous rendering silently aliases two distinct workloads. The
// corpus seeds the pre-fix collision — tenant "a:1:2:3,b" validated, yet
// its one-tenant mix rendered identically to a two-tenant one, so this
// harness failed until ValidateMix learned to reject separator-bearing
// (and whitespace-padded) names.
func FuzzMixRoundTrip(f *testing.F) {
	f.Add("chat", 0.7, 200, 200, "batch", 0.3, 900, 80)
	f.Add("a:1:2:3,b", 1.0, 2, 3, "c", 1.0, 100, 10) // the old FormatMix collision
	f.Add("a,b", 1.0, 100, 10, "c", 1.0, 100, 10)    // comma alone shears the join
	f.Add(" padded", 1.0, 100, 10, "x", 1.0, 100, 10)
	f.Add("padded ", 1.0, 100, 10, "x", 1.0, 100, 10)
	f.Add("dup", 1.0, 100, 10, "dup", 2.0, 50, 5)
	f.Fuzz(func(t *testing.T, n1 string, s1 float64, p1, g1 int, n2 string, s2 float64, p2, g2 int) {
		mix := []workload.TenantLoad{
			{Tenant: n1, Share: s1, PromptTokens: p1, GenTokens: g1},
			{Tenant: n2, Share: s2, PromptTokens: p2, GenTokens: g2},
		}
		if workload.ValidateMix(mix) != nil {
			return
		}
		rendered := workload.FormatMix(mix)
		back, err := workload.ParseMix(rendered)
		if err != nil {
			t.Fatalf("validated mix failed to round-trip %q: %v", rendered, err)
		}
		if !reflect.DeepEqual(back, mix) {
			t.Fatalf("rendering %q is ambiguous: %+v parsed back as %+v", rendered, mix, back)
		}
	})
}

// FuzzTraceRoundTrip is the trace gate: ParseTrace must never panic on
// arbitrary bytes — malformed prefix or session columns included — and
// any trace it accepts must survive FormatTrace → ParseTrace unchanged in
// whichever schema FormatTrace picked. The corpus seeds all three schemas
// (v1 four-column, v2 prefix, v3 session-cohort), the BOM and CRLF
// byte-order variants, and the malformed rows that must fail cleanly.
func FuzzTraceRoundTrip(f *testing.F) {
	f.Add("arrival,tenant,prompt,gen\n0.0,chat,100,40\n0.5,,900,80\n")
	f.Add("0.0,chat,100,40\n1.5,chat,120,30\n")
	f.Add("arrival,tenant,prompt,gen,prefix_id,prefix_tokens\n0,chat,100,40,sys,30\n1,code,200,50,sys,30\n")
	f.Add("0,chat,100,40,sys,30\n0.5,raw,200,50,,0\n")
	f.Add("\xef\xbb\xbfarrival,tenant,prompt,gen\r\n0.0,chat,100,40\r\n")
	f.Add("\xef\xbb\xbf0,chat,100,40,sys,30\r\n")
	f.Add("0.0,chat,100,40,sys,x\n")                      // malformed prefix length
	f.Add("0.0,chat,100,40,sys,100\n")                    // prefix swallows the prompt
	f.Add("0.0,chat,100,40,sys,-3\n")                     // negative prefix
	f.Add("0,chat,100,40,sys,20\n1,chat,100,40,sys,30\n") // inconsistent prefix length
	f.Add("0,chat,100,40,sys,20\n1,chat,100,40\n")        // column drift
	f.Add("\xef\xbb")                                     // truncated BOM
	f.Add("arrival,tenant,prompt,gen,prefix_id,prefix_tokens,session,turn\n" +
		"0,chat,100,10,,0,1,1\n1,chat,210,10,~s1,110,1,2\n2,chat,320,10,~s1,220,1,3\n")
	f.Add("0,chat,100,10,,0,1,1\n1,chat,210,10,~s1,110,1,2\n")
	f.Add("0,chat,100,10,,0,,\n")                                   // empty session columns
	f.Add("0,chat,100,10,,0,x,1\n")                                 // malformed session
	f.Add("0,chat,100,10,,0,1,y\n")                                 // malformed turn
	f.Add("0,chat,100,10,,0,1,0\n")                                 // turn without session pair
	f.Add("0,chat,100,10,,0,-1,1\n")                                // negative session
	f.Add("0,chat,300,10,~s1,200,1,2\n1,chat,300,10,~s1,100,1,3\n") // shrinking session prefix
	f.Add("\xef\xbb\xbf0,chat,100,10,,0,1,1\r\n1,chat,210,10,~s1,110,1,2\r\n")
	f.Fuzz(func(t *testing.T, raw string) {
		trace, err := workload.ParseTrace(strings.NewReader(raw)) // must not panic
		if err != nil {
			return
		}
		var b strings.Builder
		if err := workload.FormatTrace(&b, trace); err != nil {
			t.Fatalf("accepted trace failed to render: %v (%+v)", err, trace)
		}
		back, err := workload.ParseTrace(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("accepted trace failed to round-trip %q: %v", b.String(), err)
		}
		if !reflect.DeepEqual(back, trace) {
			t.Fatalf("rendering %q is ambiguous: %+v parsed back as %+v", b.String(), trace, back)
		}
	})
}

// FuzzPagedGeometry: whatever policy layout, page size, pool split and
// budget a spec asks for, the derived geometry must stay internally
// consistent — the page size never exceeds the context, every pool of a
// feasible spec holds one full context, the pools' combined total stays
// within the budget's pages, and the derived batch cap respects the
// user's. The base has two devices so a Disaggregated split can give each
// pool a strict share of the budget.
func FuzzPagedGeometry(f *testing.F) {
	base := fuzzBase(f)
	sys, err := arch.SystemOf(arch.A100(), 2, 8, tech.NVLink3, tech.IBNDR)
	if err != nil {
		f.Fatal(err)
	}
	base.System, base.TP = sys, 2
	// pageTokens, kvCapacity, maxBatch, prompt, gen, disagg, prefillDevs,
	// decodeDevs
	f.Add(16, 0.0, 0, 200, 200, false, 0, 0)
	f.Add(1, 1e9, 4, 50, 1, false, 0, 0)
	f.Add(1<<30, 5e8, 1, 1, 1, false, 0, 0)
	f.Add(7, 3.3e8, 100, 333, 77, false, 0, 0)
	f.Add(16, 0.0, 0, 200, 200, true, 0, 0)   // co-located split
	f.Add(16, 2.2e9, 0, 200, 200, true, 1, 1) // disjoint halves
	f.Add(7, 1e9, 3, 333, 77, true, 1, 2)     // uneven pools
	f.Add(1<<30, 5e8, 1, 1, 1, true, 2, 1)    // one page per context
	f.Add(16, 1e6, 0, 200, 200, true, 1, 1)   // pools below one context
	f.Add(16, 2.5e8, 0, 200, 200, true, 1, 2) // prefill pool alone below one context
	f.Add(16, 0.0, 0, 200, 200, true, 3, -1)  // counts outside [0, TP]
	f.Fuzz(func(t *testing.T, pageTokens int, kvCapacity float64, maxBatch, prompt, gen int, disagg bool, prefillDevs, decodeDevs int) {
		s := base
		s.Policy = Paged
		if disagg {
			s.Policy = Disaggregated
			s.PrefillDevices, s.DecodeDevices = prefillDevs, decodeDevs
		}
		s.PageTokens = pageTokens
		s.KVCapacity = kvCapacity
		s.MaxBatch = maxBatch
		s.PromptTokens = prompt
		s.GenTokens = gen
		s.Rate = 1
		if s.Validate() != nil {
			return
		}
		env := possibleEnvelope(s.Workload())
		p := newPolicy(s, &env, new(policyStore)).(*pagedPolicy)
		pt, total := p.PageGeometry()
		if pt < 1 || pt > prompt+gen {
			t.Fatalf("page size %d outside [1, %d]", pt, prompt+gen)
		}
		if total < 1 {
			t.Fatalf("feasible paged spec has an empty page pool")
		}
		full := (prompt + gen + pt - 1) / pt
		if full > p.prefillTotal || full > p.decodeTotal {
			t.Fatalf("feasible spec: full context needs %d pages of %d-page prefill and %d-page decode pools",
				full, p.prefillTotal, p.decodeTotal)
		}
		if total > p.prefillTotal+p.decodeTotal || float64(total)*p.pageBytes > p.budget*(1+1e-12) {
			t.Fatalf("pools total %d pages of %g bytes, beyond %d+%d pool pages or the %g-byte budget",
				total, p.pageBytes, p.prefillTotal, p.decodeTotal, p.budget)
		}
		if cap := p.BatchCap(); maxBatch > 0 && cap > maxBatch {
			t.Fatalf("derived batch cap %d exceeds the user's %d", cap, maxBatch)
		}
	})
}
