package sweep

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"optimus/internal/cluster"
	"optimus/internal/memfoot"
	"optimus/internal/serve"
	"optimus/internal/workload"
)

// memoKey is the key the engine renders for a point from its
// enumeration-time tokens.
func memoKey(p *Point) string {
	id := p.ident()
	return string(id.appendKey(nil))
}

// negZero is -0, which 'g' formatting renders apart from +0.
var negZero = math.Copysign(0, -1)

// identMutations change one identity field of a point each, keyed by the
// field's name ("Map." before a mapping field). Every float field also
// gets a -0 variant, and Rate two NaNs of different payloads, which the
// key renders alike.
var identMutations = map[string]func(*Point){
	"Workload":          func(p *Point) { p.Workload = (p.Workload + 1) % 3 },
	"Model":             func(p *Point) { p.Model.Layers++ },
	"System":            func(p *Point) { sys := *p.System; sys.NumNodes++; p.System = &sys },
	"Map.DP":            func(p *Point) { p.Map.DP++ },
	"Map.TP":            func(p *Point) { p.Map.TP++ },
	"Map.PP":            func(p *Point) { p.Map.PP++ },
	"Map.SP":            func(p *Point) { p.Map.SP = !p.Map.SP },
	"Map.Microbatch":    func(p *Point) { p.Map.Microbatch++ },
	"Map.Schedule":      func(p *Point) { p.Map.Schedule++ },
	"Map.VirtualStages": func(p *Point) { p.Map.VirtualStages++ },
	"Recompute":         func(p *Point) { p.Recompute = (p.Recompute + 1) % (memfoot.Full + 1) },
	"Precision":         func(p *Point) { p.Precision++ },
	"GlobalBatch":       func(p *Point) { p.GlobalBatch++ },
	"Seq":               func(p *Point) { p.Seq++ },
	"GenTokens":         func(p *Point) { p.GenTokens++ },
	"Rate":              func(p *Point) { p.Rate = math.Nextafter(p.Rate, math.Inf(1)) },
	"Rate/-0":           func(p *Point) { p.Rate = negZero },
	"Rate/NaN":          func(p *Point) { p.Rate = math.NaN() },
	"Rate/NaN2":         func(p *Point) { p.Rate = math.Float64frombits(0x7ff8000000000001) },
	"BatchCap":          func(p *Point) { p.BatchCap++ },
	"Policy":            func(p *Point) { p.Policy = (p.Policy + 1) % (serve.Disaggregated + 1) },
	"PageTokens":        func(p *Point) { p.PageTokens++ },
	"PrefillDevices":    func(p *Point) { p.PrefillDevices++ },
	"DecodeDevices":     func(p *Point) { p.DecodeDevices++ },
	"TransferGBps":      func(p *Point) { p.TransferGBps = math.Nextafter(p.TransferGBps, math.Inf(1)) },
	"TransferGBps/-0":   func(p *Point) { p.TransferGBps = negZero },
	"PrefixTokens":      func(p *Point) { p.PrefixTokens++ },
	"HostKVBytes":       func(p *Point) { p.HostKVBytes = math.Nextafter(p.HostKVBytes, math.Inf(1)) },
	"HostKVBytes/-0":    func(p *Point) { p.HostKVBytes = negZero },
	"SwapGBps":          func(p *Point) { p.SwapGBps = math.Nextafter(p.SwapGBps, math.Inf(1)) },
	"SwapGBps/-0":       func(p *Point) { p.SwapGBps = negZero },
	"Mix": func(p *Point) {
		p.Mix = append(slices.Clone(p.Mix), workload.TenantLoad{Tenant: "extra", Share: 1, PromptTokens: 8, GenTokens: 8})
	},
	"Trace": func(p *Point) {
		p.Trace = append(slices.Clone(p.Trace), workload.TraceEvent{Arrival: 9, Request: workload.Request{PromptTokens: 8, GenTokens: 8}})
	},
	"ServeRequests": func(p *Point) { p.ServeRequests++ },
	"ServeSeed":     func(p *Point) { p.ServeSeed++ },
	"Replicas":      func(p *Point) { p.Replicas++ },
	"Routing":       func(p *Point) { p.Routing = (p.Routing + 1) % (cluster.TenantAffinity + 1) },
	"Schedule": func(p *Point) {
		p.Schedule = append(slices.Clone(p.Schedule), workload.Segment{Start: 1000, End: 1001, Rate: 3})
	},
	"Turns":    func(p *Point) { p.Turns++ },
	"Think":    func(p *Point) { p.Think = math.Nextafter(p.Think, math.Inf(1)) },
	"Think/-0": func(p *Point) { p.Think = negZero },
}

// identGrids are enumerated grids of every sweep kind and serving axis:
// training and inference, serving policies with pool splits, prefixes
// and a host tier, session turns, mixes, a trace, schedules and fleets.
func identGrids(t *testing.T) map[string]Spec {
	t.Helper()
	train := trainSpec0(t)
	train.GlobalBatches = []int{8, 16}
	infer := trainSpec0(t)
	infer.Workload = Inference
	infer.GlobalBatches, infer.Seqs, infer.GenTokens = []int{1, 4}, []int{128, 256}, []int{0, 64}
	policies := servingSpec0(t)
	policies.Policies = []serve.Policy{serve.ReserveFull, serve.Paged, serve.Disaggregated}
	policies.PoolSplits = []PoolSplit{{}, {Prefill: 1, Decode: 1}}
	policies.PrefixTokens = []int{0, 64}
	policies.HostKVBytes = []float64{0, 4e9}
	policies.ServePageTokens = 32
	sessions := servingSpec0(t)
	sessions.Policies = []serve.Policy{serve.ReserveFull, serve.Paged}
	sessions.Turns, sessions.Think = []int{0, 1, 3}, 0.5
	trace := servingSpec0(t)
	trace.Trace, trace.Rates, trace.Seqs, trace.GenTokens, trace.ServeRequests = trace0(), nil, nil, nil, 0
	schedules := servingSpec0(t)
	schedules.Rates = nil
	schedules.Schedules = []workload.Schedule{
		{{Start: 0, End: 60, Rate: 2}},
		{{Start: 0, End: 10, Rate: 1}, {Start: 10, End: 20, Rate: 4}},
	}
	return map[string]Spec{
		"training": train, "inference": infer, "policies": policies, "sessions": sessions,
		"mixes": mixSpec0(t), "trace": trace, "schedules": schedules, "fleets": fleetSpec0(t),
	}
}

// TestIdentMatchesKey: the engine deduplicates on ident and keys its
// memo by the string rendered from the enumeration-time tokens, so both
// must agree with the public Key. Over every enumerated candidate of
// identGrids and every single-field mutation of a spread of them, two
// points have equal idents exactly when they have equal keys, and the
// key the engine renders is Key's.
func TestIdentMatchesKey(t *testing.T) {
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Point{})) {
		if f.IsExported() && f.Name != "Map" && identMutations[f.Name] == nil {
			t.Errorf("no identity mutation for Point.%s", f.Name)
		}
	}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Point{}.Map)) {
		if identMutations["Map."+f.Name] == nil {
			t.Errorf("no identity mutation for Point.Map.%s", f.Name)
		}
	}

	byKey := make(map[string]ident)
	byIdent := make(map[ident]string)
	check := func(what string, p *Point) {
		t.Helper()
		k, id := p.Key(), p.ident()
		if got := memoKey(p); got != k {
			t.Fatalf("%s: engine key %q, Key %q", what, got, k)
		}
		if prev, ok := byKey[k]; ok && prev != id {
			t.Fatalf("%s: key %q shared by two idents", what, k)
		}
		if prev, ok := byIdent[id]; ok && prev != k {
			t.Fatalf("%s: one ident for keys %q and %q", what, prev, k)
		}
		byKey[k], byIdent[id] = id, k
	}
	for grid, spec := range identGrids(t) {
		if err := spec.Validate(); err != nil {
			t.Fatalf("%s: %v", grid, err)
		}
		pts := Enumerate(spec)
		if len(pts) < 2 {
			t.Fatalf("%s: %d candidates", grid, len(pts))
		}
		// Every candidate, and the mutations of about eight per grid.
		step := max(1, len(pts)/8)
		for i := range pts {
			check(grid, &pts[i])
			if i%step != 0 {
				continue
			}
			for name, mutate := range identMutations {
				q := pts[i]
				mutate(&q)
				q.tok = tokensOf(&q)
				check(grid+" "+name, &q)
			}
		}
	}

	// The pairs the bit-level identity must keep apart (±0) and together
	// (NaN payloads), spelled out.
	p := Enumerate(identGrids(t)["trace"])[0]
	for _, set := range []func(*Point, float64){
		func(p *Point, x float64) { p.Rate = x },
		func(p *Point, x float64) { p.Think = x },
	} {
		a, b := p, p
		set(&a, 0)
		set(&b, negZero)
		if a.ident() == b.ident() || a.Key() == b.Key() {
			t.Errorf("+0 and -0 share an identity: %q", a.Key())
		}
		set(&a, math.NaN())
		set(&b, math.Float64frombits(0x7ff8000000000001))
		if a.ident() != b.ident() || a.Key() != b.Key() {
			t.Errorf("NaN payloads split an identity: %q, %q", a.Key(), b.Key())
		}
	}
}
