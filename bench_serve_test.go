package optimus

import (
	"reflect"
	"slices"
	"testing"

	"optimus/internal/arch"
	"optimus/internal/cluster"
	"optimus/internal/memfoot"
	"optimus/internal/model"
	"optimus/internal/serve"
	"optimus/internal/tech"
	"optimus/internal/workload"
)

// serveBenchSpec is the serve-bench workload: Llama2-13B on 2 H100s under
// saturating Poisson load, so every iteration batches several sequences.
func serveBenchSpec(tb testing.TB, requests int) serve.Spec {
	tb.Helper()
	sys, err := arch.SystemOf(arch.H100(), 2, 8, tech.NVLink4, tech.IBNDR)
	if err != nil {
		tb.Fatal(err)
	}
	cfg, err := model.ByName("Llama2-13B")
	if err != nil {
		tb.Fatal(err)
	}
	return serve.Spec{
		Model: cfg, System: sys, TP: 2, Precision: tech.FP16,
		PromptTokens: 200, GenTokens: 200,
		Arrival: serve.Poisson, Rate: 4, Requests: requests, Seed: 1,
	}
}

// BenchmarkServeSimulator reports how many requests the continuous-batching
// simulator can simulate per wall-clock second — the `make serve-bench`
// throughput gate alongside the sweep-bench speedup trajectory. It drives
// a pooled Runner, the steady-state shape sweep workers and cluster
// replicas use: slabs, pricing tables and scratch survive across runs
// (TestRunnerReuseMatchesFresh pins pooled == fresh byte-identically).
func BenchmarkServeSimulator(b *testing.B) {
	const requests = 256
	spec := serveBenchSpec(b, requests)
	rn := new(serve.Runner)
	b.ReportAllocs()
	b.ResetTimer()
	var last serve.Result
	for i := 0; i < b.N; i++ {
		res, err := rn.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.StopTimer()
	b.ReportMetric(float64(requests*b.N)/b.Elapsed().Seconds(), "sim-req/s")
	b.ReportMetric(float64(last.Iterations), "iters/run")
	b.ReportMetric(last.E2E.P95*1e3, "p95-e2e-ms")
}

// BenchmarkServeSimulatorPaged tracks the paged-admission hot path under
// real page pressure: the KV budget is squeezed to a handful of full
// contexts so block growth, LIFO preemption and recompute readmissions
// all run every iteration.
func BenchmarkServeSimulatorPaged(b *testing.B) {
	const requests = 256
	spec := serveBenchSpec(b, requests)
	spec.Policy = serve.Paged
	perRequest := memfoot.Inference(spec.Model, spec.TP, 1,
		spec.PromptTokens+spec.GenTokens, spec.Precision.Bytes()).KVCache
	spec.KVCapacity = 8 * perRequest
	rn := new(serve.Runner)
	b.ReportAllocs()
	b.ResetTimer()
	var last serve.Result
	for i := 0; i < b.N; i++ {
		res, err := rn.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.StopTimer()
	if last.Preemptions == 0 {
		b.Fatal("paged bench must exercise preemption; tighten its KV budget")
	}
	b.ReportMetric(float64(requests*b.N)/b.Elapsed().Seconds(), "sim-req/s")
	b.ReportMetric(float64(last.Preemptions), "preempts/run")
	b.ReportMetric(last.MeanKVUtil*100, "kv-util-%")
}

// BenchmarkServeSimulatorPrefixTiered tracks the PR-8 admission paths
// together under page pressure: every request shares a prefix (so hit
// accounting and refcounting run each admission) and preemption victims
// swap to a host KV tier (so the swap-out/swap-in pricing runs too).
func BenchmarkServeSimulatorPrefixTiered(b *testing.B) {
	const requests = 256
	spec := serveBenchSpec(b, requests)
	spec.Policy = serve.Paged
	spec.PrefixTokens = 64
	perRequest := memfoot.Inference(spec.Model, spec.TP, 1,
		spec.PromptTokens+spec.GenTokens, spec.Precision.Bytes()).KVCache
	spec.KVCapacity = 8 * perRequest
	spec.HostKVBytes = 16 * perRequest
	spec.SwapGBps = serve.DefaultSwapGBps
	rn := new(serve.Runner)
	b.ReportAllocs()
	b.ResetTimer()
	var last serve.Result
	for i := 0; i < b.N; i++ {
		res, err := rn.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.StopTimer()
	if last.PrefixHits == 0 || last.KVSwapOuts == 0 {
		b.Fatalf("prefix+tiered bench must exercise both paths: %d hits, %d swap-outs",
			last.PrefixHits, last.KVSwapOuts)
	}
	b.ReportMetric(float64(requests*b.N)/b.Elapsed().Seconds(), "sim-req/s")
	b.ReportMetric(float64(last.PrefixHits), "pfx-hits/run")
	b.ReportMetric(float64(last.KVSwapOuts), "swap-outs/run")
}

// BenchmarkServeBursty drives the piecewise arrival-rate schedule path:
// a quiet-burst-quiet timeline whose burst segment packs arrivals far
// above the sustainable rate, so the queue swells and drains every run —
// the inhomogeneous-Poisson generation and the backlogged event loop are
// both on the clock.
func BenchmarkServeBursty(b *testing.B) {
	const requests = 256
	spec := serveBenchSpec(b, requests)
	spec.Rate = 0
	spec.Schedule = workload.Schedule{
		{Start: 0, End: 30, Rate: 1},
		{Start: 30, End: 45, Rate: 16},
		{Start: 45, End: 90, Rate: 2},
	}
	rn := new(serve.Runner)
	b.ReportAllocs()
	b.ResetTimer()
	var last serve.Result
	for i := 0; i < b.N; i++ {
		res, err := rn.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.StopTimer()
	b.ReportMetric(float64(requests*b.N)/b.Elapsed().Seconds(), "sim-req/s")
	b.ReportMetric(last.Queue.P95*1e3, "p95-queue-ms")
}

// BenchmarkServeSessionCohorts tracks the multi-turn session path: every
// client session issues four turns whose prompts carry the session's
// accumulated context as a growing shared prefix, so session expansion,
// prefix-block growth and hit accounting all run each simulation.
func BenchmarkServeSessionCohorts(b *testing.B) {
	const requests = 256
	spec := serveBenchSpec(b, requests)
	spec.Policy = serve.Paged
	spec.Rate = 2
	spec.Turns = 4
	spec.Think = 5
	perRequest := memfoot.Inference(spec.Model, spec.TP, 1,
		spec.PromptTokens+spec.GenTokens, spec.Precision.Bytes()).KVCache
	spec.KVCapacity = 48 * perRequest
	rn := new(serve.Runner)
	b.ReportAllocs()
	b.ResetTimer()
	var last serve.Result
	for i := 0; i < b.N; i++ {
		res, err := rn.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.StopTimer()
	if last.PrefixHits == 0 {
		b.Fatal("session-cohort bench must hit the session prefix cache")
	}
	b.ReportMetric(float64(requests*b.N)/b.Elapsed().Seconds(), "sim-req/s")
	b.ReportMetric(float64(last.PrefixHits), "pfx-hits/run")
}

// TestServeSimulatorAllocBudget pins the zero-allocation-core refactor
// with a machine-independent proxy: allocations and bytes per 256-request
// simulation, per admission policy and arrival process. The event loop
// itself is allocation-free in steady state (pointer-free request slab,
// index deques, dense pricing tables, reusable percentile scratch), so a
// fresh Run costs its setup and the memory its Result owns — ~35
// allocations (the pointer-per-request era took ~1590) and ~80 KB, most
// of it the 256 × 128-byte ledger and the request slab, since a
// fixed-shape workload draws one shape, not 256 × 72 bytes of them — and
// a pooled Runner re-run, which writes over its own ledger, allocates
// nothing but a session workload's one string of prefix ids. A per-iteration or
// per-request allocation regression — the way `make serve-bench`
// throughput would quietly decay — blows straight through these budgets.
// Wall-clock throughput itself stays a benchmark (BenchmarkServeSimulator*),
// where it belongs.
//
// The closed-loop row pins that a one-shot Run sizes its request slab by
// the requests that can be in flight, its 16 clients, not by its 256
// requests: measured 46 KB, where a request-count slab adds 30 KB. The
// fixed-shape rows' byte budgets fail a draw of one shape per request,
// 18 KB more: reserve measures 78 KB, and 98 KB with a shape per request;
// closed-loop 46 KB, and 65 KB. Their allocation budgets fail a kernel
// list that builds an op name per priced line (reserve: 30 allocations
// here, 96 then). The sessions row (64 four-turn sessions) pins that
// session expansion merges into the drawn buffers: a pooled run
// allocates only the one string of the sessions' prefix ids, and a fresh
// one measures 120 KB where the sort-based expansion took 144 KB.
// Under -race every fresh byte budget is scaled by raceBytes, since the
// instrumented build allocates the temporary of every slices.Grow (the
// closed-loop row measures 86 KB). A pooled budget is the row's own
// allocations plus poolSlack.
func TestServeSimulatorAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		name string
		// freshAllocs/freshBytes are the measured fresh-run counts and
		// bytes with ~2.5× and ~20% headroom for toolchain drift.
		// pooledAllocs/pooledBytes are exact: a pooled run builds its
		// admission policy in place, defaults its workload and draws its
		// stream without allocating, so it measures 0, except the
		// sessions row's one string of 64 prefix ids, 247 bytes in a
		// 256-byte size class.
		freshAllocs, pooledAllocs float64
		freshBytes, pooledBytes   float64
		mut                       func(*serve.Spec)
	}{
		{"reserve", 80, 0, 95e3, 0, func(s *serve.Spec) {}},
		{"paged", 80, 0, 95e3, 0, func(s *serve.Spec) {
			s.Policy = serve.Paged
			per := memfoot.Inference(s.Model, s.TP, 1, s.PromptTokens+s.GenTokens, s.Precision.Bytes()).KVCache
			s.KVCapacity = 8 * per
		}},
		{"disagg", 80, 0, 95e3, 0, func(s *serve.Spec) {
			s.Policy = serve.Disaggregated
			s.TransferGBps = 50
			per := memfoot.Inference(s.Model, s.TP, 1, s.PromptTokens+s.GenTokens, s.Precision.Bytes()).KVCache
			s.KVCapacity = 12 * per
		}},
		{"prefix+tiered", 80, 0, 95e3, 0, func(s *serve.Spec) {
			s.Policy = serve.Paged
			s.PrefixTokens = 64
			per := memfoot.Inference(s.Model, s.TP, 1, s.PromptTokens+s.GenTokens, s.Precision.Bytes()).KVCache
			s.KVCapacity = 8 * per
			s.HostKVBytes = 16 * per
			s.SwapGBps = serve.DefaultSwapGBps
		}},
		{"bursty", 80, 0, 95e3, 0, func(s *serve.Spec) {
			s.Rate = 0
			s.Schedule = workload.Schedule{
				{Start: 0, End: 30, Rate: 1},
				{Start: 30, End: 45, Rate: 16},
				{Start: 45, End: 90, Rate: 2},
			}
		}},
		{"sessions", 140, 1, 140e3, 256, func(s *serve.Spec) {
			s.Policy = serve.Paged
			s.Turns, s.Think = 4, 5
			per := memfoot.Inference(s.Model, s.TP, 1, s.PromptTokens+s.GenTokens, s.Precision.Bytes()).KVCache
			s.KVCapacity = 8 * per
		}},
		{"closed-loop", 80, 0, 55e3, 0, func(s *serve.Spec) {
			s.Arrival = serve.ClosedLoop
			s.Rate = 0
			s.Clients = 16
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := serveBenchSpec(t, 256)
			tc.mut(&spec)
			allocs, bytes := allocsPerRun(5, func() {
				if _, err := serve.Run(spec); err != nil {
					t.Fatal(err)
				}
			})
			if budget := tc.freshBytes * raceBytes(); allocs > tc.freshAllocs || bytes > budget {
				t.Errorf("fresh Run: %v allocs and %v bytes per 256-request simulation, budget %v and %v — a hot-path allocation crept in",
					allocs, bytes, tc.freshAllocs, budget)
			}
			rn := new(serve.Runner)
			allocs, bytes = allocsPerRun(50, func() {
				if _, err := rn.Run(spec); err != nil {
					t.Fatal(err)
				}
			})
			slackAllocs, slackBytes := poolSlack()
			allocBudget, budget := tc.pooledAllocs+slackAllocs, tc.pooledBytes+slackBytes
			if allocs > allocBudget || bytes > budget {
				t.Errorf("pooled Run: %v allocs and %v bytes per 256-request simulation, budget %v and %v — the Runner reuse seam is leaking",
					allocs, bytes, allocBudget, budget)
			}
		})
	}
}

// raceEnabled is set in a -race build (race_test.go).
var raceEnabled bool

// poolSlack bounds what the arrival generators' sync.Pool adds to a
// pooled serving run, averaged over the 50 runs measured: a GC during the
// measurement registers the pool again (2 allocations, 264 B) and may
// drop its generator (2 allocations and 5.4 KB to build one again), once
// per GC rather than per run; under -race sync.Pool also drops a quarter
// of what is put back, up to every run's one generator.
func poolSlack() (allocs, bytes float64) {
	if raceEnabled {
		return 2, 5.5e3
	}
	return 0.5, 1e3
}

// raceBytes is the factor a byte budget is scaled by in this build: the
// race detector's instrumentation allocates the temporary of every
// slices.Grow, which adds up to 30% to a fresh serving run's bytes.
func raceBytes() float64 {
	if raceEnabled {
		return 1.35
	}
	return 1
}

// TestRunResultsAreTheCallers: the package-level serve.Run and
// cluster.Run return Results that no later run writes over — neither a
// later package-level run nor a pooled Runner's, which writes over its
// own ledgers and tenant breakdowns.
func TestRunResultsAreTheCallers(t *testing.T) {
	spec := serveBenchSpec(t, 64)
	fleet := clusterBenchSpec(t, 2, cluster.LeastQueue, 64)
	res, err := serve.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	fres, err := cluster.Run(fleet)
	if err != nil {
		t.Fatal(err)
	}
	want, fwant := slices.Clone(res.PerRequest), slices.Clone(fres.PerRequest)
	replica := slices.Clone(fres.PerReplica[0].Result.PerRequest)
	tenants, ftenants := slices.Clone(res.PerTenant), slices.Clone(fres.PerTenant)
	rtenants := slices.Clone(fres.PerReplica[0].Result.PerTenant)
	spec.Seed, spec.Rate = 2, 8
	fleet.Seed, fleet.Rate = 2, 16
	rn, frn := new(serve.Runner), new(cluster.Runner)
	for range 2 {
		if _, err := serve.Run(spec); err != nil {
			t.Fatal(err)
		}
		if _, err := rn.Run(spec); err != nil {
			t.Fatal(err)
		}
		if _, err := cluster.Run(fleet); err != nil {
			t.Fatal(err)
		}
		if _, err := frn.Run(fleet); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(res.PerRequest, want) {
		t.Error("later runs wrote over serve.Run's PerRequest")
	}
	if !reflect.DeepEqual(fres.PerRequest, fwant) || !reflect.DeepEqual(fres.PerReplica[0].Result.PerRequest, replica) {
		t.Error("later runs wrote over cluster.Run's PerRequest or a replica's")
	}
	if !reflect.DeepEqual(res.PerTenant, tenants) || !reflect.DeepEqual(fres.PerTenant, ftenants) ||
		!reflect.DeepEqual(fres.PerReplica[0].Result.PerTenant, rtenants) {
		t.Error("later runs wrote over a package-level run's PerTenant or a replica's")
	}
}

// BenchmarkServeSimulatorClosedLoop exercises the closed-loop arrival path
// (completion-driven arrivals, engine never idle).
func BenchmarkServeSimulatorClosedLoop(b *testing.B) {
	const requests = 256
	spec := serveBenchSpec(b, requests)
	spec.Arrival = serve.ClosedLoop
	spec.Rate = 0
	spec.Clients = 16
	rn := new(serve.Runner)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rn.Run(spec); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(requests*b.N)/b.Elapsed().Seconds(), "sim-req/s")
}
