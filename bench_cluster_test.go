package optimus

import (
	"fmt"
	"runtime"
	"testing"

	"optimus/internal/cluster"
	"optimus/internal/serve"
	"optimus/internal/workload"
)

// clusterBenchSpec is the cluster-bench workload: the serve-bench capacity
// replicated R times behind a routing policy, under a fleet-wide Poisson
// stream heavy enough that every replica batches several sequences.
func clusterBenchSpec(tb testing.TB, reps int, rt cluster.Routing, requests int) cluster.Spec {
	tb.Helper()
	cap := serveBenchSpec(tb, 0)
	cap.PromptTokens, cap.GenTokens = 0, 0
	cap.Rate, cap.Seed = 0, 0
	return cluster.Spec{
		Replicas:     []cluster.Replica{{Spec: cap, Count: reps}},
		Routing:      rt,
		PromptTokens: 200, GenTokens: 200,
		Rate: 4 * float64(reps), Requests: requests, Seed: 1,
	}
}

// BenchmarkClusterFleet reports fleet-simulation throughput across fleet
// sizes and routing policies — the `make cluster-bench` gate. Round-robin
// picks a replica by index alone; least-queue advances every replica to
// each arrival before it picks, so the two bracket the router's overhead.
func BenchmarkClusterFleet(b *testing.B) {
	const requests = 256
	for _, bench := range []struct {
		reps int
		rt   cluster.Routing
	}{
		{1, cluster.RoundRobin},
		{4, cluster.RoundRobin},
		{4, cluster.LeastQueue},
	} {
		b.Run(fmt.Sprintf("R=%d/%v", bench.reps, bench.rt), func(b *testing.B) {
			spec := clusterBenchSpec(b, bench.reps, bench.rt, requests)
			rn := new(cluster.Runner)
			b.ReportAllocs()
			b.ResetTimer()
			var last cluster.Result
			for i := 0; i < b.N; i++ {
				res, err := rn.Run(spec)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.StopTimer()
			if last.Requests != requests {
				b.Fatalf("fleet completed %d requests, want %d", last.Requests, requests)
			}
			b.ReportMetric(float64(requests*b.N)/b.Elapsed().Seconds(), "req/s")
		})
	}
}

// allocsPerRun averages the heap allocations (count and bytes) of f over
// runs calls after one warm-up call. Unlike testing.AllocsPerRun it counts
// bytes too.
func allocsPerRun(runs int, f func()) (allocs, bytes float64) {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// disaggFleetSpec is the benchmark's fleet shape at a test-sized request
// count: 8 disaggregated replicas behind least-kv routing under a
// lognormal two-tenant mix.
func disaggFleetSpec(tb testing.TB, requests int) cluster.Spec {
	tb.Helper()
	capacity := serveBenchSpec(tb, 0)
	capacity.PromptTokens, capacity.GenTokens = 0, 0
	capacity.Rate, capacity.Seed = 0, 0
	capacity.Policy = serve.Disaggregated
	capacity.PrefillDevices, capacity.DecodeDevices = 1, 1
	mix, err := workload.ParseMix("chat:0.7:300~0.8:150~0.6,batch:0.3:1200~0.5:400")
	if err != nil {
		tb.Fatal(err)
	}
	return cluster.Spec{
		Replicas: []cluster.Replica{{Spec: capacity, Count: 8}},
		Routing:  cluster.LeastKV,
		Mix:      mix, Rate: 24, Requests: requests, Seed: 1,
	}
}

// TestClusterAllocBudget pins the fleet simulator's allocations per run
// (count and bytes) on the benchmark's fleet shape: a fresh and a pooled
// least-kv fleet and a fresh round-robin one. A fresh fleet of eight
// identical replicas builds one step coster and fills one pricing table,
// each replica's request slab holds only its own requests in flight, and
// its summaries merge the replicas' sorted samples instead of copying
// every request into one more ledger: about 380 allocations and 234 KB
// for least-kv and 371 and 223 KB for round-robin (411 and 405
// allocations, 313 and 304 KB under -race). A pooled fleet keeps its
// replicas' ledgers, its merged PerRequest and PerReplica and its summary
// plane, and its workload draws recycle their generators, so it allocates
// no per-request memory: 48 allocations and 15 KB (21 KB under -race),
// where the replicas' ledgers alone would be 256 × 128 bytes and the
// merged PerRequest 256 × 136. Allocation budgets are the measured counts
// with about 2.5× headroom, byte budgets the -race measurements with
// about 1.4×. The instance row
// pins that a replica pushed k requests allocates for k, however long its
// envelope: one envelope-sized request slab alone would be 1,024 × 128
// bytes.
func TestClusterAllocBudget(t *testing.T) {
	const requests = 256
	lkv := disaggFleetSpec(t, requests)
	rr := lkv
	rr.Routing = cluster.RoundRobin
	pooled := new(cluster.Runner)
	for _, tc := range []struct {
		name          string
		allocs, bytes float64
		run           func() (cluster.Result, error)
	}{
		{"least-kv/fresh", 1000, 450e3, func() (cluster.Result, error) { return cluster.Run(lkv) }},
		{"least-kv/pooled", 125, 28e3, func() (cluster.Result, error) { return pooled.Run(lkv) }},
		{"round-robin/fresh", 1000, 450e3, func() (cluster.Result, error) { return cluster.Run(rr) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			allocs, bytes := allocsPerRun(5, func() {
				if _, err := tc.run(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > tc.allocs || bytes > tc.bytes {
				t.Errorf("%v allocs, %v bytes per %d-request fleet run; budget %v allocs, %v bytes",
					allocs, bytes, requests, tc.allocs, tc.bytes)
			}
		})
	}
	t.Run("instance", func(t *testing.T) {
		const k, budget = 16, 48e3
		capacity := lkv.Replicas[0].Spec
		shapes := workload.AppendMixShapes(nil, lkv.Mix, 1024, 1)
		times, _ := workload.ArrivalProcess{Rate: lkv.Rate / 8, Seed: 1}.Generate(lkv.Mix, k, nil, nil)
		for _, n := range []int{k, len(shapes)} {
			env := new(serve.Envelope)
			if err := env.Set(shapes[:n]); err != nil {
				t.Fatal(err)
			}
			_, bytes := allocsPerRun(5, func() {
				in, err := new(serve.Runner).Instance(capacity, env)
				if err != nil {
					t.Fatal(err)
				}
				for i, at := range times {
					if err := in.Push(shapes[i], at); err != nil {
						t.Fatal(err)
					}
				}
				in.Drain()
				if _, err := in.Result(); err != nil {
					t.Fatal(err)
				}
			})
			if bytes > budget {
				t.Errorf("instance pushed %d of a %d-shape envelope: %v bytes, budget %v", k, n, bytes, budget)
			}
		}
	})
}
