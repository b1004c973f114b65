// Cluster-serving walks the multi-replica fleet simulator from a sanity
// anchor to an automatic capacity answer.
//
// Production deployments rarely serve a model from one instance: a router
// spreads a shared arrival stream over R replicas, and the operator's
// questions move up a level — which routing policy meets the SLO, how the
// fleet degrades as replicas are heterogeneous, and what arrival rate a
// given fleet can absorb before the tail latency knee. The cluster package
// answers those with the same determinism discipline as the single-instance
// simulator: one seeded arrival stream, replicas interleaved in arrival
// order, and a merge that is byte-identical at any GOMAXPROCS.
//
// Step 1 anchors the model: a fleet of one replica reproduces the plain
// serving simulator byte for byte. Step 2 compares routing policies on a
// saturated homogeneous fleet — load-aware routing (least-queue) beats
// blind round-robin exactly when queues build. Step 3 makes the fleet
// heterogeneous (one big-batch replica, two small ones) where least-loaded
// routing earns its barrier. Step 4 asks the capacity question directly:
// FindClusterKnee bisects the arrival rate to the knee where fleet p95 E2E
// first exceeds the SLO, and step 5 hands fleet size and routing to the
// sweep engine as grid axes.
//
// Run with: go run ./examples/cluster-serving [model]
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"optimus"
)

func main() {
	modelName := "llama2-13b"
	if len(os.Args) > 1 {
		modelName = os.Args[1]
	}
	cfg, err := optimus.ModelByName(modelName)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := optimus.NewSystem("h100", 1, "nvlink4", "ndr")
	if err != nil {
		log.Fatal(err)
	}
	capacity := optimus.ServeSpec{
		Model: cfg, System: sys, TP: 1, Precision: optimus.FP16,
		Policy: optimus.PagedPolicy,
	}

	// --- Step 1: the degenerate anchor ------------------------------------
	// A fleet of one is the plain simulator; if these rows ever diverge,
	// the router or the merge broke.
	single := optimus.ServeSpec{
		Model: cfg, System: sys, TP: 1, Precision: optimus.FP16,
		Policy:       optimus.PagedPolicy,
		PromptTokens: 200, GenTokens: 200,
		Arrival: optimus.PoissonArrivals, Rate: 2, Requests: 128, Seed: 1,
	}
	singleRes, err := optimus.Serve(single)
	if err != nil {
		log.Fatal(err)
	}
	fleet1 := optimus.ClusterSpec{
		Replicas:     []optimus.ClusterReplica{{Spec: capacity, Count: 1}},
		PromptTokens: 200, GenTokens: 200,
		Rate: 2, Requests: 128, Seed: 1,
	}
	fleet1Res, err := optimus.ServeCluster(fleet1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s on 1 x H100 per replica, 200+200-token requests\n\n", cfg)
	fmt.Println("step 1: a fleet of one == the plain simulator, byte for byte")
	fmt.Printf("  %-14s e2e-p95 %.3fs  ttft-p95 %.3fs  tok/s %.0f\n",
		"serve.Run", singleRes.E2E.P95, singleRes.TTFT.P95, singleRes.TokensPerSec)
	fmt.Printf("  %-14s e2e-p95 %.3fs  ttft-p95 %.3fs  tok/s %.0f\n\n",
		"cluster R=1", fleet1Res.E2E.P95, fleet1Res.TTFT.P95, fleet1Res.TokensPerSec)

	// --- Step 2: routing policies on a saturated fleet --------------------
	// Three batch-capped replicas under a stream fast enough that queues
	// form. Round-robin splits arrivals blind; least-queue routes each to
	// the emptiest replica; least-kv to the replica with the most free KV
	// pages; tenant-affinity pins tenants (one tenant here, so it
	// degenerates to a single hot replica — the worst case on purpose).
	capped := capacity
	capped.MaxBatch = 4
	fmt.Println("step 2: routing a 3-replica fleet at 6 req/s (batch cap 4)")
	fmt.Printf("  %-18s %10s %10s %10s %10s\n", "routing", "e2e-p95", "queue-p95", "makespan", "tok/s")
	for _, rt := range []optimus.ClusterRouting{
		optimus.RoundRobinRouting, optimus.LeastQueueRouting,
		optimus.LeastKVRouting, optimus.TenantAffinityRouting,
	} {
		res, cerr := optimus.ServeCluster(optimus.ClusterSpec{
			Replicas:     []optimus.ClusterReplica{{Spec: capped, Count: 3}},
			Routing:      rt,
			PromptTokens: 200, GenTokens: 200,
			Rate: 6, Requests: 192, Seed: 1,
		})
		if cerr != nil {
			log.Fatal(cerr)
		}
		fmt.Printf("  %-18v %9.3fs %9.3fs %9.3fs %10.0f\n",
			rt, res.E2E.P95, res.Queue.P95, res.SimTime, res.TokensPerSec)
	}

	// --- Step 3: a heterogeneous fleet ------------------------------------
	// One replica with headroom (cap 8) next to two constrained ones (cap
	// 2): blind round-robin overloads the small replicas while load-aware
	// routing shifts the excess to the big one.
	big, small := capacity, capacity
	big.MaxBatch, small.MaxBatch = 8, 2
	fmt.Println("\nstep 3: heterogeneous capacity (1 big + 2 small replicas) at 6 req/s")
	fmt.Printf("  %-18s %10s %10s   per-replica assignments\n", "routing", "e2e-p95", "queue-p95")
	for _, rt := range []optimus.ClusterRouting{optimus.RoundRobinRouting, optimus.LeastQueueRouting} {
		res, cerr := optimus.ServeCluster(optimus.ClusterSpec{
			Replicas: []optimus.ClusterReplica{
				{Spec: big, Count: 1}, {Spec: small, Count: 2},
			},
			Routing:      rt,
			PromptTokens: 200, GenTokens: 200,
			Rate: 6, Requests: 192, Seed: 1,
		})
		if cerr != nil {
			log.Fatal(cerr)
		}
		caps := []int{big.MaxBatch, small.MaxBatch}
		fmt.Printf("  %-18v %9.3fs %9.3fs   ", rt, res.E2E.P95, res.Queue.P95)
		for _, rr := range res.PerReplica {
			fmt.Printf("r%d(cap%d)=%d ", rr.Index, caps[rr.Descriptor], rr.Assigned)
		}
		fmt.Println()
	}

	// --- Step 4: the saturation knee --------------------------------------
	// The capacity question an operator actually asks: how fast can this
	// fleet go before p95 E2E crosses the SLO? FindClusterKnee bisects the
	// arrival rate; the probe transcript is deterministic and cheap enough
	// to rerun in CI.
	slo := 8.0
	knee, err := optimus.FindClusterKnee(optimus.ClusterKneeSpec{
		Cluster: optimus.ClusterSpec{
			Replicas:     []optimus.ClusterReplica{{Spec: capped, Count: 3}},
			Routing:      optimus.LeastQueueRouting,
			PromptTokens: 200, GenTokens: 200,
			Requests: 192, Seed: 1,
		},
		SLOE2EP95: slo, MinRate: 0.5, MaxRate: 16,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstep 4: bisecting the saturation knee against a %.0fs p95-E2E SLO\n", slo)
	if knee.Saturated {
		fmt.Printf("  knee at %.3g req/s (p95 %.3fs); first violation at %.3g req/s (p95 %.3fs)\n",
			knee.Rate, knee.P95E2E, knee.LimitRate, knee.LimitP95)
	} else {
		fmt.Printf("  unsaturated through %.3g req/s (p95 %.3fs)\n", knee.Rate, knee.P95E2E)
	}
	fmt.Printf("  %d probes: ", len(knee.Probes))
	for _, p := range knee.Probes {
		fmt.Printf("%.3g→%.2fs ", p.Rate, p.P95E2E)
	}
	fmt.Println()

	// --- Step 5: fleet size and routing as sweep axes ---------------------
	// The same grid machinery that ranks policies and pool splits ranks
	// fleets: Replicas=0 is the single-instance baseline, and the routing
	// axis collapses to round-robin for fleets of one (identical behavior,
	// one memo key).
	fmt.Println("\nstep 5: fleet size and routing as grid axes (ranked by p95 E2E)")
	res, err := optimus.Sweep(context.Background(), optimus.SweepSpec{
		Workload:  optimus.ServingSweep,
		Models:    []optimus.Model{cfg},
		Systems:   []*optimus.System{sys},
		Rates:     []float64{6},
		BatchCaps: []int{4},
		Replicas:  []int{0, 2, 3},
		Routings: []optimus.ClusterRouting{
			optimus.RoundRobinRouting, optimus.LeastQueueRouting,
		},
		Seqs:          []int{200},
		GenTokens:     []int{200},
		ServeRequests: 96,
		Constraints:   optimus.PlanConstraints{TopK: 10},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %s\n", res.Stats)
	for i, row := range res.Rows {
		p := row.Point
		fleet := "single instance"
		if p.Replicas > 0 {
			fleet = fmt.Sprintf("R=%d %v", p.Replicas, p.Routing)
		}
		fmt.Printf("  %2d. %-22s e2e-p95 %7.3fs  ttft-p95 %7.3fs  tok/s %6.0f\n",
			i+1, fleet, row.Metrics.Time, row.Metrics.TTFTP95, row.Metrics.TokensPerSec)
	}
}
