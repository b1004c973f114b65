// Bursty-serving walks the temporal workload knobs: piecewise
// arrival-rate schedules (diurnal quiet/burst traffic), heavy-tailed
// request lengths, and multi-turn session cohorts whose growing context
// exercises the paged policy's prefix cache.
//
// Step 1 serves the same average load twice — once as a constant Poisson
// rate, once as a quiet-burst-quiet schedule — and shows the burst
// blowing up queueing and tail latency that the average rate hides.
// Step 2 swaps the fixed request shape for a heavy-tailed lognormal mix:
// the median request is unchanged, but rare long prompts and answers
// stretch the tail.
// Step 3 expands single-shot clients into multi-turn session cohorts:
// each turn's prompt carries the session's prior context as a growing
// shared prefix, so deeper sessions lift the prefix-cache hit rate and
// the prefill tokens it saves.
// Step 4 hands the schedule and the session depth to the sweep engine as
// grid axes, ranking flat vs bursty × one-shot vs cohort candidates in
// one deterministic grid.
//
// Run with: go run ./examples/bursty-serving [model]
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
	sys, err := optimus.NewSystem("a100", 1, "nvlink3", "ndr")
	if err != nil {
		log.Fatal(err)
	}

	base := optimus.ServeSpec{
		Model: cfg, System: sys, TP: 1, Precision: optimus.FP16,
		PromptTokens: 400, GenTokens: 150,
		Arrival:  optimus.PoissonArrivals,
		Requests: 256, Seed: 1,
	}

	// --- Step 1: the same average rate, flat vs bursty -------------------
	// A two-minute diurnal miniature: one quiet minute, a 15-second burst
	// at 16 req/s, then a moderate tail. The timeline averages 3.25 req/s.
	sched, err := optimus.ParseServeSchedule("0-60:1,60-75:16,75-120:2")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s on 1 x A100, 400+150-token requests\n\n", cfg)
	fmt.Println("step 1: constant 3.25 req/s vs the same average as a burst")
	fmt.Printf("  %-26s %10s %10s %10s\n", "arrivals", "queue-p95", "ttft-p95", "e2e-p95")
	for _, tc := range []struct {
		label string
		rate  float64
		sched optimus.ServeSchedule
	}{
		{"flat 3.25 req/s", 3.25, nil},
		{optimus.FormatServeSchedule(sched), 0, sched},
	} {
		s := base
		s.Rate, s.Schedule = tc.rate, tc.sched
		res, serr := optimus.Serve(s)
		if serr != nil {
			log.Fatal(serr)
		}
		fmt.Printf("  %-26s %9.3fs %9.3fs %9.3fs\n",
			tc.label, res.Queue.P95, res.TTFT.P95, res.E2E.P95)
	}
	fmt.Println("\nBoth runs serve the same number of requests at the same average")
	fmt.Println("rate, but the burst packs arrivals faster than the engine drains")
	fmt.Println("them — the backlog it builds is what the constant-rate model of the")
	fmt.Println("same traffic never sees.")

	// --- Step 2: heavy-tailed request lengths ----------------------------
	// The ~sigma mix syntax draws each request's lengths from a lognormal
	// around the median, so the typical request is unchanged while rare
	// giants stretch the tail.
	fmt.Println("\nstep 2: fixed 400+150 shapes vs a lognormal mix around them")
	fmt.Printf("  %-26s %10s %10s %8s\n", "mix", "e2e-p50", "e2e-p95", "e2e-max")
	for _, mixSpec := range []string{
		"chat:1:400:150",
		"chat:1:400~0.6:150~0.8",
	} {
		mix, merr := optimus.ParseServeMix(mixSpec)
		if merr != nil {
			log.Fatal(merr)
		}
		s := base
		s.Rate = 3.25
		s.PromptTokens, s.GenTokens = 0, 0
		s.Mix = mix
		res, serr := optimus.Serve(s)
		if serr != nil {
			log.Fatal(serr)
		}
		fmt.Printf("  %-26s %9.3fs %9.3fs %7.3fs\n",
			mixSpec, res.E2E.P50, res.E2E.P95, res.E2E.Max)
	}
	fmt.Println("\nThe median request barely moves; the tail belongs to the rare long")
	fmt.Println("draws, which is where production latency distributions live.")

	// --- Step 3: session cohorts grow a shared prefix --------------------
	// Turn k's prompt replays the session's k-1 prior exchanges as context.
	// The paged policy caches that growing prefix per session: from the
	// third turn on, admission finds the session's context resident, grows
	// it in place, and skips its share of prefill.
	fmt.Println("\nstep 3: session depth vs prefix-cache reuse (paged admission)")
	fmt.Printf("  %-8s %6s %12s %10s %10s\n",
		"turns", "hits", "saved-toks", "ttft-p95", "e2e-p95")
	for _, turns := range []int{1, 2, 4} {
		s := base
		s.Rate = 2
		s.Policy = optimus.PagedPolicy
		s.Turns = turns
		if turns > 1 {
			s.Think = 5
		}
		res, serr := optimus.Serve(s)
		if serr != nil {
			log.Fatal(serr)
		}
		fmt.Printf("  %-8d %6d %12d %9.3fs %9.3fs\n",
			turns, res.PrefixHits, res.PrefixSavedTokens, res.TTFT.P95, res.E2E.P95)
	}
	fmt.Println("\nOne-shot clients have nothing to reuse, and a two-turn session never")
	fmt.Println("hits either: turn 2 materializes context the cache had not seen, so")
	fmt.Println("reuse starts at turn 3. Past that depth, prefix hits and the prefill")
	fmt.Println("tokens they save climb with every extra turn, even as the grown")
	fmt.Println("prompts make each turn individually heavier.")

	// --- Step 4: the schedule and session depth as sweep axes ------------
	fmt.Println("\nstep 4: flat vs bursty × one-shot vs cohorts as a ranked grid")
	res, err := optimus.Sweep(context.Background(), optimus.SweepSpec{
		Workload: optimus.ServingSweep,
		Models:   []optimus.Model{cfg},
		Systems:  []*optimus.System{sys},
		Schedules: []optimus.ServeSchedule{
			{{Start: 0, End: 120, Rate: 3.25}}, // constant → the flat candidate
			sched,                              // the step-1 burst
		},
		Policies:      []optimus.ServePolicy{optimus.PagedPolicy},
		Turns:         []int{1, 4},
		Think:         5,
		Seqs:          []int{400},
		GenTokens:     []int{150},
		ServeRequests: 128,
		Constraints:   optimus.PlanConstraints{TopK: 10},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %s\n", res.Stats)
	for i, row := range res.Rows {
		p := row.Point
		arr := fmt.Sprintf("rate %g", p.Rate)
		if len(p.Schedule) > 0 {
			arr = "sched " + optimus.FormatServeSchedule(p.Schedule)
		}
		shape := "one-shot"
		if p.Turns > 1 {
			shape = fmt.Sprintf("%d-turn", p.Turns)
		}
		fmt.Printf("  %2d. %-8s %-26s p95 %7.3fs  hits %3d  saved %6d\n",
			i+1, shape, arr, row.Metrics.Time,
			row.Metrics.PrefixHits, row.Metrics.PrefixSavedTokens)
	}
	fmt.Println("\nThe constant schedule canonicalizes to the plain-rate candidate, so")
	fmt.Println("the grid stays honest: flat and bursty arrivals, one-shot and cohort")
	fmt.Println("clients, ranked under one deterministic key per candidate.")
}
