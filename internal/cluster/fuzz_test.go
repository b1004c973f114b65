package cluster

import (
	"encoding/json"
	"math"
	"testing"

	"optimus/internal/serve"
	"optimus/internal/workload"
)

// FuzzParseRouting: whatever the input, ParseRouting must never panic, and
// any name it accepts must round-trip through String back to the same
// policy — the property that keeps CLI flags, JSON artifacts and sweep
// fingerprints naming one routing consistently.
func FuzzParseRouting(f *testing.F) {
	for _, r := range routings {
		f.Add(r.String())
	}
	f.Add("rr")
	f.Add("lq")
	f.Add("lkv")
	f.Add("affinity")
	f.Add("")
	f.Add("Round-Robin")
	f.Add("least-kv ")
	f.Fuzz(func(t *testing.T, s string) {
		r, err := ParseRouting(s)
		if err != nil {
			return
		}
		if !r.valid() {
			t.Fatalf("ParseRouting(%q) accepted invalid routing %d", s, int(r))
		}
		back, err := ParseRouting(r.String())
		if err != nil || back != r {
			t.Fatalf("routing %v does not round-trip through its name %q: %v", r, r.String(), err)
		}
	})
}

// FuzzClusterSpecValidate: Validate must never panic on any field
// combination — including nil systems, garbage counts and smuggled
// workload fields — and whenever it accepts a spec with a small workload,
// Run must complete every request.
func FuzzClusterSpecValidate(f *testing.F) {
	cap0 := capacity0(f)

	// count1, count2, routing, prompt, gen, rate, requests, seed,
	// replicaPrompt, replicaRate, maxBatch, kvCapacity
	f.Add(1, 0, int8(0), 200, 200, 1.0, 8, int64(1), 0, 0.0, 0, 0.0)
	f.Add(2, 1, int8(1), 150, 100, 2.0, 8, int64(2), 0, 0.0, 4, 3e9)
	f.Add(1, 1, int8(2), 200, 200, 1.0, 6, int64(3), 0, 0.0, 0, 0.0)
	f.Add(1, 0, int8(3), 200, 200, 1.0, 6, int64(4), 0, 0.0, 0, 0.0)
	f.Add(-1, 0, int8(0), 200, 200, 1.0, 8, int64(1), 0, 0.0, 0, 0.0)  // negative count
	f.Add(0, 0, int8(0), 200, 200, 1.0, 8, int64(1), 0, 0.0, 0, 0.0)   // all-default counts
	f.Add(1, 0, int8(9), 200, 200, 1.0, 8, int64(1), 0, 0.0, 0, 0.0)   // unknown routing
	f.Add(1, 0, int8(0), 200, 200, 0.0, 8, int64(1), 0, 0.0, 0, 0.0)   // zero rate
	f.Add(1, 0, int8(0), 200, 200, 1.0, 8, int64(1), 100, 0.0, 0, 0.0) // replica workload smuggled
	f.Add(1, 0, int8(0), 200, 200, 1.0, 8, int64(1), 0, 1.0, 0, 0.0)   // replica arrival smuggled
	f.Add(1, 0, int8(0), 0, 0, 1.0, 8, int64(1), 0, 0.0, 0, 0.0)       // empty workload
	f.Add(1, 0, int8(0), 200, 200, 1.0, -4, int64(1), 0, 0.0, -2, 0.0) // negative counts
	f.Add(1, 0, int8(0), 200, 200, 1.0, 8, int64(1), 0, 0.0, 0, 1e6)   // KV too small
	// The two counts sum past MaxInt and wrap negative.
	f.Add(math.MaxInt, 1, int8(0), 200, 200, 1.0, 8, int64(1), 0, 0.0, 0, 0.0)

	f.Fuzz(func(t *testing.T, count1, count2 int, routing int8,
		prompt, gen int, rate float64, requests int, seed int64,
		replicaPrompt int, replicaRate float64, maxBatch int, kvCapacity float64) {
		c1 := cap0
		c1.PromptTokens = replicaPrompt
		c1.Rate = replicaRate
		c1.MaxBatch = maxBatch
		c1.KVCapacity = kvCapacity
		reps := []Replica{{Spec: c1, Count: count1}}
		if count2 != 0 {
			c2 := cap0
			c2.Policy = serve.Paged
			c2.KVCapacity = 3e9
			reps = append(reps, Replica{Spec: c2, Count: count2})
		}
		s := Spec{
			Replicas:     reps,
			Routing:      Routing(routing),
			PromptTokens: prompt, GenTokens: gen,
			Rate: rate, Requests: requests, Seed: seed,
		}
		err := s.Validate() // must not panic, whatever the fields
		if err != nil {
			return
		}
		if requests > 0 && requests <= 8 && gen <= 64 && prompt <= 4096 && count1+count2 <= 4 {
			res, runErr := Run(s)
			if runErr != nil {
				t.Fatalf("validated fleet failed to run: %v (%+v)", runErr, s)
			}
			if res.Requests != requests {
				t.Fatalf("fleet completed %d of %d requests", res.Requests, requests)
			}
		}
	})
}

// FuzzOneReplicaFleet is the differential harness behind
// TestSingleReplicaReproducesServe: over generated workloads — two-tenant
// mixes with heavy-tail sigmas and shared prefixes, rate schedules and
// session cohorts — under every admission policy and behind every router,
// each spec cluster.Spec.Validate accepts must run, and its one-replica
// fleet's replica Result must equal serve.Run's byte for byte.
func FuzzOneReplicaFleet(f *testing.F) {
	cap0 := capacity0(f)

	// policy, routing, prompt, gen, promptSigma, genSigma, second tenant,
	// prefix, turns, think, schedule, rate, requests, seed, maxBatch, kvGB
	f.Add(uint8(0), uint8(0), 200, 200, 0.0, 0.0, false, 0, 0, 0.0, false, 2.0, 12, int64(1), 0, 0.0)
	f.Add(uint8(0), uint8(1), 300, 150, 0.8, 0.6, true, 0, 0, 0.0, false, 2.0, 12, int64(1), 0, 0.0)
	f.Add(uint8(1), uint8(2), 300, 150, 0.8, 0.6, true, 32, 0, 0.0, false, 4.0, 12, int64(3), 0, 12.0)
	f.Add(uint8(2), uint8(3), 300, 150, 0.8, 0.6, true, 0, 0, 0.0, true, 2.0, 12, int64(7), 4, 12.0)
	f.Add(uint8(1), uint8(1), 200, 100, 0.0, 0.5, false, 0, 3, 2.0, false, 3.0, 12, int64(5), 0, 3.0)
	f.Add(uint8(1), uint8(2), 120, 40, 0.0, 0.0, true, 0, 2, 0.0, true, 8.0, 12, int64(9), 2, 1.0)

	f.Fuzz(func(t *testing.T, policy, routing uint8, prompt, gen int, promptSigma, genSigma float64, second bool,
		prefix, turns int, think float64, schedule bool, rate float64, requests int, seed int64, maxBatch int, kvGB float64) {
		if prompt > 2048 || gen > 256 || requests > 16 || promptSigma > 1.5 || genSigma > 1.5 {
			return // accepted, perhaps, but too long a simulation per fuzz input
		}
		w := workload.Spec{
			Mix: []workload.TenantLoad{{Tenant: "chat", Share: 0.7, PromptTokens: prompt, GenTokens: gen,
				PromptSigma: promptSigma, GenSigma: genSigma}},
			Turns: turns, Think: think, Requests: requests, Seed: seed, Rate: rate,
		}
		if prefix != 0 {
			w.Mix[0].PrefixID, w.Mix[0].PrefixTokens = "sys", prefix
		}
		if second {
			w.Mix = append(w.Mix, workload.TenantLoad{Tenant: "batch", Share: 0.3, PromptTokens: 4 * prompt, GenTokens: gen / 2,
				PromptSigma: promptSigma / 2})
		}
		if schedule {
			w.Rate = 0
			w.Schedule = workload.Schedule{{Start: 0, End: 2, Rate: rate}, {Start: 2, End: 4, Rate: 4 * rate}}
		}
		cap := cap0
		cap.Policy = serve.Policy(policy % 3)
		cap.MaxBatch = maxBatch
		cap.KVCapacity = kvGB * 1e9
		fleet := Spec{Replicas: []Replica{{Spec: cap}}, Routing: routings[int(routing)%len(routings)]}
		fleet.SetWorkload(w)
		if fleet.Validate() != nil {
			return
		}
		single := cap
		single.SetWorkload(w)
		want, err := serve.Run(single)
		if err != nil {
			t.Fatalf("fleet-valid spec rejected by serve.Run: %v", err)
		}
		got, err := Run(fleet)
		if err != nil {
			t.Fatalf("validated fleet failed to run: %v", err)
		}
		jw, _ := json.Marshal(want)
		jg, _ := json.Marshal(got.PerReplica[0].Result)
		if string(jw) != string(jg) {
			t.Fatalf("one-replica fleet diverges from serve.Run: E2E p95 %g vs %g, %d vs %d iterations, MaxBatch %d vs %d",
				got.PerReplica[0].Result.E2E.P95, want.E2E.P95, got.PerReplica[0].Result.Iterations, want.Iterations,
				got.PerReplica[0].Result.MaxBatch, want.MaxBatch)
		}
	})
}
