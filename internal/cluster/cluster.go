// Package cluster simulates a multi-replica LLM serving fleet: R
// independent internal/serve simulations behind a pluggable routing
// policy, all fed from one seeded arrival stream the router splits
// deterministically. It is the composition step above internal/serve that
// RAPID-LLM-style fleet analysis needs — the paper models one instance;
// production serves its traffic from N replicas behind a router, and fleet
// SLOs are dominated by where requests land.
//
// Replicas are heterogeneous capacity descriptors: each carries its own
// serve.Spec (system, precision, TP, admission policy, pool split), so a
// mixed fleet — say four paged H100 boxes plus two disaggregated A100
// pairs — falls out of listing them. The whole fleet runs on the
// caller's goroutine, in one loop over the arrival stream: pick a
// replica, push the arrival into it, and drain every replica once the
// stream ends. A replica's result depends only on its own push sequence,
// so interleaving the replicas' pushes in arrival order reproduces each
// one's result exactly as a serial replay of its share would. The
// load-aware routing policies first advance every replica to the arrival
// instant and sample their loads there; each replica's state at that
// barrier is a pure function of the requests pushed so far. Results merge
// in replica-index order with global-ID remapping, so a fleet Result is
// byte-identical at any GOMAXPROCS. A replica is armed like serve.Run, on
// the envelope of the whole stream, so it prices exactly as a
// single-replica Run: through a pricing table it shares with every
// replica of an equal step-cost key, each slot of which is a pure
// function of that key. The fleet summaries merge the replicas' sorted
// latency samples rather than sort them again.
package cluster

import (
	"fmt"
	"slices"

	"optimus/internal/serve"
	"optimus/internal/workload"
)

// Replica is one fleet capacity descriptor: a serve.Spec carrying capacity
// only (model/system/precision, batching and KV limits, admission policy —
// its workload and arrival fields must be zero; the router owns the
// stream), instantiated Count times.
type Replica struct {
	Spec serve.Spec
	// Count instantiates this descriptor as that many identical replicas;
	// zero means 1.
	Count int
}

// Spec fixes one fleet simulation: the replicas, the routing policy, and
// the fleet-wide workload.
type Spec struct {
	// Replicas lists the fleet's capacity descriptors in routing order
	// (replica indices follow the expansion of Counts).
	Replicas []Replica
	// Routing selects the router policy; the zero value is RoundRobin.
	Routing Routing

	// The workload has serve.Spec's fields and meaning minus the closed
	// loop, replica-local feedback a router cannot see; Workload and
	// SetWorkload convert it to a workload.Spec. The router may split a
	// session's turns across replicas, so each replica's prefix cache
	// warms independently — a routing-policy effect worth measuring.
	PromptTokens int
	GenTokens    int
	PrefixTokens int
	Mix          []workload.TenantLoad
	Trace        []workload.TraceEvent
	Rate         float64
	Requests     int
	Seed         int64
	Schedule     workload.Schedule
	Turns        int
	Think        float64
}

// Workload returns the fleet workload's description; SetWorkload
// replaces it. A fleet has no closed-loop process: SetWorkload drops
// Closed and Clients, and Workload never sets them.
func (s Spec) Workload() workload.Spec {
	return workload.Spec{
		PromptTokens: s.PromptTokens, GenTokens: s.GenTokens, PrefixTokens: s.PrefixTokens,
		Mix: s.Mix, Trace: s.Trace,
		Rate: s.Rate, Schedule: s.Schedule, Turns: s.Turns, Think: s.Think,
		Requests: s.Requests, Seed: s.Seed,
	}
}

// SetWorkload replaces the spec's workload fields with w's.
func (s *Spec) SetWorkload(w workload.Spec) {
	s.PromptTokens, s.GenTokens, s.PrefixTokens = w.PromptTokens, w.GenTokens, w.PrefixTokens
	s.Mix, s.Trace = w.Mix, w.Trace
	s.Rate, s.Schedule, s.Turns, s.Think = w.Rate, w.Schedule, w.Turns, w.Think
	s.Requests, s.Seed = w.Requests, w.Seed
}

// MaxReplicas bounds a fleet's expanded size, the sum of its
// descriptors' counts: Run builds one simulator per replica, so an
// unbounded count would exhaust memory before the first arrival.
const MaxReplicas = 4096

// Validate checks the fleet spec: at least one replica and a known
// routing policy, the workload once for the whole fleet, then each
// descriptor — a non-negative count, a fleet of at most MaxReplicas, and
// a pure capacity spec that can serve the workload's largest request.
func (s Spec) Validate() error {
	if len(s.Replicas) == 0 {
		return fmt.Errorf("cluster: fleet needs at least one replica")
	}
	if !s.Routing.valid() {
		return fmt.Errorf("cluster: unknown routing policy %v", s.Routing)
	}
	w := s.Workload()
	if w.Trace == nil || len(w.Trace) > 0 { // an empty trace is named as empty first
		if err := workload.Check(w.SetFields(), fleetField); err != nil {
			return fmt.Errorf("cluster: workload: %w", err)
		}
	}
	if err := w.Validate(); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	total := 0
	for i, r := range s.Replicas {
		if r.Count < 0 {
			return fmt.Errorf("cluster: replica %d: negative count %d", i, r.Count)
		}
		// Compared before it is added, so the running total cannot overflow.
		n := max(r.Count, 1)
		if n > MaxReplicas-total {
			return fmt.Errorf("cluster: replica %d: count %d expands the fleet beyond the %d-replica limit", i, r.Count, MaxReplicas)
		}
		total += n
		if err := r.Spec.ValidateCapacity(w); err != nil {
			return fmt.Errorf("cluster: replica %d: %w", i, err)
		}
	}
	return nil
}

// fleetField names a workload field as cluster.Spec spells it: as
// serve.Spec does, less the closed-loop Arrival and Clients a fleet lacks
// ("" leaves them out of the rules' messages).
func fleetField(f workload.Field) string {
	if f == workload.FieldClosed || f == workload.FieldClients {
		return ""
	}
	return f.String()
}

// RequestMetrics is one completed request in the fleet-merged view: the
// per-request timeline with its global arrival index as ID, plus the
// replica that served it.
type RequestMetrics struct {
	serve.RequestMetrics
	Replica int
}

// ReplicaResult is one replica's share of the fleet simulation.
type ReplicaResult struct {
	// Index is the replica's position in the expanded fleet; Descriptor
	// the index of the Spec.Replicas entry it was instantiated from.
	Index      int
	Descriptor int
	// Assigned counts the requests the router sent here.
	Assigned int
	// Result is the replica's own serve-level result (request IDs are
	// replica-local push indices; the fleet view remaps them).
	Result serve.Result
}

// Result is the outcome of one fleet simulation.
type Result struct {
	// Requests is the completed request count; Replicas the expanded
	// fleet size; Routing echoes the router policy.
	Requests int
	Replicas int
	Routing  Routing
	// SimTime is the fleet makespan (the slowest replica's last
	// completion); ThroughputRPS and TokensPerSec are fleet totals over
	// it.
	SimTime       float64
	ThroughputRPS float64
	TokensPerSec  float64

	// TTFT, TPOT, E2E and Queue are the fleet-wide SLO percentile
	// summaries over every completed request.
	TTFT  serve.Percentiles
	TPOT  serve.Percentiles
	E2E   serve.Percentiles
	Queue serve.Percentiles

	// Preemptions, RecomputedTokens, KVTransfers and TransferTimeTotal
	// sum the per-replica counters, as do the prefix-cache and host-tier
	// counters below (all zero on fleets without those mechanisms).
	Preemptions       int
	RecomputedTokens  int
	KVTransfers       int
	TransferTimeTotal float64
	PrefixHits        int
	PrefixSavedTokens int
	KVSwapOuts        int
	KVSwapIns         int
	SwapTimeTotal     float64

	// PerTenant is the fleet-wide tenant breakdown (the multi-tenant SLO
	// surface, now spanning replicas).
	PerTenant []serve.TenantMetrics
	// PerReplica holds each replica's share, in replica-index order.
	PerReplica []ReplicaResult
	// PerRequest is the fleet-merged request view, ordered by global
	// arrival index.
	PerRequest []RequestMetrics
}

// Runner pools fleet simulation state across runs: one serve.Runner per
// replica slot and the fleet's envelope, so every replica's slabs,
// ledger and scratch, and the pricing tables the replicas share, survive
// from one fleet simulation to the next — the steady state of a rate
// sweep or a knee bisection re-running one fleet at many rates.
// A Runner is NOT safe for concurrent use and supports one live fleet
// simulation at a time; results are byte-identical to the package-level
// Run (TestClusterRunnerReuseMatchesFresh). The zero Runner is ready to
// use; its replica slots grow on first use.
//
// A Result from the Runner's Run refers to the Runner's memory: its
// PerRequest, its PerReplica and each replica's own PerRequest are
// written over by the Runner's next Run. A caller that keeps them past
// that copies them first; a caller that reads only the summaries, as a
// sweep or a knee search does, allocates no per-request memory in steady
// state. The package-level Run returns a Result the caller owns.
type Runner struct {
	reps []*serve.Runner
	// env is the fleet's envelope, on which every replica is armed and
	// whose pricing tables the replicas share; made by the first Run.
	env *serve.Envelope
	// times and shapes hold the fleet stream; assign holds each arrival's
	// replica.
	times  []float64
	shapes []workload.Request
	assign []int32
	// instances, perReplica and perRequest back the last Run's replicas
	// and its Result's PerReplica and PerRequest; plane is the fleet
	// summary's merge buffer.
	instances  []*serve.Instance
	perReplica []ReplicaResult
	perRequest []RequestMetrics
	plane      []float64
}

// Run executes the fleet simulation: generate the seeded fleet-wide
// arrival stream (byte-identical to what serve.Run would generate for the
// same workload), route every arrival to a replica and push it there,
// drain the replicas, and merge per-replica results into the fleet view
// deterministically.
func Run(s Spec) (Result, error) { return new(Runner).Run(s) }

// Run is the pooled form of the package-level Run: replica instances are
// re-armed from the Runner's per-slot serve.Runners, and the stream
// reuses the Runner's buffers, instead of being built fresh.
func (rn *Runner) Run(s Spec) (Result, error) {
	if err := s.Validate(); err != nil {
		return Result{}, err
	}

	// The fleet arrival stream, through the same workload.Spec.Stream
	// serve.Run draws from — byte-identical timestamps and shapes for the
	// same workload and seed.
	times, shapes := s.Workload().WithDefaults().Stream(rn.times[:0], rn.shapes[:0])
	rn.times, rn.shapes = times, shapes
	// Every replica is built on the whole stream's shapes, so each prices
	// exactly as a single-replica Run of the fleet workload would.
	if rn.env == nil {
		rn.env = new(serve.Envelope)
	}
	env := rn.env
	if err := env.Set(shapes); err != nil {
		return Result{}, err
	}

	// Flatten the descriptors' Counts (zero instantiates one) into the
	// per-replica capacity list, remembering each one's descriptor.
	var specs []serve.Spec
	var descriptor []int
	for d, r := range s.Replicas {
		for range max(r.Count, 1) {
			specs = append(specs, r.Spec)
			descriptor = append(descriptor, d)
		}
	}
	R := len(specs)
	for len(rn.reps) < R {
		rn.reps = append(rn.reps, new(serve.Runner))
	}
	instances := slices.Grow(rn.instances[:0], R)[:R]
	rn.instances = instances
	for i, cap := range specs {
		in, err := rn.reps[i].Instance(cap, env)
		if err != nil {
			return Result{}, fmt.Errorf("cluster: replica %d: %w", i, err)
		}
		instances[i] = in
	}
	// assign[i] is arrival i's replica, from which the merge maps each
	// replica's local push indices back to global arrival indices.
	assign := slices.Grow(rn.assign[:0], len(times))[:len(times)]
	rn.assign = assign
	for i, at := range times {
		var r int
		switch s.Routing {
		case RoundRobin:
			r = i % R
		case TenantAffinity:
			r = tenantReplica(shapes[i].Tenant, R)
		default: // LeastQueue, LeastKV: Validate rejected every other policy
			r = leastLoaded(s.Routing, instances, at)
		}
		if err := instances[r].Push(shapes[i], at); err != nil {
			return Result{}, fmt.Errorf("cluster: replica %d: %w", r, err)
		}
		assign[i] = int32(r)
	}
	for _, in := range instances {
		in.Drain()
	}

	return rn.merge(s, descriptor)
}

// leastLoaded is the load-aware routers' pick for an arrival at t:
// barrier every replica to t, then scan their loads in index order and
// take the least loaded (ties to the lowest index). The snapshot each
// replica reports at t depends only on its own push history, so the pick
// is a pure function of the stream.
func leastLoaded(r Routing, instances []*serve.Instance, t float64) int {
	for _, in := range instances {
		in.AdvanceTo(t)
	}
	best, bestLoad := 0, instances[0].Load()
	for i := 1; i < len(instances); i++ {
		if l := instances[i].Load(); lessLoaded(r, l, bestLoad) {
			best, bestLoad = i, l
		}
	}
	return best
}

// lessLoaded ranks replica load snapshots for the load-aware routers:
// strictly less loaded wins (ties keep the earlier, lower-indexed
// incumbent).
func lessLoaded(r Routing, a, b serve.Load) bool {
	if r == LeastKV {
		//lint:floateq exact compare guarding a strict-< tiebreak: equal bit patterns must fall through to in-flight count
		if a.KVBytes != b.KVBytes {
			return a.KVBytes < b.KVBytes
		}
	}
	return a.InFlight() < b.InFlight()
}

// merge assembles the fleet Result from the drained replicas: per-replica
// results in index order, the global-ID-remapped request view, and
// fleet-wide summaries that merge the replicas' sorted samples.
func (rn *Runner) merge(s Spec, descriptor []int) (Result, error) {
	instances, assign := rn.instances, rn.assign
	R := len(instances)
	rn.perReplica = slices.Grow(rn.perReplica[:0], R)[:R]
	res := Result{
		Replicas:   R,
		Routing:    s.Routing,
		PerReplica: rn.perReplica,
	}
	for r, in := range instances {
		rr, err := in.Result()
		if err != nil {
			return Result{}, fmt.Errorf("cluster: replica %d: %w", r, err)
		}
		res.PerReplica[r] = ReplicaResult{
			Index: r, Descriptor: descriptor[r],
			Assigned: in.Pushed(), Result: rr,
		}
		if rr.SimTime > res.SimTime {
			res.SimTime = rr.SimTime
		}
		res.Preemptions += rr.Preemptions
		res.RecomputedTokens += rr.RecomputedTokens
		res.KVTransfers += rr.KVTransfers
		res.TransferTimeTotal += rr.TransferTimeTotal
		res.PrefixHits += rr.PrefixHits
		res.PrefixSavedTokens += rr.PrefixSavedTokens
		res.KVSwapOuts += rr.KVSwapOuts
		res.KVSwapIns += rr.KVSwapIns
		res.SwapTimeTotal += rr.SwapTimeTotal
	}

	// Every replica drained its whole share in push order, so arrival i is
	// the next unread entry of its replica's ledger: a cursor per replica
	// maps local push indices to global arrival indices.
	next := make([]int, R)
	rn.perRequest = slices.Grow(rn.perRequest[:0], len(assign))[:len(assign)]
	res.PerRequest = rn.perRequest
	for i, r := range assign {
		m := res.PerReplica[r].Result.PerRequest[next[r]]
		next[r]++
		m.ID = i
		res.PerRequest[i] = RequestMetrics{RequestMetrics: m, Replica: int(r)}
	}
	sum, err := serve.SummarizeInstances(instances, &rn.plane)
	if err != nil {
		return Result{}, fmt.Errorf("cluster: %w", err)
	}
	res.Requests = sum.Requests
	if res.SimTime > 0 {
		res.ThroughputRPS = float64(sum.Requests) / res.SimTime
		res.TokensPerSec = float64(sum.GenTokens) / res.SimTime
	}
	res.TTFT, res.TPOT, res.E2E, res.Queue = sum.TTFT, sum.TPOT, sum.E2E, sum.Queue
	res.PerTenant = sum.PerTenant
	return res, nil
}
