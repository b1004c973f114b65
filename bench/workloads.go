package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"time"

	"optimus"
	"optimus/internal/infer"
	"optimus/internal/memfoot"
	"optimus/internal/sweep"
	"optimus/internal/workload"
)

// squeezedDeviceJSON is an H100 whose HBM holds Llama2-13B's TP=2 weight
// shard plus about 48 full 400-token KV contexts (TestSqueezedDevice
// derives it), so the paged workload preempts, swaps and hits its prefix
// cache. Library runs and their cmd/optimus twin read these same bytes.
//
//go:embed testdata/h100-squeezed.json
var squeezedDeviceJSON []byte

const squeezedDeviceFile = "h100-squeezed.json"

// rankAll keeps every ranked sweep row, so the digest covers the whole
// ranking rather than its head.
const rankAll = 100000

// job is one workload's built inputs: everything a run needs, made from
// the seed before any timing starts.
type job interface {
	// run does one unit of work through the public optimus API, with the
	// calls cmd/optimus makes, and returns the part of the result that
	// must repeat exactly.
	run() (any, error)
	// units is the work one run completes: simulated requests, or sweep
	// candidates.
	units() int
	// check tests a result against oracles that do not come from the
	// simulator itself.
	check(res any) error
	// traced does one run split into its layer calls, recording a span per
	// call on tr and the run's per-layer values in lv, and returns the
	// result.
	traced(tr *tracer, lv layerValues) (any, error)
	// twin returns the cmd/optimus arguments that do the same work,
	// writing the input files they name into dir.
	twin(dir string) ([]string, error)
}

// layerValues holds one traced run's per-layer metric values by name.
type layerValues map[string]float64

// A workloadDef is one named set of inputs the benchmark runs.
type workloadDef struct {
	name  string
	why   string
	build func(seed int64, small bool) (job, error)
}

// workloads is the catalogue, in the order -workload all runs it. Each
// entry says why it is here; README.md maps the layers each one stresses.
var workloads = []workloadDef{
	{
		name:  "serve-paged-bursty",
		why:   "paged KV under a quiet-burst-quiet schedule with 4-turn sessions: preemption, host swap, prefix hits and idle troughs",
		build: buildServePaged,
	},
	{
		name:  "serve-reserve-closed",
		why:   "closed loop of fixed shapes under full reservation: event loop and pricing only, the control for admission and arrival changes",
		build: buildServeClosed,
	},
	{
		name:  "cluster-disagg-leastkv",
		why:   "8 disaggregated replicas behind least-kv routing with heavy-tailed lengths: the routing barrier, worker hand-off and KV transfers",
		build: buildCluster,
	},
	{
		name:  "sweep-train-plan",
		why:   "training plan sweep with most candidates pruned: enumeration, feasibility, train.Predict and ranking, no simulator and no cache",
		build: buildSweepTrain,
	},
	{
		name:  "sweep-serve-cached",
		why:   "serving sweep whose memo is preloaded with two thirds of the grid: short simulations, memo keys and cache load and save",
		build: buildSweepServe,
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// ---- single-instance serving ----

// serveJob runs optimus.Serve on one spec.
type serveJob struct {
	spec optimus.ServeSpec
	// mix is the spec's workload as serve.Run sees it after defaulting.
	mix  []optimus.ServeTenantLoad
	args []string
	// deviceFile marks a spec whose system came from squeezedDeviceJSON.
	deviceFile bool
}

// h100x2 is the two-H100 NVLink4 system of the preset-device workloads.
func h100x2() (*optimus.System, error) { return optimus.NewSystem("h100", 2, "nvlink4", "ndr") }

func buildServePaged(seed int64, small bool) (job, error) {
	cfg, err := optimus.ModelByName("llama2-13b")
	if err != nil {
		return nil, err
	}
	dev, err := optimus.ReadDeviceJSON(bytes.NewReader(squeezedDeviceJSON))
	if err != nil {
		return nil, err
	}
	// The system cmd/optimus builds for -device-file: preset fabrics with
	// the described device swapped in.
	sys, err := optimus.NewSystem("a100", 2, "nvlink4", "ndr")
	if err != nil {
		return nil, err
	}
	sys.Device = dev
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	const schedule = "0-60:0.1,60-75:12,75-600:0.1"
	sched, err := optimus.ParseServeSchedule(schedule)
	if err != nil {
		return nil, err
	}
	const hostGB = 32
	n := 1024
	if small {
		n = 64
	}
	spec := optimus.ServeSpec{
		Model: cfg, System: sys, TP: 2, Precision: optimus.FP16,
		PromptTokens: 200, GenTokens: 200,
		Schedule: sched, Turns: 4, Think: 5, Requests: n, Seed: seed,
		Policy: optimus.PagedPolicy, HostKVBytes: hostGB * 1e9, SwapGBps: optimus.DefaultServeSwapGBps,
	}
	return &serveJob{
		spec:       spec,
		mix:        []optimus.ServeTenantLoad{{Tenant: optimus.DefaultServeTenant, Share: 1, PromptTokens: 200, GenTokens: 200}},
		deviceFile: true,
		args: []string{"serve", "-model", "llama2-13b", "-gpus", "2", "-intra", "nvlink4",
			"-prompt", "200", "-gen", "200", "-policy", "paged", "-kv-host-gb", strconv.Itoa(hostGB),
			"-schedule", schedule, "-turns", "4", "-think", "5",
			"-requests", strconv.Itoa(n), "-seed", strconv.FormatInt(seed, 10)},
	}, nil
}

func buildServeClosed(seed int64, small bool) (job, error) {
	cfg, err := optimus.ModelByName("llama2-13b")
	if err != nil {
		return nil, err
	}
	sys, err := h100x2()
	if err != nil {
		return nil, err
	}
	n := 4096
	if small {
		n = 128
	}
	// Every request has the same shape, so the seed draws nothing here:
	// the control workload is identical at every seed.
	spec := optimus.ServeSpec{
		Model: cfg, System: sys, TP: 2, Precision: optimus.FP16,
		PromptTokens: 200, GenTokens: 200,
		Arrival: optimus.ClosedLoopArrivals, Clients: 16, Requests: n, Seed: seed,
		Policy: optimus.ReserveFullPolicy,
	}
	return &serveJob{
		spec: spec,
		mix:  []optimus.ServeTenantLoad{{Tenant: optimus.DefaultServeTenant, Share: 1, PromptTokens: 200, GenTokens: 200}},
		args: []string{"serve", "-model", "llama2-13b", "-device", "h100", "-gpus", "2", "-intra", "nvlink4",
			"-prompt", "200", "-gen", "200", "-policy", "reserve", "-arrival", "closed", "-clients", "16",
			"-requests", strconv.Itoa(n), "-seed", strconv.FormatInt(seed, 10)},
	}, nil
}

func (j *serveJob) run() (any, error) { return optimus.Serve(j.spec) }

func (j *serveJob) units() int { return j.spec.Requests }

func (j *serveJob) check(res any) error {
	r := res.(optimus.ServeResult)
	if r.Requests != j.spec.Requests {
		return fmt.Errorf("completed %d of %d requests", r.Requests, j.spec.Requests)
	}
	return checkTimelines(r.PerRequest)
}

// checkTimelines tests that every request moves forward in time:
// Arrival ≤ Admitted ≤ FirstToken ≤ Done.
func checkTimelines(reqs []optimus.ServeRequestMetrics) error {
	for _, m := range reqs {
		if !(m.Arrival <= m.Admitted && m.Admitted <= m.FirstToken && m.FirstToken <= m.Done) {
			return fmt.Errorf("request %d runs backwards: arrival %g admitted %g first token %g done %g",
				m.ID, m.Arrival, m.Admitted, m.FirstToken, m.Done)
		}
	}
	return nil
}

// capacityOf strips a serving spec to the capacity fields an instance
// takes; the benchmark pushes the workload itself.
func capacityOf(s optimus.ServeSpec) optimus.ServeSpec {
	s.PromptTokens, s.GenTokens, s.PrefixTokens = 0, 0, 0
	s.Mix, s.Trace = nil, nil
	s.Arrival, s.Rate, s.Clients, s.Requests, s.Seed = optimus.PoissonArrivals, 0, 0, 0, 0
	s.Schedule, s.Turns, s.Think = nil, 0, 0
	return s
}

// envelope lists the extreme request shapes of a generated, prefix-free
// workload, so an instance built on it derives the KV geometry, pricing
// samples and batch caps serve.Run derives from the mix: each tenant's
// smallest shape and its largest, which under sessions is the last turn,
// whose prompt carries the session's whole prior context as a shared
// prefix.
func envelope(mix []optimus.ServeTenantLoad, turns int) []optimus.ServeRequest {
	var out []optimus.ServeRequest
	for _, t := range mix {
		pmin, pmax := t.PromptBounds()
		gmin, gmax := t.GenBounds()
		out = append(out, optimus.ServeRequest{Tenant: t.Tenant, PromptTokens: pmin, GenTokens: gmin})
		switch {
		case turns > 1:
			ctx := (turns - 1) * (pmax + gmax)
			out = append(out, optimus.ServeRequest{
				Tenant: t.Tenant, PromptTokens: ctx + pmax, GenTokens: gmax,
				PrefixID: "envelope-" + t.Tenant, PrefixTokens: ctx,
			})
		case pmax != pmin || gmax != gmin:
			out = append(out, optimus.ServeRequest{Tenant: t.Tenant, PromptTokens: pmax, GenTokens: gmax})
		}
	}
	return out
}

func (j *serveJob) traced(tr *tracer, lv layerValues) (any, error) {
	s := j.spec
	var res optimus.ServeResult
	var c serveCounts
	if s.Arrival == optimus.ClosedLoopArrivals {
		// A closed loop issues requests on completion, so it cannot be
		// pushed from outside: trace its Runner.Run whole, and time shape
		// assignment, its only workload generation, on its own.
		tr.begin("workload.generate")
		shapes := workload.AppendMixShapes(nil, j.mix, s.Requests, s.Seed)
		tr.end()
		tr.begin("unit")
		tr.begin("serve.run")
		r, err := optimus.Serve(s)
		tr.end()
		tr.endUnit()
		if err != nil {
			return nil, err
		}
		res = r
		c.add(res, shapes)
		lv["serve.advance_ms"] = tr.total(tr.run, "serve.run") * 1e3
		lv["serve.ns_per_iter"] = tr.total(tr.run, "serve.run") * 1e9 / float64(res.Iterations)
	} else {
		tr.begin("unit")
		tr.begin("workload.generate")
		proc := workload.ArrivalProcess{Rate: s.Rate, Schedule: s.Schedule, Turns: s.Turns, Think: s.Think, Seed: s.Seed}
		times, shapes := proc.Generate(j.mix, s.Requests, nil, nil)
		tr.end()
		r, idle, err := drive(tr, capacityOf(s), envelope(j.mix, s.Turns), times, shapes)
		tr.endUnit()
		if err != nil {
			return nil, err
		}
		res = r
		c.add(res, shapes)
		c.arrivals, c.idle = len(times), idle
		recordDriveTimes(tr, lv, res.Iterations)
	}
	lv["workload.requests"] = float64(s.Requests)
	lv["workload.generate_ms"] = tr.total(tr.run, "workload.generate") * 1e3
	c.record(lv)
	lv["serve.queue_p95_s"] = res.Queue.P95
	is, kv0, kv1, maxContext := pricingShape(s.Model, s.System, s.TP, s.Precision, envelope(j.mix, s.Turns))
	if err := pricing(tr, lv, is, kv0, kv1, res.PeakBatch, maxContext); err != nil {
		return nil, err
	}
	return res, nil
}

func (j *serveJob) twin(dir string) ([]string, error) {
	if !j.deviceFile {
		return j.args, nil
	}
	path := filepath.Join(dir, squeezedDeviceFile)
	if err := os.WriteFile(path, squeezedDeviceJSON, 0o644); err != nil {
		return nil, err
	}
	return append([]string{j.args[0], "-device-file", path}, j.args[1:]...), nil
}

// drive replays one instance's arrival stream through the steppable
// simulator, one span per layer call, and counts the arrivals that found
// the instance empty.
func drive(tr *tracer, capacity optimus.ServeSpec, env []optimus.ServeRequest, times []float64, shapes []optimus.ServeRequest) (optimus.ServeResult, int, error) {
	tr.begin("serve.instance")
	in, err := optimus.NewServeInstance(capacity, env)
	tr.end()
	if err != nil {
		return optimus.ServeResult{}, 0, err
	}
	idle := 0
	for i, t := range times {
		tr.begin("serve.advance")
		in.AdvanceTo(t)
		tr.end()
		if in.Load().InFlight() == 0 {
			idle++
		}
		tr.begin("serve.push")
		perr := in.Push(shapes[i], t)
		tr.end()
		if perr != nil {
			return optimus.ServeResult{}, 0, perr
		}
	}
	tr.begin("serve.advance")
	in.Drain()
	tr.end()
	tr.begin("serve.result")
	res, err := in.Result()
	tr.end()
	return res, idle, err
}

// recordDriveTimes records the serve layer's host times from a run's
// drive spans.
func recordDriveTimes(tr *tracer, lv layerValues, iterations int) {
	advance := tr.total(tr.run, "serve.advance")
	lv["serve.instance_ms"] = tr.total(tr.run, "serve.instance") * 1e3
	lv["serve.advance_ms"] = advance * 1e3
	lv["serve.push_ms"] = tr.total(tr.run, "serve.push") * 1e3
	lv["serve.result_ms"] = tr.total(tr.run, "serve.result") * 1e3
	if iterations > 0 {
		lv["serve.ns_per_iter"] = advance * 1e9 / float64(iterations)
	}
}

// serveCounts sums the simulated serve-layer counts of one or more
// instances.
type serveCounts struct {
	iterations                 int
	batchSum, utilSum          float64
	preemptions, recomputed    int
	generated                  int
	prefixHits, prefixedAdmits int
	swapOuts, swapIns          int
	transfers                  int
	arrivals, idle             int
}

// add folds in one instance's result; shapes are its requests by local ID.
func (c *serveCounts) add(r optimus.ServeResult, shapes []optimus.ServeRequest) {
	c.iterations += r.Iterations
	c.batchSum += r.MeanBatch * float64(r.Iterations)
	c.utilSum += r.MeanKVUtil * float64(r.Iterations)
	c.preemptions += r.Preemptions
	c.recomputed += r.RecomputedTokens
	c.prefixHits += r.PrefixHits
	c.swapOuts += r.KVSwapOuts
	c.swapIns += r.KVSwapIns
	c.transfers += r.KVTransfers
	for _, m := range r.PerRequest {
		c.generated += m.GenTokens
		if shapes[m.ID].PrefixTokens > 0 {
			// A preempted request is admitted again on its way back.
			c.prefixedAdmits += 1 + m.Preemptions
		}
	}
}

func (c serveCounts) record(lv layerValues) {
	lv["serve.iterations"] = float64(c.iterations)
	lv["serve.mean_batch"] = ratio(c.batchSum, float64(c.iterations))
	lv["serve.kv_util"] = ratio(c.utilSum, float64(c.iterations))
	lv["serve.preemptions"] = float64(c.preemptions)
	lv["serve.recompute_frac"] = ratio(float64(c.recomputed), float64(c.generated))
	lv["serve.prefix_hits"] = float64(c.prefixHits)
	lv["serve.prefix_hit_frac"] = ratio(float64(c.prefixHits), float64(c.prefixedAdmits))
	lv["serve.swap_outs"] = float64(c.swapOuts)
	lv["serve.swap_in_frac"] = ratio(float64(c.swapIns), float64(c.swapOuts))
	lv["serve.kv_transfers"] = float64(c.transfers)
	lv["serve.idle_frac"] = ratio(float64(c.idle), float64(c.arrivals))
}

// ratio is a/b, or 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// pricingShape is the step-cost configuration a simulator builds for a
// workload envelope: the largest prompt and generation, with decode
// sampled from the smallest prompt's first step to the largest context.
func pricingShape(cfg optimus.Model, sys *optimus.System, tp int, prec optimus.Precision, env []optimus.ServeRequest) (is infer.Spec, kv0, kv1, maxContext int) {
	is = infer.Spec{Model: cfg, System: sys, TP: tp, Batch: 1, Precision: prec}
	minPrompt := env[0].PromptTokens
	for _, r := range env {
		is.PromptTokens = max(is.PromptTokens, r.PromptTokens)
		is.GenTokens = max(is.GenTokens, r.GenTokens)
		maxContext = max(maxContext, r.PromptTokens+r.GenTokens)
		minPrompt = min(minPrompt, r.PromptTokens)
	}
	return is, minPrompt + 1, maxContext, maxContext
}

// pricing times the step-cost layers over a serving configuration's
// batch × KV envelope: the tables a simulation fills as it meets each
// batch size.
func pricing(tr *tracer, lv layerValues, is infer.Spec, kv0, kv1, maxBatch, maxContext int) error {
	tr.begin("pricing")
	defer tr.end()
	tr.begin("infer.stepcoster")
	c, err := infer.NewStepCoster(is)
	tr.end()
	if err != nil {
		return err
	}
	var sink float64
	tr.begin("infer.prefill")
	for b := 1; b <= maxBatch; b++ {
		sink += c.Prefill(b).Time()
	}
	tr.end()
	tr.begin("infer.decode")
	for b := 1; b <= maxBatch; b++ {
		sink += c.DecodeStep(kv0, b).Time() + c.DecodeStep(kv1, b).Time()
	}
	tr.end()
	tr.begin("roofline.gemm")
	gemms, err := infer.PrefillGEMMTable(is)
	tr.end()
	if err != nil {
		return err
	}
	tr.begin("memfoot.inference")
	sink += memfoot.Inference(is.Model, is.TP, 1, maxContext, is.Precision.Bytes()).Total()
	tr.end()
	if !(sink > 0) {
		return fmt.Errorf("pricing: step costs sum to %g", sink)
	}
	lv["infer.stepcoster_us"] = tr.total(tr.run, "infer.stepcoster") * 1e6
	lv["infer.prefill_ns"] = tr.total(tr.run, "infer.prefill") * 1e9 / float64(maxBatch)
	lv["infer.decode_ns"] = tr.total(tr.run, "infer.decode") * 1e9 / float64(2*maxBatch)
	lv["roofline.gemm_ns"] = tr.total(tr.run, "roofline.gemm") * 1e9 / float64(len(gemms))
	lv["memfoot.inference_ns"] = tr.total(tr.run, "memfoot.inference") * 1e9
	return nil
}

// ---- fleet serving ----

// clusterJob runs optimus.ServeCluster on one fleet spec.
type clusterJob struct {
	spec optimus.ClusterSpec
	args []string
}

func buildCluster(seed int64, small bool) (job, error) {
	cfg, err := optimus.ModelByName("llama2-13b")
	if err != nil {
		return nil, err
	}
	sys, err := h100x2()
	if err != nil {
		return nil, err
	}
	const mixSpec = "chat:0.7:300~0.8:150~0.6,batch:0.3:1200~0.5:400"
	mix, err := optimus.ParseServeMix(mixSpec)
	if err != nil {
		return nil, err
	}
	n := 1024
	if small {
		n = 64
	}
	capacity := optimus.ServeSpec{
		Model: cfg, System: sys, TP: 2, Precision: optimus.FP16,
		Policy: optimus.DisaggregatedPolicy, PrefillDevices: 1, DecodeDevices: 1,
		TransferGBps: optimus.DefaultServeTransferGBps,
	}
	spec := optimus.ClusterSpec{
		Replicas: []optimus.ClusterReplica{{Spec: capacity, Count: 8}},
		Routing:  optimus.LeastKVRouting,
		Mix:      mix, Rate: 24, Requests: n, Seed: seed,
	}
	return &clusterJob{
		spec: spec,
		args: []string{"cluster", "-model", "llama2-13b", "-device", "h100", "-gpus", "2", "-intra", "nvlink4",
			"-replicas", "8", "-routing", "least-kv", "-policy", "disagg",
			"-prefill-devices", "1", "-decode-devices", "1", "-mix", mixSpec, "-rate", "24",
			"-requests", strconv.Itoa(n), "-seed", strconv.FormatInt(seed, 10)},
	}, nil
}

func (j *clusterJob) run() (any, error) { return optimus.ServeCluster(j.spec) }

func (j *clusterJob) units() int { return j.spec.Requests }

func (j *clusterJob) check(res any) error {
	r := res.(optimus.ClusterResult)
	if r.Requests != j.spec.Requests {
		return fmt.Errorf("completed %d of %d requests", r.Requests, j.spec.Requests)
	}
	assigned := 0
	for _, rr := range r.PerReplica {
		assigned += rr.Assigned
		if err := checkTimelines(rr.Result.PerRequest); err != nil {
			return fmt.Errorf("replica %d: %w", rr.Index, err)
		}
	}
	if assigned != j.spec.Requests {
		return fmt.Errorf("router assigned %d of %d requests", assigned, j.spec.Requests)
	}
	return nil
}

func (j *clusterJob) traced(tr *tracer, lv layerValues) (any, error) {
	s := j.spec
	tr.begin("unit")
	tr.begin("cluster.run")
	res, err := optimus.ServeCluster(s)
	tr.end()
	tr.endUnit()
	if err != nil {
		return nil, err
	}
	// The fleet stream again, for replay: the router split it, so each
	// replica's share is its requests of res.PerRequest in arrival order.
	tr.begin("workload.generate")
	proc := workload.ArrivalProcess{Rate: s.Rate, Schedule: s.Schedule, Turns: s.Turns, Think: s.Think, Seed: s.Seed}
	times, shapes := proc.Generate(s.Mix, s.Requests, nil, nil)
	tr.end()
	capacity := s.Replicas[0].Spec
	var c serveCounts
	match, most, peakBatch := 0, 0, 0
	tr.begin("cluster.replay")
	for r, rr := range res.PerReplica {
		var ts []float64
		var ss []optimus.ServeRequest
		for _, m := range res.PerRequest {
			if m.Replica == r {
				ts = append(ts, times[m.ID])
				ss = append(ss, shapes[m.ID])
			}
		}
		// The router builds every replica on the whole fleet stream's
		// shapes; the replay must too, to price identically.
		got, idle, err := drive(tr, capacity, shapes, ts, ss)
		if err != nil {
			tr.end()
			return nil, fmt.Errorf("replica %d replay: %w", r, err)
		}
		if reflect.DeepEqual(got, rr.Result) {
			match++
		}
		c.add(got, ss)
		c.arrivals += len(ts)
		c.idle += idle
		most = max(most, rr.Assigned)
		peakBatch = max(peakBatch, got.PeakBatch)
	}
	tr.end()
	run, replay := tr.total(tr.run, "cluster.run"), tr.total(tr.run, "cluster.replay")
	lv["workload.requests"] = float64(s.Requests)
	lv["workload.generate_ms"] = tr.total(tr.run, "workload.generate") * 1e3
	recordDriveTimes(tr, lv, c.iterations)
	c.record(lv)
	lv["serve.queue_p95_s"] = res.Queue.P95
	lv["cluster.run_ms"] = run * 1e3
	lv["cluster.replay_ms"] = replay * 1e3
	lv["cluster.parallel_speedup"] = ratio(replay, run)
	lv["cluster.imbalance"] = ratio(float64(most)*float64(len(res.PerReplica)), float64(res.Requests))
	lv["cluster.replay_match"] = float64(match)
	is, kv0, kv1, maxContext := pricingShape(capacity.Model, capacity.System, capacity.TP, capacity.Precision, shapes)
	if err := pricing(tr, lv, is, kv0, kv1, peakBatch, maxContext); err != nil {
		return nil, err
	}
	if match != len(res.PerReplica) {
		return nil, fmt.Errorf("%d of %d replica replays reproduce the fleet's replica results", match, len(res.PerReplica))
	}
	return res, nil
}

func (j *clusterJob) twin(string) ([]string, error) { return j.args, nil }

// ---- sweeps ----

// sweepOutcome is the part of a sweep result that must repeat exactly:
// the whole ranking and how the candidates were disposed of, but not the
// wall clock or the pool size.
type sweepOutcome struct {
	Rows                                         []optimus.SweepRow
	Enumerated, Pruned, Evaluated, MemoHits, Err int
}

func outcomeOf(res optimus.SweepResult) sweepOutcome {
	st := res.Stats
	return sweepOutcome{Rows: res.Rows, Enumerated: st.Enumerated, Pruned: st.Pruned,
		Evaluated: st.Evaluated, MemoHits: st.MemoHits, Err: st.Errors}
}

// sweepJob runs one sweep on a fresh engine, optionally preloaded with a
// memo cache snapshot and saving it back afterwards.
type sweepJob struct {
	spec optimus.SweepSpec
	// cache is the snapshot each run's engine loads; nil runs uncached.
	cache []byte
	// cachedKeys are the candidate keys the snapshot holds.
	cachedKeys map[string]bool
	args       []string
}

func buildSweepTrain(seed int64, small bool) (job, error) {
	spec := optimus.SweepSpec{
		Workload:      optimus.TrainingSweep,
		GlobalBatches: []int{64, 128, 256},
		Constraints:   optimus.PlanConstraints{TopK: rankAll},
		Workers:       runtime.GOMAXPROCS(0),
	}
	models, gpus := []string{"gpt-175b", "gpt-530b"}, []int{64, 128}
	if small {
		models, gpus, spec.GlobalBatches = models[:1], gpus[:1], spec.GlobalBatches[:1]
	}
	for _, name := range models {
		cfg, err := optimus.ModelByName(name)
		if err != nil {
			return nil, err
		}
		spec.Models = append(spec.Models, cfg)
	}
	for _, n := range gpus {
		sys, err := optimus.NewSystem("a100", n, "nvlink3", "hdr")
		if err != nil {
			return nil, err
		}
		spec.Systems = append(spec.Systems, sys)
	}
	// A training grid draws nothing at random, so the seed has no effect.
	return &sweepJob{
		spec: spec,
		args: []string{"sweep", "-models", strings.Join(models, ","), "-devices", "a100",
			"-gpus", joinInts(gpus), "-intra", "nvlink3", "-inter", "hdr",
			"-batches", joinInts(spec.GlobalBatches),
			"-workers", strconv.Itoa(spec.Workers), "-top", strconv.Itoa(rankAll)},
	}, nil
}

func buildSweepServe(seed int64, small bool) (job, error) {
	cfg, err := optimus.ModelByName("llama2-13b")
	if err != nil {
		return nil, err
	}
	spec := optimus.SweepSpec{
		Workload:      optimus.ServingSweep,
		Models:        []optimus.Model{cfg},
		Rates:         []float64{1, 4, 8},
		BatchCaps:     []int{0, 16},
		Policies:      []optimus.ServePolicy{optimus.ReserveFullPolicy, optimus.PagedPolicy, optimus.DisaggregatedPolicy},
		PrefixTokens:  []int{0, 64},
		Replicas:      []int{0, 2},
		Routings:      []optimus.ClusterRouting{optimus.RoundRobinRouting, optimus.LeastKVRouting},
		ServeRequests: 128,
		ServeSeed:     seed,
		Constraints:   optimus.PlanConstraints{TopK: rankAll},
		Workers:       runtime.GOMAXPROCS(0),
	}
	gpus := []int{1, 2}
	if small {
		gpus, spec.Rates, spec.BatchCaps, spec.ServeRequests = gpus[1:], spec.Rates[:2], spec.BatchCaps[:1], 16
	}
	for _, n := range gpus {
		sys, err := optimus.NewSystem("h100", n, "nvlink4", "ndr")
		if err != nil {
			return nil, err
		}
		spec.Systems = append(spec.Systems, sys)
	}
	// The memo snapshot: the same grid without its highest rate, so about
	// two thirds of the candidates are hits. It is made here rather than
	// kept on disk because it depends on the seed, and a snapshot written
	// by another cost model would be refused.
	half := spec
	half.Rates = spec.Rates[:len(spec.Rates)-1]
	eng := optimus.NewSweepEngine(spec.Workers)
	if _, err := eng.Run(context.Background(), half); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := eng.SaveCache(&buf); err != nil {
		return nil, err
	}
	var snapshot struct {
		Entries map[string]json.RawMessage `json:"entries"`
	}
	if err := json.Unmarshal(buf.Bytes(), &snapshot); err != nil {
		return nil, err
	}
	keys := make(map[string]bool, len(snapshot.Entries))
	//lint:deterministic builds a set; order-insensitive
	for k := range snapshot.Entries {
		keys[k] = true
	}
	var rates []string
	for _, r := range spec.Rates {
		rates = append(rates, strconv.FormatFloat(r, 'g', -1, 64))
	}
	return &sweepJob{
		spec: spec, cache: buf.Bytes(), cachedKeys: keys,
		args: []string{"sweep", "-workload", "serve", "-models", "llama2-13b", "-devices", "h100",
			"-gpus", joinInts(gpus), "-intra", "nvlink4", "-inter", "ndr",
			"-rates", strings.Join(rates, ","), "-batch-caps", joinInts(spec.BatchCaps),
			"-policies", "reserve,paged,disagg", "-prefix", "0,64",
			"-replicas", "0,2", "-routings", "round-robin,least-kv",
			"-serve-requests", strconv.Itoa(spec.ServeRequests), "-serve-seed", strconv.FormatInt(seed, 10),
			"-workers", strconv.Itoa(spec.Workers), "-top", strconv.Itoa(rankAll)},
	}, nil
}

func joinInts(xs []int) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = strconv.Itoa(x)
	}
	return strings.Join(s, ",")
}

func (j *sweepJob) run() (any, error) {
	if j.cache == nil {
		res, err := optimus.Sweep(context.Background(), j.spec)
		return outcomeOf(res), err
	}
	eng := optimus.NewSweepEngine(j.spec.Workers)
	if err := eng.LoadCache(bytes.NewReader(j.cache)); err != nil {
		return nil, err
	}
	res, err := eng.Run(context.Background(), j.spec)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := eng.SaveCache(&buf); err != nil {
		return nil, err
	}
	return outcomeOf(res), nil
}

func (j *sweepJob) units() int { return len(sweep.Enumerate(j.spec)) }

func (j *sweepJob) check(res any) error {
	o := res.(sweepOutcome)
	if o.Err != 0 {
		return fmt.Errorf("%d candidates errored", o.Err)
	}
	if o.Pruned+o.Evaluated+o.MemoHits != o.Enumerated {
		return fmt.Errorf("%d pruned + %d evaluated + %d memo hits ≠ %d enumerated",
			o.Pruned, o.Evaluated, o.MemoHits, o.Enumerated)
	}
	if len(o.Rows) == 0 {
		return fmt.Errorf("no candidate ranked")
	}
	return nil
}

func (j *sweepJob) traced(tr *tracer, lv layerValues) (any, error) {
	tr.begin("unit")
	var res optimus.SweepResult
	var err error
	var cacheBytes int
	if j.cache == nil {
		tr.begin("sweep.engine")
		res, err = optimus.Sweep(context.Background(), j.spec)
		tr.end()
	} else {
		tr.begin("sweep.cache_load")
		eng := optimus.NewSweepEngine(j.spec.Workers)
		err = eng.LoadCache(bytes.NewReader(j.cache))
		tr.end()
		if err == nil {
			tr.begin("sweep.engine")
			res, err = eng.Run(context.Background(), j.spec)
			tr.end()
		}
		if err == nil {
			var buf bytes.Buffer
			tr.begin("sweep.cache_save")
			err = eng.SaveCache(&buf)
			tr.end()
			cacheBytes = buf.Len()
		}
	}
	tr.endUnit()
	if err != nil {
		return nil, err
	}

	// The engine's work one candidate at a time, serially: what pruning
	// saves and what the worker pool then divides.
	tr.begin("sweep.enumerate")
	points := sweep.Enumerate(j.spec)
	tr.end()
	keyLen := 0
	tr.begin("sweep.key")
	for _, p := range points {
		keyLen += len(p.Key())
	}
	tr.end()
	fit := make([]bool, len(points))
	feasible := make([]float64, len(points))
	tr.begin("sweep.feasible")
	for i, p := range points {
		t0 := time.Now()
		ok, ferr := sweep.Feasible(p)
		feasible[i] = time.Since(t0).Seconds()
		fit[i] = ok && ferr == nil
	}
	tr.end()
	var evalAll, evalKept, serial float64
	tr.begin("sweep.evaluate")
	for i, p := range points {
		t0 := time.Now()
		_, _ = sweep.Evaluate(p) // an infeasible serving candidate errors; only its time counts
		d := time.Since(t0).Seconds()
		evalAll += d
		if fit[i] {
			evalKept += d
		}
		if !j.cachedKeys[p.Key()] {
			serial += feasible[i]
			if fit[i] {
				serial += d
			}
		}
	}
	tr.end()
	if keyLen == 0 {
		return nil, fmt.Errorf("empty candidate keys")
	}

	o := outcomeOf(res)
	n := float64(len(points))
	feasAll := tr.total(tr.run, "sweep.feasible")
	engine, enumerate := tr.total(tr.run, "sweep.engine"), tr.total(tr.run, "sweep.enumerate")
	lv["sweep.enumerate_ms"] = enumerate * 1e3
	lv["sweep.key_us"] = tr.total(tr.run, "sweep.key") * 1e6 / n
	lv["sweep.feasible_us"] = feasAll * 1e6 / n
	lv["sweep.evaluate_us"] = tr.total(tr.run, "sweep.evaluate") * 1e6 / n
	lv["sweep.engine_ms"] = engine * 1e3
	lv["sweep.prune_frac"] = ratio(float64(o.Pruned), float64(o.Enumerated))
	lv["sweep.memo_hit_frac"] = ratio(float64(o.MemoHits), float64(o.MemoHits+o.Evaluated))
	lv["sweep.prune_speedup"] = ratio(evalAll, feasAll+evalKept)
	// The engine enumerates serially before its pool starts; the pool's
	// share of the run is the rest.
	lv["sweep.parallel_speedup"] = ratio(serial, engine-enumerate)
	lv["sweep.cache_load_ms"] = tr.total(tr.run, "sweep.cache_load") * 1e3
	lv["sweep.cache_save_ms"] = tr.total(tr.run, "sweep.cache_save") * 1e3
	lv["sweep.cache_kb"] = float64(cacheBytes) / 1024
	if j.spec.Workload == optimus.TrainingSweep {
		// A training candidate's Evaluate is train.Predict plus a fit
		// check, and its Feasible is memfoot.Train plus a comparison.
		lv["train.predict_us"] = tr.total(tr.run, "sweep.evaluate") * 1e6 / n
		lv["memfoot.train_ns"] = feasAll * 1e9 / n
	} else {
		// A representative serving candidate: 200+200 tokens on two H100s
		// up to the grid's explicit batch cap.
		env := []optimus.ServeRequest{{Tenant: optimus.DefaultServeTenant, PromptTokens: 200, GenTokens: 200}}
		sys := j.spec.Systems[len(j.spec.Systems)-1]
		is, kv0, kv1, maxContext := pricingShape(j.spec.Models[0], sys, sys.NumDevices(), optimus.FP16, env)
		if err := pricing(tr, lv, is, kv0, kv1, 16, maxContext); err != nil {
			return nil, err
		}
	}
	return o, nil
}

func (j *sweepJob) twin(dir string) ([]string, error) {
	if j.cache == nil {
		return j.args, nil
	}
	// A fresh copy per invocation: the CLI saves its grown memo back.
	path := filepath.Join(dir, "sweep-cache.json")
	if err := os.WriteFile(path, j.cache, 0o644); err != nil {
		return nil, err
	}
	return append(append([]string(nil), j.args...), "-cache", path), nil
}
