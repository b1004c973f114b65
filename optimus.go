// Package optimus is the public API of Optimus-Go, a from-scratch Go
// reproduction of "Performance Modeling and Workload Analysis of
// Distributed Large Language Model Training and Inference" (IISWC 2024).
//
// It exposes an analytical performance model for distributed LLM training
// and inference: describe a system (vendor preset or one derived from
// technology parameters), a model, and a parallelization mapping, and
// obtain iteration times, latency decompositions, memory footprints, and
// design-space optima — no GPU required.
//
//	sys, _ := optimus.NewSystem("a100", 64, "nvlink3", "hdr")
//	cfg, _ := optimus.ModelByName("gpt-175b")
//	res, _ := optimus.PredictTraining(optimus.TrainSpec{
//	    Model: cfg, System: sys,
//	    Map:         optimus.Mapping{DP: 1, TP: 8, PP: 8, Microbatch: 1},
//	    GlobalBatch: 64, Seq: 2048,
//	    Precision: optimus.BF16, Recompute: optimus.FullRecompute,
//	})
//	fmt.Println(res.Total) // ≈ 19 s per batch (Megatron-LM measured 18.1 s)
//
// # Plan sweeps
//
// Beyond single predictions, Sweep evaluates whole experiment grids —
// models × systems × precisions × batch sizes × mappings × schedules ×
// recomputation regimes — over a bounded worker pool with
// memory-feasibility pruning, returning a deterministic ranking
// (identical at any worker count); NewSweepEngine adds a memo that
// successive sweeps share:
//
//	sysA, _ := optimus.NewSystem("a100", 64, "nvlink3", "hdr")
//	sysH, _ := optimus.NewSystem("h100", 64, "nvlink4", "ndr")
//	gpt175b, _ := optimus.ModelByName("gpt-175b")
//	res, _ := optimus.Sweep(context.Background(), optimus.SweepSpec{
//	    Models:        []optimus.Model{gpt175b},
//	    Systems:       []*optimus.System{sysA, sysH},
//	    GlobalBatches: []int{64, 128},
//	    Constraints:   optimus.PlanConstraints{TopK: 5},
//	})
//	for _, row := range res.Rows {
//	    fmt.Printf("%s %s: %.1f s/batch\n", row.Point.System, row.Point.Map, row.Metrics.Time)
//	}
//	fmt.Println(res.Stats) // candidates enumerated / pruned / evaluated
//
// Cancel the context to stop a large sweep early; set SweepSpec.Workers
// to bound the pool (0 means GOMAXPROCS); set Workload to InferenceSweep
// to rank serving configurations by end-to-end latency instead.
//
// # Serving simulation
//
// Serve runs a deterministic discrete-event continuous-batching simulator
// on top of the per-step inference costs (PrefillCost / DecodeStepCost):
// seeded Poisson or closed-loop arrivals, iteration-level batching under a
// KV-cache admission budget, and per-request TTFT/TPOT/E2E latencies with
// p50/p95/p99 percentiles — the SLO surface capacity planning ranks on:
//
//	sys, _ := optimus.NewSystem("h100", 2, "nvlink4", "ndr")
//	cfg, _ := optimus.ModelByName("llama2-13b")
//	res, _ := optimus.Serve(optimus.ServeSpec{
//	    Model: cfg, System: sys, TP: 2, Precision: optimus.FP16,
//	    PromptTokens: 200, GenTokens: 200,
//	    Arrival: optimus.PoissonArrivals, Rate: 2, Requests: 512, Seed: 1,
//	})
//	fmt.Println(res.TTFT.P99, res.E2E.P95, res.TokensPerSec)
//
// KV-cache admission is a pluggable policy: the default ReserveFullPolicy
// reserves each request's whole prompt+generation context up front, while
// PagedPolicy allocates vLLM-style fixed-size token blocks
// (ServeSpec.PageTokens) that grow as a request decodes, preempting the
// youngest running sequence (recompute on readmission) under pressure —
// ServeResult then reports Preemptions, RecomputedTokens and KV page
// utilization alongside the SLO percentiles:
//
//	res, _ = optimus.Serve(optimus.ServeSpec{
//	    Model: cfg, System: sys, TP: 2, Precision: optimus.FP16,
//	    PromptTokens: 200, GenTokens: 800,
//	    Arrival: optimus.PoissonArrivals, Rate: 2, Requests: 512, Seed: 1,
//	    Policy: optimus.PagedPolicy, PageTokens: 16,
//	})
//	fmt.Println(res.Preemptions, res.RecomputedTokens, res.MeanKVUtil)
//
// DisaggregatedPolicy models DistServe-style disaggregated serving: the
// KV capacity splits into a prefill pool and a decode pool
// (ServeSpec.PrefillDevices / DecodeDevices of the TP devices), requests
// admit against the prefill pool on their prompt's pages alone, and each
// sequence migrates to the decode pool when its first token is emitted —
// paying a per-request KV transfer of its prompt's KV bytes over the
// ServeSpec.TransferGBps interconnect. ServeResult reports per-pool page
// peaks and the migration count and total transfer time:
//
//	res, _ = optimus.Serve(optimus.ServeSpec{
//	    Model: cfg, System: sys, TP: 2, Precision: optimus.FP16,
//	    PromptTokens: 200, GenTokens: 800,
//	    Arrival: optimus.PoissonArrivals, Rate: 2, Requests: 512, Seed: 1,
//	    Policy: optimus.DisaggregatedPolicy,
//	    PrefillDevices: 1, DecodeDevices: 1, TransferGBps: 50,
//	})
//	fmt.Println(res.KVTransfers, res.TransferTimeTotal, res.PeakDecodePages)
//
// Requests carry per-request shapes: ServeSpec.Mix generates a seeded
// multi-tenant workload (per-tenant rate shares and prompt/generation
// lengths) and ServeSpec.Trace replays an explicit timeline, with the
// spec-wide PromptTokens/GenTokens the degenerate single-tenant case.
// ServeResult.PerTenant breaks the SLO percentiles down per tenant:
//
//	res, _ = optimus.Serve(optimus.ServeSpec{
//	    Model: cfg, System: sys, TP: 2, Precision: optimus.FP16,
//	    Mix: []optimus.ServeTenantLoad{
//	        {Tenant: "chat", Share: 0.7, PromptTokens: 200, GenTokens: 200},
//	        {Tenant: "batch", Share: 0.3, PromptTokens: 2000, GenTokens: 100},
//	    },
//	    Arrival: optimus.PoissonArrivals, Rate: 2, Requests: 512, Seed: 1,
//	})
//	for _, tm := range res.PerTenant {
//	    fmt.Println(tm.Tenant, tm.TTFT.P95, tm.E2E.P95)
//	}
//
// Set SweepSpec.Workload to ServingSweep to sweep arrival rates × batch
// caps × admission policies × systems × precisions and rank by p95
// end-to-end latency — SweepSpec.Policies makes the admission policy a
// grid axis, so one sweep compares reservation against paged admission at
// every rate × batch-cap point, SweepSpec.PoolSplits does the same for
// the disaggregated pool split, and SweepSpec.Mixes/Trace for the
// workload shape (Metrics.PerTenant keeps the per-tenant SLOs).
//
// # Cluster serving
//
// ServeCluster scales the simulator from one instance to a fleet: R
// independent replicas behind a pluggable routing policy (round-robin,
// least-queue, least-kv, tenant-affinity), all fed from one seeded arrival
// stream the router splits deterministically. Replicas are heterogeneous
// capacity descriptors — each carries its own ServeSpec system, precision
// and admission policy. The router interleaves the replicas in arrival
// order on the calling goroutine and merges them in replica order, so a
// fleet result is byte-identical at any GOMAXPROCS:
//
//	res, _ := optimus.ServeCluster(optimus.ClusterSpec{
//	    Replicas: []optimus.ClusterReplica{{Spec: capacity, Count: 4}},
//	    Routing:  optimus.LeastQueueRouting,
//	    PromptTokens: 200, GenTokens: 200,
//	    Rate: 8, Requests: 1024, Seed: 1,
//	})
//	fmt.Println(res.E2E.P95, res.PerReplica[0].Assigned)
//
// FindClusterKnee bisects the fleet arrival rate to the saturation knee —
// the highest rate whose fleet p95 E2E still meets a target SLO — instead
// of making the user eyeball a rate sweep. SweepSpec.Replicas and
// SweepSpec.Routings make the fleet size and routing policy sweep axes.
//
// The subpackages under internal/ hold the substrates (technology tables,
// µarch engine, hierarchical roofline, collectives, schedules, footprint
// model, DSE); this package re-exports the surface a downstream user needs.
package optimus

import (
	"context"
	"io"
	"slices"

	"optimus/internal/arch"
	"optimus/internal/cluster"
	"optimus/internal/comm"
	"optimus/internal/dse"
	"optimus/internal/infer"
	"optimus/internal/memfoot"
	"optimus/internal/model"
	"optimus/internal/parallel"
	"optimus/internal/repro"
	"optimus/internal/serve"
	"optimus/internal/sweep"
	"optimus/internal/tech"
	"optimus/internal/train"
	"optimus/internal/uarch"
	"optimus/internal/workload"
)

// Core configuration and result types.
type (
	// Device is one accelerator in architecture-abstraction terms.
	Device = arch.Device
	// System is a cluster of devices with intra- and inter-node fabrics.
	System = arch.System
	// Link is one interconnect as seen by a device.
	Link = arch.Link
	// Model is a decoder-only transformer configuration.
	Model = model.Config
	// Mapping is a DP/TP/PP/SP parallelization strategy.
	Mapping = parallel.Mapping
	// TrainSpec describes one training experiment.
	TrainSpec = train.Spec
	// TrainResult is a per-iteration prediction with its breakdown.
	TrainResult = train.Result
	// InferSpec describes one inference experiment.
	InferSpec = infer.Spec
	// InferResult is an end-to-end latency prediction.
	InferResult = infer.Result
	// GEMMReport is one per-kernel row of the Table 4 analysis.
	GEMMReport = infer.GEMMReport
	// StepCost is one inference pass's compute/memory/comm decomposition
	// — the unit the serving simulator prices iterations in.
	StepCost = infer.StepCost
	// ServeSpec describes one continuous-batching serving simulation.
	ServeSpec = serve.Spec
	// ServeResult is a serving simulation outcome with SLO percentiles.
	ServeResult = serve.Result
	// ServeArrival selects the request arrival process.
	ServeArrival = serve.Arrival
	// ServePolicy selects the KV-cache admission policy.
	ServePolicy = serve.Policy
	// ServePercentiles summarizes one serving latency distribution.
	ServePercentiles = serve.Percentiles
	// ServeRequestMetrics is one simulated request's timeline.
	ServeRequestMetrics = serve.RequestMetrics
	// ServeRequest is one serving request's shape (tenant + per-request
	// prompt/generation lengths).
	ServeRequest = workload.Request
	// ServeTenantLoad is one tenant's contribution to a generated
	// multi-tenant workload mix (ServeSpec.Mix).
	ServeTenantLoad = workload.TenantLoad
	// ServeTraceEvent is one replayed request of a ServeSpec.Trace.
	ServeTraceEvent = workload.TraceEvent
	// ServeSchedule is a piecewise-constant arrival-rate timeline
	// (ServeSpec.Schedule); contiguous segments from time zero, the last
	// extending indefinitely. ("Schedule" alone names the pipeline
	// schedule, an older export.)
	ServeSchedule = workload.Schedule
	// ServeScheduleSegment is one ServeSchedule piece: Rate requests/sec
	// over [Start, End) seconds.
	ServeScheduleSegment = workload.Segment
	// ServeTenantMetrics is one tenant's SLO summary
	// (ServeResult.PerTenant).
	ServeTenantMetrics = serve.TenantMetrics
	// ServeInstance is a steppable single-replica simulator: push requests
	// at arrival times, observe load, drain — the driving surface cluster
	// routers are built on.
	ServeInstance = serve.Instance
	// ServeLoad is one instance's load snapshot (queue depth, in-flight
	// requests, KV pages/bytes held).
	ServeLoad = serve.Load

	// ClusterSpec describes one multi-replica fleet simulation.
	ClusterSpec = cluster.Spec
	// ClusterReplica is one fleet capacity descriptor (a ServeSpec carrying
	// capacity only, instantiated Count times).
	ClusterReplica = cluster.Replica
	// ClusterRouting selects the fleet routing policy.
	ClusterRouting = cluster.Routing
	// ClusterResult is a fleet simulation outcome with fleet-wide SLO
	// percentiles and per-replica shares.
	ClusterResult = cluster.Result
	// ClusterReplicaResult is one replica's share of a fleet simulation.
	ClusterReplicaResult = cluster.ReplicaResult
	// ClusterRequestMetrics is one completed request in the fleet-merged
	// view (global arrival index plus the replica that served it).
	ClusterRequestMetrics = cluster.RequestMetrics
	// ClusterKneeSpec describes one saturation-knee analysis.
	ClusterKneeSpec = cluster.KneeSpec
	// ClusterKnee is the knee analysis outcome.
	ClusterKnee = cluster.Knee
	// ClusterKneeProbe is one bisection evaluation of a knee analysis.
	ClusterKneeProbe = cluster.KneeProbe
	// MemoryBreakdown is a per-device training footprint.
	MemoryBreakdown = memfoot.Breakdown
	// MemorySpec describes a training-footprint query.
	MemorySpec = memfoot.TrainSpec
	// Design is a µarch design point (technology + budget + allocation).
	Design = uarch.Design
	// Budget is an area/power/perimeter envelope.
	Budget = uarch.Budget
	// Allocation divides a budget across µarch components.
	Allocation = uarch.Allocation
	// DSEOptions tune the design-space search.
	DSEOptions = dse.Options
	// DSEResult is the optimum found by the search.
	DSEResult = dse.Result
	// Precision is a numeric tensor format.
	Precision = tech.Precision
	// Recompute selects the activation recomputation regime.
	Recompute = memfoot.Recompute
	// Schedule selects the pipeline-parallel schedule.
	Schedule = parallel.Schedule
	// Table is a rendered reproduction of one paper experiment.
	Table = repro.Table

	// SweepSpec describes a cross-product experiment grid.
	SweepSpec = sweep.Spec
	// PlanConstraints bound a sweep's mapping space and ranking
	// (SweepSpec.Constraints). A one-cell training grid — one model,
	// system, precision, batch and sequence length — is the automatic
	// parallelization planner (§5.1).
	PlanConstraints = sweep.Constraints
	// SweepResult is a ranked grid evaluation with execution statistics.
	SweepResult = sweep.Result
	// SweepRow is one ranked sweep candidate.
	SweepRow = sweep.Row
	// SweepPoint is one fully instantiated candidate experiment.
	SweepPoint = sweep.Point
	// SweepStats summarizes how a sweep executed (enumerated / pruned /
	// evaluated / memoized counts, workers, wall clock).
	SweepStats = sweep.Stats
	// SweepEngine is a reusable sweep evaluator whose memoization cache
	// persists across runs.
	SweepEngine = sweep.Engine
	// SweepWorkload selects the predictor a sweep exercises.
	SweepWorkload = sweep.Workload
	// SweepTenantSLO is one tenant's SLO summary within a serving sweep
	// candidate (SweepSpec.Mixes / SweepSpec.Trace grids).
	SweepTenantSLO = sweep.TenantSLO
	// SweepPoolSplit is one disaggregated prefill/decode pool split of the
	// SweepSpec.PoolSplits grid axis.
	SweepPoolSplit = sweep.PoolSplit
)

// Sweep workloads.
const (
	// TrainingSweep ranks strategies by predicted seconds per batch.
	TrainingSweep = sweep.Training
	// InferenceSweep ranks configurations by end-to-end request latency.
	InferenceSweep = sweep.Inference
	// ServingSweep simulates continuous batching per candidate and ranks
	// by p95 end-to-end latency.
	ServingSweep = sweep.Serving
)

// Serving arrival processes.
const (
	// PoissonArrivals is the open-loop process at ServeSpec.Rate req/s.
	PoissonArrivals = serve.Poisson
	// ClosedLoopArrivals models ServeSpec.Clients users with zero think
	// time.
	ClosedLoopArrivals = serve.ClosedLoop
)

// Serving KV-cache admission policies.
const (
	// ReserveFullPolicy reserves each request's full prompt+generation
	// KV context at admission (never preempts).
	ReserveFullPolicy = serve.ReserveFull
	// PagedPolicy allocates KV in ServeSpec.PageTokens-sized blocks that
	// grow as a request decodes, preempting LIFO (recompute on
	// readmission) under pressure.
	PagedPolicy = serve.Paged
	// DisaggregatedPolicy splits the KV capacity into prefill and decode
	// page pools (ServeSpec.PrefillDevices / DecodeDevices): requests
	// admit against the prefill pool on their prompt's pages, migrate to
	// the decode pool on first token — paying a per-request KV transfer
	// over the ServeSpec.TransferGBps interconnect — and decode growth
	// and preemption run against the decode pool only.
	DisaggregatedPolicy = serve.Disaggregated
	// DefaultPageTokens is PagedPolicy's block size when
	// ServeSpec.PageTokens is zero.
	DefaultPageTokens = serve.DefaultPageTokens
	// DefaultServeTransferGBps is DisaggregatedPolicy's KV-transfer
	// bandwidth when ServeSpec.TransferGBps is zero, in GB/s.
	DefaultServeTransferGBps = serve.DefaultTransferGBps
	// DefaultServeSwapGBps is the GPU↔host KV swap-link bandwidth when a
	// host tier is configured (ServeSpec.HostKVBytes > 0) but
	// ServeSpec.SwapGBps is zero, in GB/s (a PCIe-class link).
	DefaultServeSwapGBps = serve.DefaultSwapGBps
)

// Cluster routing policies.
const (
	// RoundRobinRouting routes arrival i to replica i mod R.
	RoundRobinRouting = cluster.RoundRobin
	// LeastQueueRouting routes each arrival to the replica with the fewest
	// in-flight requests at the arrival instant (ties to the lowest index).
	LeastQueueRouting = cluster.LeastQueue
	// LeastKVRouting routes each arrival to the replica holding the fewest
	// KV-cache bytes at the arrival instant.
	LeastKVRouting = cluster.LeastKV
	// TenantAffinityRouting pins each tenant to one home replica by a hash
	// of its name — session/prefix-cache affinity.
	TenantAffinityRouting = cluster.TenantAffinity
	// DefaultClusterKneeTolerance is FindClusterKnee's relative bracket
	// tolerance when ClusterKneeSpec.Tolerance is zero.
	DefaultClusterKneeTolerance = cluster.DefaultKneeTolerance
)

// Precisions.
const (
	FP32 = tech.FP32
	TF32 = tech.TF32
	BF16 = tech.BF16
	FP16 = tech.FP16
	FP8  = tech.FP8
	FP4  = tech.FP4
	INT8 = tech.INT8
)

// Recomputation regimes (§3.3).
const (
	NoRecompute        = memfoot.NoRecompute
	SelectiveRecompute = memfoot.Selective
	FullRecompute      = memfoot.Full
)

// Pipeline schedules (§3.2).
const (
	GPipe           = parallel.GPipe
	OneFOneB        = parallel.OneFOneB
	Interleaved1F1B = parallel.Interleaved1F1B
)

// ModelByName returns a preset LLM configuration ("gpt-175b",
// "llama2-13b", ...), case- and punctuation-insensitively.
func ModelByName(name string) (Model, error) { return model.ByName(name) }

// Models returns the full preset zoo.
func Models() []Model { return model.All() }

// DeviceByName returns a preset accelerator ("a100", "h100", "h200",
// "b100", "b200", "v100", "p4", "tpuv4").
func DeviceByName(name string) (Device, error) { return arch.DeviceByName(name) }

// NewSystem assembles a cluster of n preset devices in nodes of 8 with the
// named fabrics (e.g. "nvlink3"/"nvlink4"/"nvlink5" inside, "hdr"/"ndr"/
// "nvs" between nodes).
func NewSystem(device string, n int, intra, inter string) (*System, error) {
	dev, err := arch.DeviceByName(device)
	if err != nil {
		return nil, err
	}
	it, err := tech.ParseNetwork(intra)
	if err != nil {
		return nil, err
	}
	et, err := tech.ParseNetwork(inter)
	if err != nil {
		return nil, err
	}
	return arch.SystemOf(dev, n, 8, it, et)
}

// PredictTraining estimates the time per training batch (§4.2's validated
// predictor).
func PredictTraining(s TrainSpec) (TrainResult, error) { return train.Predict(s) }

// PredictInference estimates end-to-end inference latency (§4.3's
// validated predictor).
func PredictInference(s InferSpec) (InferResult, error) { return infer.Predict(s) }

// PrefillGEMMTable analyzes the summarization-phase matrix multiplies of
// one transformer layer (Table 4).
func PrefillGEMMTable(s InferSpec) ([]GEMMReport, error) { return infer.PrefillGEMMTable(s) }

// PrefillCost prices the summarization pass of one request batch — the
// per-phase compute/memory/comm decomposition the serving simulator builds
// on.
func PrefillCost(s InferSpec) (StepCost, error) { return infer.PrefillCost(s) }

// DecodeStepCost prices one autoregressive decode step at KV length kvLen
// for a batch of concurrent sequences; summing steps over
// kvLen = PromptTokens+1 .. PromptTokens+GenTokens reproduces
// PredictInference's decode time.
func DecodeStepCost(s InferSpec, kvLen, batch int) (StepCost, error) {
	return infer.DecodeStepCost(s, kvLen, batch)
}

// Serve runs the discrete-event continuous-batching serving simulator;
// results are byte-identical across repeated invocations at a fixed seed.
func Serve(s ServeSpec) (ServeResult, error) { return serve.Run(s) }

// ParseServePolicy resolves a CLI admission-policy token ("reserve",
// "paged").
func ParseServePolicy(s string) (ServePolicy, error) { return serve.ParsePolicy(s) }

// DefaultServeTenant names the tenant of the degenerate single-tenant
// workload the spec-wide ServeSpec.PromptTokens/GenTokens describe.
const DefaultServeTenant = workload.DefaultTenant

// ParseServeMix parses the CLI multi-tenant mix syntax: comma-separated
// "tenant:share:prompt:gen" entries, each optionally extended to
// "tenant:share:prompt:gen:prefix[:prefix-id]" for shared-prefix loads.
func ParseServeMix(s string) ([]ServeTenantLoad, error) { return workload.ParseMix(s) }

// FormatServeMix renders a mix back into the ParseServeMix syntax.
func FormatServeMix(mix []ServeTenantLoad) string { return workload.FormatMix(mix) }

// ParseServeTrace reads a serving trace in CSV form — one request per row
// as "arrival,tenant,prompt,gen" (v1),
// "arrival,tenant,prompt,gen,prefix_id,prefix_tokens" (v2), or the
// v3 eight-column form appending "session,turn" for multi-turn session
// rows — optional header — and validates it.
func ParseServeTrace(r io.Reader) ([]ServeTraceEvent, error) { return workload.ParseTrace(r) }

// FormatServeTrace renders a trace back into the ParseServeTrace CSV
// syntax: the v3 eight-column form iff any event carries session fields,
// the v2 six-column form iff any carries a prefix, v1 otherwise.
func FormatServeTrace(w io.Writer, events []ServeTraceEvent) error {
	return workload.FormatTrace(w, events)
}

// ParseServeSchedule parses the CLI piecewise arrival-rate schedule
// syntax: comma-separated "start-end:rate" segments in seconds and
// requests/sec, e.g. "0-60:5,60-120:25" (ServeSpec.Schedule).
func ParseServeSchedule(s string) (ServeSchedule, error) { return workload.ParseSchedule(s) }

// FormatServeSchedule renders a schedule back into the ParseServeSchedule
// syntax.
func FormatServeSchedule(s ServeSchedule) string { return workload.FormatSchedule(s) }

// CanonicalServeSchedule reduces a (schedule, rate) pair to canonical
// form: adjacent equal-rate segments merge, and a constant schedule
// collapses to (nil, rate) — the byte-identical plain Poisson process.
// The result never shares the input's segments.
func CanonicalServeSchedule(s ServeSchedule, rate float64) (ServeSchedule, float64) {
	cs, cr := workload.CanonicalSchedule(s, rate)
	return slices.Clone(cs), cr
}

// NewServeInstance builds a steppable single-replica simulator from a
// capacity-only ServeSpec (no workload or arrival fields) and the envelope
// of request shapes it may be asked to serve; ServeCluster drives R of
// them behind a routing policy.
func NewServeInstance(s ServeSpec, envelope []ServeRequest) (*ServeInstance, error) {
	return serve.NewInstance(s, envelope)
}

// ServeCluster runs the multi-replica fleet simulator: R independent
// serving simulations behind a deterministic routing policy, fed from one
// seeded fleet-wide arrival stream. The fleet runs on the calling
// goroutine and its results merge deterministically, so a fleet result is
// byte-identical at any GOMAXPROCS.
func ServeCluster(s ClusterSpec) (ClusterResult, error) { return cluster.Run(s) }

// FindClusterKnee bisects the fleet arrival rate to the saturation knee:
// the highest rate whose fleet p95 E2E latency still meets the target SLO.
// The probe sequence is fully deterministic, so repeated analyses are
// byte-identical.
func FindClusterKnee(ks ClusterKneeSpec) (ClusterKnee, error) { return cluster.FindKnee(ks) }

// ParseClusterRouting resolves a CLI routing-policy token ("round-robin",
// "least-queue", "least-kv", "tenant-affinity", or the short aliases "rr",
// "lq", "lkv", "affinity").
func ParseClusterRouting(s string) (ClusterRouting, error) { return cluster.ParseRouting(s) }

// TrainingMemory returns the per-device training footprint (§5.1).
func TrainingMemory(s MemorySpec) (MemoryBreakdown, error) { return memfoot.Train(s) }

// FitsDevice reports whether a footprint fits a device capacity.
func FitsDevice(b MemoryBreakdown, capacity float64) bool {
	return memfoot.FitsDevice(b, capacity)
}

// OptimizeDesign runs the §3.6 design-space exploration: a projected
// gradient-descent search over the µarch resource allocation minimizing
// the objective (typically a PredictTraining closure).
func OptimizeDesign(base Design, objective func(Design) (float64, error), o DSEOptions) (DSEResult, error) {
	return dse.Optimize(base, objective, o)
}

// DeriveDevice turns a µarch design into an abstract device via the
// microarchitecture engine.
func DeriveDevice(d Design) (Device, error) {
	res, err := uarch.Derive(d)
	if err != nil {
		return Device{}, err
	}
	return res.Device, nil
}

// DeriveSystem assembles a cluster of n derived devices in nodes of
// devicesPerNode.
func DeriveSystem(d Design, n, devicesPerNode int) (*System, error) {
	return uarch.SystemFrom(d, n, devicesPerNode)
}

// ReadDeviceJSON parses an external device description (paper §3.1: the
// abstraction layer accepts high-level system descriptions directly,
// avoiding microarchitecture calibration for new hardware).
func ReadDeviceJSON(r io.Reader) (Device, error) { return arch.ReadDevice(r) }

// ReadSystemJSON parses an external full-system description.
func ReadSystemJSON(r io.Reader) (*System, error) { return arch.ReadSystem(r) }

// WriteDeviceJSON exports a device in the external JSON format, so presets
// can be dumped, edited and reloaded.
func WriteDeviceJSON(w io.Writer, d Device) error { return arch.WriteDevice(w, d) }

// Sweep evaluates a cross-product experiment grid concurrently: candidates
// are enumerated deterministically and deduplicated, pruned by the
// memory-feasibility model before costing, and ranked fitting-first then
// by predicted time — the same ranking at any worker count. It keeps no
// memo (a grid's candidates are distinct); use NewSweepEngine to share
// one across sweeps. Cancel ctx to stop a large grid early.
func Sweep(ctx context.Context, s SweepSpec) (SweepResult, error) { return sweep.Run(ctx, s) }

// NewSweepEngine returns a reusable sweep evaluator with the given worker
// count (0 means GOMAXPROCS); successive Run calls share its memoization
// cache, so overlapping grids are costed once. Runs that overlap in time
// on one engine are safe and rank alike, but each evaluates what the
// memo lacked as it began.
func NewSweepEngine(workers int) *SweepEngine { return sweep.New(workers) }

// Reproduce regenerates one of the paper's experiments ("table1",
// "table2", "table4", "fig3".."fig9") and returns its rendered table.
func Reproduce(id string) (Table, error) { return repro.Run(id) }

// Experiments lists the reproducible experiment IDs.
func Experiments() []string { return repro.IDs() }

// RingAllReduceTime exposes the Eq. (3) collective model.
func RingAllReduceTime(bytes float64, n int, link Link) float64 {
	return comm.AllReduceTime(comm.Ring, bytes, n, link)
}

// TreeAllReduceTime exposes the Eq. (4) collective model.
func TreeAllReduceTime(bytes float64, n int, link Link) float64 {
	return comm.AllReduceTime(comm.DoubleBinaryTree, bytes, n, link)
}
