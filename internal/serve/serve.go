// Package serve simulates continuous-batching LLM serving on top of the
// step-cost engine of internal/infer. It is a discrete-event simulator in
// the style the paper's §7 sketches as future work and RAPID-LLM
// (arXiv:2512.19606) builds at infrastructure scale: requests arrive by a
// seeded deterministic process (open-loop Poisson or closed-loop clients),
// queue for KV-cache capacity, and are batched at iteration granularity —
// every engine step admits waiting requests up to the batch cap and KV
// budget, prices the resulting mixed prefill/decode iteration with
// infer.PrefillCost / infer.DecodeStepCost, and advances the clock by that
// analytic cost. No wall-clock time, goroutines, or maps in the event path:
// runs are byte-identical across repeated invocations at a fixed seed and
// any GOMAXPROCS.
//
// The simulator reports per-request TTFT (time to first token — queueing
// delay plus the prefill pass that emits it), TPOT (time per output token
// over the decode steps), and E2E latency, with p50/p95/p99 percentiles —
// the SLO surface capacity planning ranks on.
//
// Requests carry their own prompt/generation lengths, streamed from the
// spec's workload.Spec — a multi-tenant Mix, a replayed Trace, or the
// degenerate spec-wide shape — and results break the SLO percentiles down
// per tenant (Result.PerTenant) alongside the aggregate view.
//
// Pre-draw rules (Validate, Feasible, Canonical, Run's verdict) read the
// workload's possible shapes; the simulation reads the drawn stream, whose
// Envelope Run arms on exactly as every fleet replica does.
//
// KV-cache admission is a sealed, pluggable policy with two
// implementations selected by Spec.Policy:
//
//   - ReserveFull (the default) reserves each request's full
//     prompt+generation context up front — admission is pessimistic but
//     nothing is ever evicted.
//   - Paged allocates KV in fixed-size token blocks (Spec.PageTokens,
//     vLLM-style) that grow as a request decodes, admitting on the
//     prompt's pages alone. Under pressure the youngest running sequence
//     is preempted (LIFO), its cache discarded, and it is re-queued for a
//     fresh prefill — recompute-style preemption, priced through the same
//     PrefillCost API as any admission. Result counts Preemptions, the
//     RecomputedTokens they discarded, and page-pool utilization, making
//     the SLO-versus-utilization trade directly observable. Paged runs
//     over one page pool; Disaggregated is the same implementation over
//     two (prefill and decode) with a priced KV migration between them.
package serve

import (
	"fmt"
	"math"
	"slices"

	"optimus/internal/arch"
	"optimus/internal/infer"
	"optimus/internal/memfoot"
	"optimus/internal/model"
	"optimus/internal/tech"
	"optimus/internal/workload"
)

// Arrival selects the request arrival process.
type Arrival int

const (
	// Poisson is an open-loop process: exponential interarrivals at Rate
	// requests/sec, independent of service progress.
	Poisson Arrival = iota
	// ClosedLoop models Clients concurrent users with zero think time:
	// each issues its next request the moment the previous one completes.
	ClosedLoop
)

// String names the arrival process.
func (a Arrival) String() string {
	switch a {
	case Poisson:
		return "poisson"
	case ClosedLoop:
		return "closed-loop"
	default:
		return fmt.Sprintf("Arrival(%d)", int(a))
	}
}

// Spec fixes one serving-simulation experiment.
//
//lint:fieldalign public API struct: fields are grouped by meaning for godoc, and Spec is built once per run, never in bulk
type Spec struct {
	// Model, System, TP and Precision configure the step-cost engine
	// exactly as in infer.Spec.
	Model     model.Config
	System    *arch.System
	TP        int
	Precision tech.Precision

	// The workload: the request shapes (the spec-wide
	// PromptTokens/GenTokens/PrefixTokens — the paper's Table 2 uses
	// 200/200 — or a Mix, or a replayed Trace) and the arrival process
	// (Poisson at Rate or along a Schedule, optionally in sessions of
	// Turns requests Think seconds apart, or Clients closed-loop clients;
	// Requests of them, zero meaning 256, drawn from Seed). Workload and
	// SetWorkload convert them to a workload.Spec, whose documentation and
	// rules they follow; Arrival ClosedLoop is its Closed. Shared prefixes
	// and session cohorts need the paged policy with preemption.
	PromptTokens int
	GenTokens    int
	PrefixTokens int
	Mix          []workload.TenantLoad
	Trace        []workload.TraceEvent
	Arrival      Arrival
	Rate         float64
	Schedule     workload.Schedule
	Clients      int
	Turns        int
	Think        float64
	Requests     int
	Seed         int64

	// MaxBatch caps concurrent sequences per iteration; zero derives the
	// largest batch the admission policy's KV budget holds.
	MaxBatch int
	// KVCapacity overrides the per-device KV-cache budget in bytes; zero
	// derives it as device DRAM minus the TP-sharded weights.
	KVCapacity float64

	// Policy selects the KV admission policy; the zero value is
	// ReserveFull, the PR-2 full-context reservation.
	Policy Policy
	// PageTokens is the paged policy's KV block size in tokens; zero
	// means DefaultPageTokens. It is clamped to the full context, at
	// which point the paged policy degenerates to block-granular
	// reservation. Paged only.
	PageTokens int
	// NoPreempt disables victim preemption: paged admission then
	// reserves the full-context page count up front, so growth can never
	// fail. Paged only.
	NoPreempt bool

	// HostKVBytes sizes a host-memory KV tier, in bytes: preemption
	// victims swap their pages out to it (instead of discarding them) over
	// a PCIe-class link, and readmission swaps them back in when that is
	// cheaper than the recompute prefill. Zero disables the tier — the
	// recompute-only path, byte-identical to the tierless policy. Paged
	// policy only, and preemption must stay enabled (NoPreempt unset).
	HostKVBytes float64
	// SwapGBps is the host tier's link bandwidth in GB/s (internal/comm's
	// point-to-point link model, small-message derating included). Zero
	// means DefaultSwapGBps; math.Inf(1) prices swaps at exactly zero.
	// Requires HostKVBytes.
	SwapGBps float64

	// PrefillDevices and DecodeDevices size the disaggregated policy's two
	// page pools: each pool owns its count of the TP devices' aggregate KV
	// budget. Counts may overlap (a device serving both phases); zero
	// defaults to TP — each pool spanning every device, the co-located
	// split. Disaggregated only.
	PrefillDevices int
	DecodeDevices  int
	// TransferGBps is the bandwidth of the interconnect joining the two
	// pools, in GB/s: every sequence migrating from prefill to decode pays
	// a point-to-point transfer of its prompt's KV bytes over it
	// (internal/comm's link model, small-message derating included). Zero
	// means DefaultTransferGBps; math.Inf(1) prices transfers at exactly
	// zero — the co-located degenerate case. Disaggregated only.
	TransferGBps float64

	// probe, when set by package tests, observes every iteration's KV
	// accounting (the instrumentation hook the conservation property
	// tests assert through).
	probe func(probeState)
}

// probeState is the per-iteration KV accounting snapshot handed to the
// test-only step probe, sampled after admission and before pricing.
type probeState struct {
	iteration       int
	running, queued int
	// usedPages/totalPages are the policy's committed-page accounting
	// (zero for ReserveFull); runningPages re-sums the running set's held
	// pages so the probe can assert conservation independently. Held and
	// committed coincide except under NoPreempt, whose admissions reserve
	// full contexts they have not yet filled.
	usedPages, totalPages, runningPages int
	usedBytes, budget                   float64
	// Page-pool accounting (zero under ReserveFull): committed pages and
	// capacity per pool, plus the running set's held pages re-summed by
	// the pool each sequence currently occupies. Paged's one pool is the
	// decode pool; its prefill side stays empty.
	prefillPages, prefillTotal              int
	decodePages, decodeTotal                int
	runningPrefillPages, runningDecodePages int
	// decidersInPrefill counts carried-over sequences (everything but this
	// iteration's admissions) still resident in the prefill pool — they are
	// about to decode, so the count must be zero: beginStep migrates every
	// survivor before its next token.
	decidersInPrefill int
	// Prefix/tier accounting (zero without them): resident shared-prefix
	// pages (conservation closes as usedPages == runningPages +
	// prefixPages under the paged policy) and the host tier's committed
	// pages against its capacity.
	prefixPages          int
	hostPages, hostTotal int
}

// Workload returns the spec's workload description; SetWorkload
// replaces it. Every workload rule — defaults, shape bounds, the arrival
// stream and the field checks — is workload.Spec's.
func (s Spec) Workload() workload.Spec {
	return workload.Spec{
		PromptTokens: s.PromptTokens, GenTokens: s.GenTokens, PrefixTokens: s.PrefixTokens,
		Mix: s.Mix, Trace: s.Trace,
		Rate: s.Rate, Schedule: s.Schedule, Turns: s.Turns, Think: s.Think,
		Requests: s.Requests, Seed: s.Seed,
		Closed: s.Arrival != Poisson, Clients: s.Clients,
	}
}

// SetWorkload replaces the spec's workload fields with w's.
func (s *Spec) SetWorkload(w workload.Spec) {
	s.PromptTokens, s.GenTokens, s.PrefixTokens = w.PromptTokens, w.GenTokens, w.PrefixTokens
	s.Mix, s.Trace = w.Mix, w.Trace
	s.Rate, s.Schedule, s.Turns, s.Think = w.Rate, w.Schedule, w.Turns, w.Think
	s.Requests, s.Seed = w.Requests, w.Seed
	s.Arrival, s.Clients = Poisson, w.Clients
	if w.Closed {
		s.Arrival = ClosedLoop
	}
}

// inferSpec builds the step-cost configuration at the largest request
// shape of bounds; for the degenerate single-tenant workload that is
// exactly the spec-wide PromptTokens/GenTokens.
func (s Spec) inferSpec(b workload.Bounds) infer.Spec {
	return infer.Spec{
		Model: s.Model, System: s.System, TP: s.TP, Batch: 1,
		PromptTokens: b.MaxPrompt, GenTokens: b.MaxGen,
		Precision: s.Precision,
	}
}

// inferenceFootprint is the footprint model behind newPolicy; a package
// variable so tests can count invocations and pin that Run derives the KV
// geometry exactly once per simulation (not once per iteration or per
// helper call).
var inferenceFootprint = memfoot.Inference

// Validate checks the experiment: the workload (workload.Spec.Validate)
// and the capacity serving it, including that the workload's largest
// possible request — weights + full-context KV-cache — fits the device
// (Feasible's verdict).
func (s Spec) Validate() error {
	_, err := s.resolve(new(policyStore))
	return err
}

// resolve applies the pre-draw rules, building the fit check's policy in
// ps, and returns the spec with its workload defaulted.
func (s Spec) resolve(ps *policyStore) (Spec, error) {
	if s.Arrival != Poisson && s.Arrival != ClosedLoop {
		return s, fmt.Errorf("serve: unknown arrival process %v", s.Arrival)
	}
	w := s.Workload()
	if err := w.Validate(); err != nil {
		return s, fmt.Errorf("serve: %w", err)
	}
	s.SetWorkload(w.WithDefaults())
	env := possibleEnvelope(s.Workload())
	if err := s.validateCapacity(&env); err != nil {
		return s, err
	}
	_, err := s.fit(&env, ps)
	return s, err
}

// ValidateCapacity checks a capacity-only spec — workload and arrival
// fields zero — serving the workload w: the step-cost configuration, the
// policy knobs against w, and the fit of w's largest possible request. A
// fleet validates its one workload first, so that its errors name the
// fleet, then each replica against it this way.
func (s Spec) ValidateCapacity(w workload.Spec) error {
	if err := s.capacityOnly(); err != nil {
		return err
	}
	s.SetWorkload(w)
	_, err := s.resolve(new(policyStore))
	return err
}

// capacityOnly rejects the workload and arrival fields of a capacity
// spec, whose requests a router pushes.
func (s Spec) capacityOnly() error {
	for f, set := range s.Workload().SetFields() {
		switch f := workload.Field(f); {
		case !set:
		case f <= workload.FieldTrace:
			return fmt.Errorf("serve: a capacity spec carries capacity only, no workload fields — leave %s zero, the router pushes requests", f)
		default:
			return fmt.Errorf("serve: a capacity spec carries no arrival process, so no arrival fields — leave %s zero", f)
		}
	}
	return nil
}

// validateCapacity checks the step-cost configuration at env's largest
// shape and the capacity knobs against env — everything that does not
// need the KV geometry, run before newPolicy, since deriving the geometry
// dereferences the system a garbage spec may not have.
func (s Spec) validateCapacity(env *Envelope) error {
	if err := s.inferSpec(env.bounds).Validate(); err != nil {
		return err
	}
	return s.validateKnobs(env)
}

// validateKnobs checks the capacity knobs: counts, limits and the
// policy-specific fields, the prefix-caching row set by any prefixed
// shape of env.
func (s Spec) validateKnobs(env *Envelope) error {
	switch {
	case s.MaxBatch < 0:
		return fmt.Errorf("serve: negative batch cap %d", s.MaxBatch)
	case s.KVCapacity < 0 || math.IsNaN(s.KVCapacity) || math.IsInf(s.KVCapacity, 0):
		// Negative-or-non-finite form: a NaN budget fails every admission
		// comparison and an infinite one overflows the batch-cap math.
		return fmt.Errorf("serve: KV capacity %g not finite and non-negative", s.KVCapacity)
	case s.Policy != ReserveFull && s.Policy != Paged && s.Policy != Disaggregated:
		return fmt.Errorf("serve: unknown admission policy %v", s.Policy)
	}
	// Reject knobs the chosen policy would silently ignore: a user who
	// sets them believes they shaped the simulation.
	prefix := Knobs[knobPrefixTokens].Field
	if err := CheckKnobs([]Policy{s.Policy}, s.NoPreempt,
		func(k Knob) bool { return k.set(s) || k.Field == prefix && env.prefixed },
		func(k Knob) string {
			// A prefix surviving the workload rules alongside Turns above
			// 1 is the session cohort's own.
			if k.Field == prefix && s.Turns > 1 {
				return "Turns above 1"
			}
			return k.Field
		}, "Policy"); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	// Every knob is now zero or read by the policy: range-check the values.
	switch {
	case s.PageTokens < 0:
		return fmt.Errorf("serve: negative page size %d tokens", s.PageTokens)
	case s.PrefillDevices < 0 || s.PrefillDevices > s.TP:
		return fmt.Errorf("serve: prefill pool of %d devices outside [1, TP=%d] (0 derives TP)", s.PrefillDevices, s.TP)
	case s.DecodeDevices < 0 || s.DecodeDevices > s.TP:
		return fmt.Errorf("serve: decode pool of %d devices outside [1, TP=%d] (0 derives TP)", s.DecodeDevices, s.TP)
	case s.TransferGBps < 0 || math.IsNaN(s.TransferGBps):
		return fmt.Errorf("serve: KV-transfer bandwidth %g GB/s not non-negative (0 derives %g; +Inf is a free transfer)",
			s.TransferGBps, DefaultTransferGBps)
	case s.HostKVBytes < 0 || math.IsNaN(s.HostKVBytes) || math.IsInf(s.HostKVBytes, 0):
		return fmt.Errorf("serve: host KV capacity %g bytes not finite and non-negative", s.HostKVBytes)
	case s.SwapGBps < 0 || math.IsNaN(s.SwapGBps):
		return fmt.Errorf("serve: swap bandwidth %g GB/s not non-negative (0 derives %g; +Inf is a free swap)",
			s.SwapGBps, DefaultSwapGBps)
	}
	return nil
}

// fit builds the spec's admission policy over env in ps and checks that
// env's largest request fits.
func (s Spec) fit(env *Envelope, ps *policyStore) (admissionPolicy, error) {
	pol := newPolicy(s, env, ps)
	if !pol.Feasible() {
		return nil, fmt.Errorf("serve: one %d-token request does not fit the device (weights + KV-cache exceed %g bytes)",
			env.bounds.MaxContext, s.System.Device.DRAMCapacity())
	}
	return pol, nil
}

// Feasible reports whether the workload's largest possible request can
// ever be admitted: the TP-sharded weights plus one full-context KV
// allocation (reservation or pages) fit the KV budget. The sweep engine
// uses it to prune hopeless grid cells before simulating; its verdict
// matches whether Run would reject the spec.
func Feasible(s Spec) bool {
	env := possibleEnvelope(s.Workload())
	return newPolicy(s, &env, new(policyStore)).Feasible()
}

// RequestMetrics is one completed request's timeline.
type RequestMetrics struct {
	// ID is the arrival index (0-based).
	ID int
	// Tenant, PromptTokens and GenTokens echo the request's workload
	// shape (the degenerate spec-wide workload runs under DefaultTenant).
	Tenant       string
	PromptTokens int
	GenTokens    int
	// Arrival, Admitted, FirstToken and Done are simulation timestamps.
	Arrival    float64
	Admitted   float64
	FirstToken float64
	Done       float64
	// Queue is the admission delay (Admitted - Arrival).
	Queue float64
	// TTFT is the time to first token (FirstToken - Arrival).
	TTFT float64
	// TPOT is the mean time per output token after the first.
	TPOT float64
	// E2E is the end-to-end latency (Done - Arrival).
	E2E float64
	// Preemptions counts how many times this request was evicted and
	// re-queued (paged and disaggregated policies). Admitted and
	// FirstToken keep their first-occurrence timestamps across
	// preemptions, so TTFT reflects when the stream first started; Done
	// (and hence TPOT and E2E) absorb the recompute stalls.
	Preemptions int
	// KVTransfers counts this request's KV movements over a modeled link —
	// prefill→decode pool migrations under the disaggregated policy, host
	// tier swap-outs and swap-ins under the paged policy's tiered KV — and
	// KVTransferTime the link seconds they cost.
	KVTransfers    int
	KVTransferTime float64
}

// Percentiles summarizes one latency distribution with nearest-rank
// percentiles: Pq is the sample at 1-based rank ceil(q·n) of the sorted
// n-sample set. Nearest-rank saturates rather than interpolates on small
// samples — for n < 20 the P95 rank is n itself, so P95 == Max, and for
// n < 100 likewise P99 == Max. Short runs and low-share tenants therefore
// report degenerate (maximum-valued) tail percentiles by construction;
// that is a property of the estimator, not an off-by-one
// (TestPercentilesNearestRank pins the exact ranks).
type Percentiles struct {
	P50, P95, P99 float64
	Mean, Max     float64
}

// percentiles sorts sample in place and computes its nearest-rank
// percentiles. Mean sums the sample in sorted order: float addition does
// not associate, so a selection that leaves the sample unsorted
// (nth-element for the ranks) would move Mean in its last bits
// (TestPercentilesMeanSumsInSortedOrder).
func percentiles(sample []float64) Percentiles {
	slices.Sort(sample)
	return sortedPercentiles(sample)
}

// sortedPercentiles computes the nearest-rank percentiles of an ascending
// sample.
func sortedPercentiles(sample []float64) Percentiles {
	n := len(sample)
	if n == 0 {
		return Percentiles{}
	}
	var sum float64
	for _, v := range sample {
		sum += v
	}
	return Percentiles{
		P50:  sample[rankIndex(0.50, n)],
		P95:  sample[rankIndex(0.95, n)],
		P99:  sample[rankIndex(0.99, n)],
		Mean: sum / float64(n),
		Max:  sample[n-1],
	}
}

// rankIndex is the 0-based index of nearest rank ceil(q·n) in an
// ascending n-sample set.
func rankIndex(q float64, n int) int {
	return max(int(math.Ceil(q*float64(n)))-1, 0)
}

// Result is the outcome of one serving simulation.
type Result struct {
	// Requests is the completed request count.
	Requests int
	// SimTime is the simulated makespan (time of the last completion).
	SimTime float64
	// Iterations is the number of priced batching iterations.
	Iterations int
	// ThroughputRPS is completed requests per simulated second.
	ThroughputRPS float64
	// TokensPerSec is aggregate generated tokens per simulated second.
	TokensPerSec float64

	// TTFT, TPOT, E2E and Queue are the SLO percentile summaries.
	TTFT  Percentiles
	TPOT  Percentiles
	E2E   Percentiles
	Queue Percentiles

	// MeanBatch is the mean concurrent-sequence count over iterations;
	// PeakBatch its maximum.
	MeanBatch float64
	PeakBatch int
	// PeakKVBytes is the high-water per-device KV commitment: held pages
	// under paged preemption, reservations under ReserveFull and
	// NoPreempt — always the capacity admission saw as unavailable, so
	// the number is comparable across the policy axis.
	PeakKVBytes float64
	// MeanKVUtil is the mean fraction of the KV budget committed across
	// iterations (sampled after admission) — the utilization side of the
	// SLO-versus-utilization trade.
	MeanKVUtil float64
	// MaxBatch and KVCapacity echo the resolved admission limits.
	MaxBatch   int
	KVCapacity float64

	// Policy echoes the admission policy; PageTokens and KVPagesTotal its
	// resolved block geometry and PeakKVPages the page high-water (all
	// zero under ReserveFull).
	Policy       Policy
	PageTokens   int
	KVPagesTotal int
	PeakKVPages  int
	// Preemptions counts victim evictions; RecomputedTokens the generated
	// tokens whose KV entries they discarded, which readmission prefills
	// had to rebuild.
	Preemptions      int
	RecomputedTokens int

	// Prefix-caching fields (paged policy with a prefixed workload; zero
	// elsewhere): admissions that found their shared prefix resident in
	// the KV cache, and the prefill tokens those hits skipped.
	PrefixHits        int
	PrefixSavedTokens int

	// Host-KV-tier fields (paged policy with HostKVBytes set; zero
	// elsewhere): the tier's page capacity and high-water mark, the
	// eviction swap-outs and readmission swap-ins it absorbed, and the
	// total link seconds they cost.
	HostPagesTotal int
	PeakHostPages  int
	KVSwapOuts     int
	KVSwapIns      int
	SwapTimeTotal  float64

	// Disaggregated-policy fields (zero elsewhere): the resolved pool
	// split, per-pool page capacities and high-water marks, and the KV
	// migrations between them — count and total interconnect seconds.
	PrefillDevices    int
	DecodeDevices     int
	PrefillPagesTotal int
	DecodePagesTotal  int
	PeakPrefillPages  int
	PeakDecodePages   int
	KVTransfers       int
	TransferTimeTotal float64

	// PerTenant summarizes each tenant's completed requests, ordered by
	// tenant name — the SLO surface a multi-tenant capacity plan ranks on
	// (a mix tenant that drew no requests is absent).
	PerTenant []TenantMetrics

	// PerRequest holds every completed request, ordered by arrival index.
	PerRequest []RequestMetrics
}

// TenantMetrics is one group summary: a tenant's SLO summary within a
// simulation or a fleet, or, embedded in Summary with an empty Tenant,
// the whole request set's.
type TenantMetrics struct {
	Tenant string
	// Requests is the tenant's completed request count; GenTokens its
	// aggregate generated tokens.
	Requests  int
	GenTokens int
	// TTFT, TPOT, E2E and Queue are the tenant-local percentile summaries.
	TTFT  Percentiles
	TPOT  Percentiles
	E2E   Percentiles
	Queue Percentiles
}

// request is the in-flight simulator state of one sequence: a slot of
// the simulator's request slab. It holds no pointer, so the slab is
// never scanned by the garbage collector; the tenant and the arrival
// time live in the request's ledger entry, which pushShape writes.
type request struct {
	// id is the request's push index, its ledger position. While the slot
	// is free, id links the slab's free list instead: the next free slot,
	// or -1.
	id int
	// prompt and gen are the request's workload shape; every admission,
	// decode step and KV allocation is priced off them.
	prompt int
	gen    int
	// admitted and firstToken are timestamps filled as the request moves
	// through the pipeline; both keep their first occurrence across
	// preemptions.
	admitted   float64
	firstToken float64
	// produced counts generated tokens; 0 means the prefill pass is still
	// pending. Preemption keeps it — the readmission prefill rebuilds the
	// discarded KV and decoding resumes from here. While the request is
	// in the running set the field holds produced − simulator.epoch
	// instead, written back when it leaves.
	produced int
	// pages is the KV page count currently held (paged and disaggregated
	// policies).
	pages int
	// prefix is the request's shared-prefix token count and prefixSlot its
	// interned registry slot in the paged policy (-1 without a prefix);
	// the request's private page math spans prompt-prefix+produced tokens.
	// inDecode marks pages held in the decode pool (every admission under
	// Paged's one pool, after the migration under Disaggregated); it packs
	// into prefixSlot's alignment padding, keeping the slab entry at 128
	// bytes.
	prefix     int
	prefixSlot int32
	inDecode   bool
	// prefillFree counts the prompt+produced tokens the next admission's
	// prefill pass skips: a resident prefix hit contributes the prefix, a
	// host-tier swap-in the restored suffix.
	prefillFree int
	// hostPages/hostTokens are the KV held in the host tier while the
	// request waits preempted (tiered paged policy only).
	hostPages  int
	hostTokens int
	// admissions and preempts count lifecycle events; transfers and
	// transferTime the disaggregated pool migrations and their cost.
	admissions   int
	preempts     int
	transfers    int
	transferTime float64
}

// Run executes the simulation. It is fully deterministic: the only
// randomness is the seeded arrival process, and the event loop is a single
// goroutine over slices in arrival order. Run judges the spec as Validate
// does, draws the stream, arms the simulator on the stream's Envelope and
// drives it as an Instance (closed-loop clients issue on completion), so a
// one-replica fleet or a trace replay of the stream reproduces it
// byte-identically. It runs on a fresh Runner, so the Result, its
// PerRequest ledger included, is the caller's.
func Run(s Spec) (Result, error) {
	return new(Runner).Run(s)
}

// Runner is a reusable simulator: it owns the slabs one simulation grows
// (request pool, index queues, pricing tables, workload buffers) and
// re-arms them for every Run call, so a worker evaluating thousands of
// specs — a sweep worker goroutine, a cluster replica slot, a knee
// bisection — skips the per-run slab allocations entirely. Results are
// byte-identical to fresh construction (TestRunnerReuseMatchesFresh).
// The zero Runner is ready to use; its slabs grow on first use.
//
// A Runner is NOT safe for concurrent use, and at most one of its Run or
// Instance simulations may be live at a time (a new call re-arms the
// shared slabs, invalidating the previous Instance); give each goroutine
// its own Runner.
//
// The Runner keeps its request ledger too, so a Result from its Run, or
// from an Instance it built, refers to the Runner's memory: its
// PerRequest entries are written over by the Runner's next Run or
// Instance. A caller that keeps PerRequest past that copies it first; a
// caller that reads only the summaries, as a sweep or a knee search does,
// allocates no per-request memory in steady state. The package-level Run
// returns a Result the caller owns.
type Runner struct {
	sim simulator
	// arrivalsBuf/shapesBuf are the reusable buffers of Run's drawn
	// stream.
	arrivalsBuf []float64
	shapesBuf   []workload.Request
}

// Run executes one simulation on the Runner's pooled state. See Run (the
// package function) for semantics.
func (rn *Runner) Run(s Spec) (Result, error) {
	var ps policyStore
	s, err := s.resolve(&ps)
	if err != nil {
		return Result{}, err
	}
	w := s.Workload()
	rn.arrivalsBuf, rn.shapesBuf = w.Stream(rn.arrivalsBuf[:0], rn.shapesBuf[:0])
	drawn := Envelope{shapes: rn.shapesBuf}.folded()
	s.SetWorkload(workload.Spec{})
	sim := &rn.sim
	// The slab holds the requests in flight: at most the clients of a
	// closed loop, and up to every request of an open one, whose bursts
	// may queue them all.
	slots := w.Requests
	if w.Closed {
		slots = min(w.Clients, w.Requests)
	}
	if err := sim.arm(s, &drawn, slots, w.Requests, &ps); err != nil {
		return Result{}, err
	}
	sim.keep = false
	in := Instance{sim: sim}
	if w.Closed {
		// Every client issues at time zero, and each completion issues
		// the next arrival index's pre-drawn shape.
		sim.shapes, sim.closed, sim.target = rn.shapesBuf, true, w.Requests
		for _, sh := range rn.shapesBuf[:slots] {
			sim.pushShape(sh, 0)
		}
	} else {
		for i, t := range rn.arrivalsBuf {
			in.push(rn.shapesBuf[i], t)
		}
	}
	in.Drain()
	return sim.finish(), nil
}
