// Package sweep evaluates large cross-product experiment grids — models ×
// systems × precisions × batch sizes × sequence lengths × parallelization
// mappings × schedules × recomputation regimes for training and inference,
// plus arrival rates × batch caps for continuous-batching serving — the
// plan-space exploration the paper builds on its validated models (§5.1:
// "determine the best parallelism mapping or training settings for an LLM
// model on a certain hardware system").
//
// The package has two execution paths over the same candidate enumeration:
//
//   - Serial is the golden reference: it costs every candidate one at a
//     time, in enumeration order, with no shortcuts. internal/mapsearch
//     builds its single-cell planner on it.
//   - Engine.Run is the production path: a bounded worker pool with
//     memory-feasibility pruning before costing, memoization of repeated
//     evaluations, and context cancellation. Its rankings are
//     byte-identical to Serial's at any worker count. The memo can be
//     persisted across processes with SaveCache/LoadCache, so repeated
//     CLI invocations and CI sweeps skip re-costing unchanged grid cells.
package sweep

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sort"
	"strconv"
	"time"

	"optimus/internal/arch"
	"optimus/internal/cluster"
	"optimus/internal/infer"
	"optimus/internal/memfoot"
	"optimus/internal/model"
	"optimus/internal/parallel"
	"optimus/internal/serve"
	"optimus/internal/tech"
	"optimus/internal/train"
	"optimus/internal/workload"
)

// Workload selects which predictor a sweep exercises.
type Workload int

const (
	// Training sweeps rank strategies by predicted seconds per batch.
	Training Workload = iota
	// Inference sweeps rank configurations by end-to-end request latency.
	Inference
	// Serving sweeps run the continuous-batching simulator per candidate
	// (arrival rates × batch caps × systems × precisions) and rank by p95
	// end-to-end latency — SLO-centric capacity planning.
	Serving
)

// String names the workload.
func (w Workload) String() string {
	switch w {
	case Training:
		return "training"
	case Inference:
		return "inference"
	case Serving:
		return "serving"
	default:
		return fmt.Sprintf("Workload(%d)", int(w))
	}
}

// Constraints bound the mapping enumeration of one grid cell.
type Constraints struct {
	// MaxTP caps the tensor-parallel degree; zero means the node size
	// (TP and SP stay inside a node, §4.2).
	MaxTP int
	// Microbatches are the candidate per-device microbatch sizes;
	// nil means {1, 2, 4}.
	Microbatches []int
	// Recomputes are the regimes to consider; nil means all three.
	Recomputes []memfoot.Recompute
	// Schedules are the pipeline schedules to consider; nil means 1F1B
	// and interleaved (v=2).
	Schedules []parallel.Schedule
	// AllowOverflow keeps memory-overflowing candidates in the ranking
	// (flagged, after all fitting ones). It also disables the engine's
	// feasibility pruning, since overflowing candidates must be costed.
	AllowOverflow bool
	// TopK bounds the returned rows; zero means 10.
	TopK int
}

// WithDefaults fills the zero-value fields for a search over sys.
func (c Constraints) WithDefaults(sys *arch.System) Constraints {
	if c.MaxTP <= 0 {
		c.MaxTP = sys.DevicesPerNode
	}
	if len(c.Microbatches) == 0 {
		c.Microbatches = []int{1, 2, 4}
	}
	if len(c.Recomputes) == 0 {
		c.Recomputes = []memfoot.Recompute{memfoot.NoRecompute, memfoot.Selective, memfoot.Full}
	}
	if len(c.Schedules) == 0 {
		c.Schedules = []parallel.Schedule{parallel.OneFOneB, parallel.Interleaved1F1B}
	}
	if c.TopK <= 0 {
		c.TopK = 10
	}
	return c
}

// Spec describes one experiment grid: the cross product of every axis,
// with the mapping space of each (model, system) cell enumerated under
// Constraints.
type Spec struct {
	// Workload selects training or inference; the zero value is training.
	Workload Workload
	// Models and Systems are the required grid axes.
	Models  []model.Config
	Systems []*arch.System
	// Precisions defaults to {BF16} for training and {FP16} for inference.
	Precisions []tech.Precision
	// GlobalBatches are global batch sizes (training) or concurrent
	// sequences (inference); nil means {64} and {1} respectively.
	GlobalBatches []int
	// Seqs are sequence lengths (training) or prompt lengths (inference);
	// nil means {2048} and {200}.
	Seqs []int
	// GenTokens are generation lengths, inference and serving only; nil
	// means {200}.
	GenTokens []int
	// Rates are Poisson arrival rates in requests/sec, serving only; nil
	// means {1} (unless Schedules or Trace supplies the arrival process).
	// The serving workload axes — Seqs, GenTokens, PrefixTokens, Rates,
	// Schedules, Turns, Think, Mixes, Trace, ServeRequests and ServeSeed —
	// obey workload.Check's rules: a mix or trace replaces the spec-wide
	// shape, a trace the arrival axes, a schedule the rate, and a session
	// cohort the shared prefix.
	Rates []float64
	// Schedules are piecewise-constant arrival-rate timelines
	// (workload.Schedule), serving only: each entry is one grid-axis value
	// replacing the constant rate, so one sweep can rank a bursty diurnal
	// profile against its flat average. A schedule that canonicalizes to a
	// constant rate enumerates as the equivalent plain-rate candidate.
	Schedules []workload.Schedule
	// Turns are the session-cohort depths to compare per grid cell, serving
	// only: each entry above 1 expands the candidate's arrival stream into
	// multi-turn client sessions (serve.Spec.Turns), whose growing shared
	// context exercises the paged prefix cache; 0 and 1 are the plain
	// stream. Entries above 1 need a Paged entry in Policies (other
	// policies canonicalize the axis to zero).
	Turns []int
	// Think is the pause between a session's consecutive turns in seconds,
	// serving only (zero with single-turn candidates).
	Think float64
	// BatchCaps are iteration batch caps, serving only; 0 derives the
	// largest KV-fitting batch. Nil means {0}.
	BatchCaps []int
	// Mixes are multi-tenant workload mixes, serving only: each entry is
	// one grid-axis value, so one sweep can rank a chat-heavy mix against
	// a batch-heavy one per rate × batch-cap point.
	Mixes [][]workload.TenantLoad
	// Trace replays one fixed request timeline per serving candidate
	// (systems × precisions × batch caps × policies), serving only.
	Trace []workload.TraceEvent
	// Policies are the KV admission policies to compare per grid cell
	// (serve.ReserveFull, serve.Paged and serve.Disaggregated), serving
	// only; nil means {ReserveFull}. Making the policy a grid axis is what
	// lets one sweep rank reservation, paged and disaggregated admission
	// per rate × batch-cap point. A policy knob (serve.Knobs) needs an
	// entry here that reads it.
	Policies []serve.Policy
	// ServePageTokens is the paged policy's KV block size in tokens,
	// serving only; zero means serve.DefaultPageTokens.
	ServePageTokens int
	// PoolSplits are the disaggregated prefill/decode pool splits to
	// compare per grid cell, serving only: each entry is one grid-axis
	// value for the serve.Disaggregated candidates (other policies ignore
	// the axis), so one sweep can rank a 2+6 split against a 4+4 one per
	// rate × batch-cap point. Requires a Disaggregated entry in Policies;
	// nil means the co-located split (both pools spanning every device). A
	// split asking for more devices than a grid system has skips that
	// cell, like an indivisible head count.
	PoolSplits []PoolSplit
	// TransferGBps is the disaggregated policy's KV-transfer interconnect
	// bandwidth in GB/s, serving only; zero means
	// serve.DefaultTransferGBps, math.Inf(1) a free transfer.
	TransferGBps float64
	// PrefixTokens are the shared-prompt-prefix lengths to compare per
	// grid cell, serving only: each entry gives the spec-wide request
	// shape that many shared prefix tokens (serve.Spec.PrefixTokens), so
	// one sweep can rank prefix-cache savings across hit fractions. A
	// zero entry is the plain unprefixed shape; nil means {0}. Requires a
	// Paged entry in Policies when non-zero (other policies ignore the
	// axis and canonicalize to zero). Entries at or beyond a cell's prompt
	// length skip that cell.
	PrefixTokens []int
	// HostKVBytes are the host KV tier capacities (bytes) to compare per
	// grid cell, serving only: each entry lets the paged policy's
	// preemption victims swap pages to a host tier that large
	// (serve.Spec.HostKVBytes). A zero entry is the recompute-only
	// baseline; nil means {0}. Requires a Paged entry in Policies when
	// non-zero.
	HostKVBytes []float64
	// SwapGBps is the host tier's swap-link bandwidth in GB/s, serving
	// only; zero means serve.DefaultSwapGBps, math.Inf(1) a free swap.
	// Requires a non-zero HostKVBytes entry.
	SwapGBps float64
	// Replicas are the fleet sizes to compare per grid cell, serving only:
	// each entry runs the candidate's serve configuration as a homogeneous
	// R-replica cluster (internal/cluster) instead of a single instance,
	// ranking fleet-wide SLO percentiles. A zero entry is the plain
	// single-instance simulation; nil means {0}.
	Replicas []int
	// Routings are the cluster routing policies to compare per fleet
	// candidate, serving only. Requires Replicas; nil with fleet sizes
	// present means {cluster.RoundRobin}. Fleets of one replica route
	// identically under every policy, so their routing axis canonicalizes
	// to round-robin (one memo key, like the policy-knob axes).
	Routings []cluster.Routing
	// ServeRequests is the simulated request count per serving candidate;
	// zero means 128.
	ServeRequests int
	// ServeSeed seeds each serving candidate's arrival process; zero
	// means 1.
	ServeSeed int64
	// Constraints bound the per-cell mapping enumeration.
	Constraints Constraints
	// Workers bounds the engine's pool; zero means GOMAXPROCS. Serial
	// ignores it.
	Workers int
}

// PoolSplit is one disaggregated prefill/decode pool split: the device
// counts backing each pool (serve.Spec.PrefillDevices/DecodeDevices).
// Zero fields default to each grid system's full device count — the
// co-located split.
type PoolSplit struct {
	Prefill int
	Decode  int
}

// knobAxis names the grid axis that sets a serve.Knob and reports whether
// the grid sets it. Session cohorts are prefix caching, so Turns entries
// above 1 answer for the PrefixTokens row when no prefix entry does;
// NoPreempt has no axis (sweeps always preempt).
func (s Spec) knobAxis(k serve.Knob) (name string, set bool) {
	switch k.Field {
	case "PageTokens":
		return "ServePageTokens", s.ServePageTokens != 0
	case "PrefillDevices", "DecodeDevices":
		return "PoolSplits (PrefillDevices/DecodeDevices)", len(s.PoolSplits) > 0
	case "TransferGBps":
		// NaN bandwidths count as set: NaN != 0.
		return k.Field, s.TransferGBps != 0
	case "PrefixTokens":
		if slices.ContainsFunc(s.PrefixTokens, func(n int) bool { return n > 0 }) {
			return k.Field, true
		}
		return "Turns above 1", slices.ContainsFunc(s.Turns, func(n int) bool { return n > 1 })
	case "HostKVBytes":
		return k.Field, slices.ContainsFunc(s.HostKVBytes, func(b float64) bool { return b > 0 })
	case "SwapGBps":
		return k.Field, s.SwapGBps != 0
	}
	return k.Field, false
}

// workloadAxes names the grid axis that sets each workload.Field, for
// workload.Check; closed-loop arrivals have no axis.
var workloadAxes = [workload.NumFields]string{"Seqs", "GenTokens", "PrefixTokens", "Mixes", "Mixes", "Trace",
	"Rates", "Schedules", "Turns", "Turns", "Think", "ServeRequests", "ServeSeed", "", ""}

// workloadSet reports which workload fields the grid's axes set.
func (s Spec) workloadSet() [workload.NumFields]bool {
	return [workload.NumFields]bool{
		len(s.Seqs) > 0, len(s.GenTokens) > 0, slices.ContainsFunc(s.PrefixTokens, func(n int) bool { return n > 0 }),
		len(s.Mixes) > 0, slices.ContainsFunc(s.Mixes, workload.MixPrefixed), s.Trace != nil,
		len(s.Rates) > 0, len(s.Schedules) > 0, len(s.Turns) > 0, slices.ContainsFunc(s.Turns, func(n int) bool { return n > 1 }),
		s.Think != 0, s.ServeRequests != 0, s.ServeSeed != 0, false, false, // NaN != 0: a NaN Think is set
	}
}

func (s Spec) withDefaults() Spec {
	// A serving sweep whose requests are shaped by a mix or a trace has no
	// spec-wide Seqs/GenTokens axes to default (and a trace fixes the
	// arrival process, so no Rates either).
	shaped := s.Workload == Serving && (len(s.Mixes) > 0 || len(s.Trace) > 0)
	if len(s.Precisions) == 0 {
		if s.Workload == Training {
			s.Precisions = []tech.Precision{tech.BF16}
		} else {
			s.Precisions = []tech.Precision{tech.FP16}
		}
	}
	if len(s.GlobalBatches) == 0 {
		switch s.Workload {
		case Training:
			s.GlobalBatches = []int{64}
		default:
			// Inference batch; serving ignores it (admission batches).
			s.GlobalBatches = []int{1}
		}
	}
	if len(s.Seqs) == 0 && !shaped {
		if s.Workload == Training {
			s.Seqs = []int{2048}
		} else {
			s.Seqs = []int{200}
		}
	}
	if len(s.GenTokens) == 0 && !shaped {
		s.GenTokens = []int{200}
	}
	if len(s.Rates) == 0 && len(s.Trace) == 0 && len(s.Schedules) == 0 {
		s.Rates = []float64{1}
	}
	if len(s.Turns) == 0 {
		s.Turns = []int{0}
	}
	if len(s.BatchCaps) == 0 {
		s.BatchCaps = []int{0}
	}
	if len(s.Policies) == 0 {
		s.Policies = []serve.Policy{serve.ReserveFull}
	}
	if len(s.PoolSplits) == 0 {
		// The zero split canonicalizes per system to the co-located
		// configuration (both pools spanning every device), and to no
		// split for the policies that ignore the axis.
		s.PoolSplits = []PoolSplit{{}}
	}
	if s.ServeRequests == 0 {
		s.ServeRequests = 128
	}
	if s.ServeSeed == 0 {
		s.ServeSeed = 1
	}
	if len(s.Replicas) == 0 {
		s.Replicas = []int{0}
	}
	if len(s.Routings) == 0 {
		s.Routings = []cluster.Routing{cluster.RoundRobin}
	}
	if len(s.PrefixTokens) == 0 {
		s.PrefixTokens = []int{0}
	}
	if len(s.HostKVBytes) == 0 {
		s.HostKVBytes = []float64{0}
	}
	return s
}

// Validate checks the grid shape.
func (s Spec) Validate() error {
	if s.Workload != Serving {
		// The workload axes past the request shape an inference sweep
		// shares, then the capacity and fleet axes.
		set := s.workloadSet()
		for f := workload.FieldMix; f < workload.NumFields; f++ {
			if set[f] {
				return fmt.Errorf("sweep: %s applies to serving sweeps only", workloadAxes[f])
			}
		}
		// NaN bandwidths land here too: NaN != 0.
		if len(s.BatchCaps) > 0 || len(s.Policies) > 0 || s.ServePageTokens != 0 || len(s.PoolSplits) > 0 ||
			s.TransferGBps != 0 || len(s.PrefixTokens) > 0 || len(s.HostKVBytes) > 0 || s.SwapGBps != 0 ||
			len(s.Replicas) > 0 || len(s.Routings) > 0 {
			return fmt.Errorf("sweep: BatchCaps, Policies, ServePageTokens, PoolSplits, TransferGBps, PrefixTokens, HostKVBytes, SwapGBps, Replicas and Routings apply to serving sweeps only")
		}
	}
	switch s.Workload {
	case Training:
		if len(s.GenTokens) > 0 {
			return fmt.Errorf("sweep: GenTokens applies to inference and serving sweeps only")
		}
		for _, mb := range s.Constraints.Microbatches {
			if mb <= 0 {
				return fmt.Errorf("sweep: non-positive microbatch %d", mb)
			}
		}
	case Inference, Serving:
		// Inference and serving maps are fixed to TP = device count
		// (§1.3); reject the training-only axes rather than silently
		// ignoring them.
		c := s.Constraints
		if c.MaxTP != 0 || len(c.Microbatches) > 0 || len(c.Recomputes) > 0 || len(c.Schedules) > 0 {
			return fmt.Errorf("sweep: MaxTP/Microbatches/Recomputes/Schedules apply to training sweeps only")
		}
		if s.Workload == Serving {
			// The simulator's admission policy is the batch: a global
			// batch axis would be silently ignored.
			if len(s.GlobalBatches) > 0 {
				return fmt.Errorf("sweep: GlobalBatches does not apply to serving sweeps (use BatchCaps)")
			}
			if err := workload.Check(s.workloadSet(), func(f workload.Field) string { return workloadAxes[f] }); err != nil {
				return fmt.Errorf("sweep: %w", err)
			}
			for _, r := range s.Rates {
				if err := workload.ValidateRate(r); err != nil {
					return fmt.Errorf("sweep: %w", err)
				}
			}
			for _, sch := range s.Schedules {
				if err := sch.Validate(); err != nil {
					return fmt.Errorf("sweep: %w", err)
				}
			}
			for _, c := range s.BatchCaps {
				if c < 0 {
					return fmt.Errorf("sweep: negative batch cap %d", c)
				}
			}
			if s.ServeRequests < 0 {
				return fmt.Errorf("sweep: negative serving request count %d", s.ServeRequests)
			}
			for _, pol := range s.Policies {
				switch pol {
				case serve.ReserveFull, serve.Paged, serve.Disaggregated:
				default:
					return fmt.Errorf("sweep: unknown serving policy %v", pol)
				}
			}
			if s.ServePageTokens < 0 {
				return fmt.Errorf("sweep: negative serving page size %d tokens", s.ServePageTokens)
			}
			for _, sp := range s.PoolSplits {
				if sp.Prefill < 0 || sp.Decode < 0 {
					return fmt.Errorf("sweep: negative pool split %d+%d devices", sp.Prefill, sp.Decode)
				}
			}
			if s.TransferGBps < 0 || math.IsNaN(s.TransferGBps) {
				return fmt.Errorf("sweep: KV-transfer bandwidth %g GB/s not non-negative", s.TransferGBps)
			}
			for _, pre := range s.PrefixTokens {
				if pre < 0 {
					return fmt.Errorf("sweep: negative prefix length %d tokens", pre)
				}
			}
			for _, t := range s.Turns {
				if t < 0 {
					return fmt.Errorf("sweep: negative session turns %d", t)
				}
			}
			for _, hb := range s.HostKVBytes {
				if hb < 0 || math.IsNaN(hb) || math.IsInf(hb, 0) {
					return fmt.Errorf("sweep: host KV capacity %g bytes not finite and non-negative", hb)
				}
			}
			if s.SwapGBps < 0 || math.IsNaN(s.SwapGBps) {
				return fmt.Errorf("sweep: swap bandwidth %g GB/s not non-negative", s.SwapGBps)
			}
			// Without an entry in Policies that reads a knob, the knob would
			// be silently discarded at enumeration — reject, matching
			// serve.Spec's strictness about knobs the chosen policy ignores.
			if err := serve.CheckKnobs(s.Policies, false,
				func(k serve.Knob) bool { _, set := s.knobAxis(k); return set },
				func(k serve.Knob) string { name, _ := s.knobAxis(k); return name },
				"Policies"); err != nil {
				return fmt.Errorf("sweep: %w", err)
			}
			if !(s.Think >= 0) || math.IsInf(s.Think, 0) {
				return fmt.Errorf("sweep: think time %g not finite and non-negative", s.Think)
			}
			for _, g := range s.GenTokens {
				if g < 1 {
					return fmt.Errorf("sweep: serving needs at least one generated token, got %d", g)
				}
			}
			hasFleet := false
			for _, r := range s.Replicas {
				// Zero is the explicit single-instance entry; a negative
				// fleet cannot be meant.
				if r < 0 {
					return fmt.Errorf("sweep: negative fleet size %d replicas", r)
				}
				if r > 0 {
					hasFleet = true
				}
			}
			for _, rt := range s.Routings {
				switch rt {
				case cluster.RoundRobin, cluster.LeastQueue, cluster.LeastKV, cluster.TenantAffinity:
				default:
					return fmt.Errorf("sweep: unknown routing policy %v", rt)
				}
			}
			// Without a fleet axis every candidate is single-instance and
			// the routing axis would be silently discarded — reject, like
			// ServePageTokens without a paging policy.
			if len(s.Routings) > 0 && !hasFleet {
				return fmt.Errorf("sweep: Routings needs a positive fleet size in Replicas")
			}
			for _, mix := range s.Mixes {
				if err := workload.ValidateMix(mix); err != nil {
					return err
				}
			}
			if s.Trace != nil {
				if err := workload.ValidateTrace(s.Trace); err != nil {
					return err
				}
			}
		}
	default:
		return fmt.Errorf("sweep: unknown workload %v", s.Workload)
	}
	if len(s.Models) == 0 {
		return fmt.Errorf("sweep: no models")
	}
	if len(s.Systems) == 0 {
		return fmt.Errorf("sweep: no systems")
	}
	for _, m := range s.Models {
		if err := m.Validate(); err != nil {
			return err
		}
	}
	for _, sys := range s.Systems {
		if sys == nil {
			return fmt.Errorf("sweep: nil system")
		}
		if err := sys.Validate(); err != nil {
			return err
		}
	}
	for _, b := range s.GlobalBatches {
		if b <= 0 {
			return fmt.Errorf("sweep: non-positive batch %d", b)
		}
	}
	for _, q := range s.Seqs {
		if q <= 0 {
			return fmt.Errorf("sweep: non-positive sequence length %d", q)
		}
	}
	for _, g := range s.GenTokens {
		if g < 0 {
			return fmt.Errorf("sweep: negative generation length %d", g)
		}
	}
	return nil
}

// Point is one fully instantiated candidate experiment.
type Point struct {
	Workload  Workload
	Model     model.Config
	System    *arch.System
	Map       parallel.Mapping
	Recompute memfoot.Recompute
	Precision tech.Precision
	// GlobalBatch is the global batch (training) or concurrent sequences
	// (inference).
	GlobalBatch int
	// Seq is the sequence length (training) or prompt length (inference
	// and serving).
	Seq int
	// GenTokens is the generation length; inference and serving only.
	GenTokens int
	// Rate is the Poisson arrival rate in requests/sec; serving only.
	Rate float64
	// BatchCap is the iteration batch cap (0 = derive); serving only.
	BatchCap int
	// Policy is the KV admission policy and PageTokens the paged block
	// size in tokens (0 under ReserveFull); serving only.
	Policy     serve.Policy
	PageTokens int
	// PrefillDevices/DecodeDevices are the disaggregated pool split and
	// TransferGBps its KV-transfer bandwidth (all zero under other
	// policies); serving only. They shape the simulated capacity, so they
	// are part of the candidate's identity.
	PrefillDevices int
	DecodeDevices  int
	TransferGBps   float64
	// PrefixTokens is the spec-wide shape's shared prefix length and
	// HostKVBytes/SwapGBps the paged policy's host KV tier capacity and
	// swap-link bandwidth (all zero under other policies); serving only.
	// They shape the simulated admission behavior, so they are part of
	// the candidate's identity.
	PrefixTokens int
	HostKVBytes  float64
	SwapGBps     float64
	// Mix is the candidate's multi-tenant workload (nil for spec-wide
	// shapes); Trace its replayed request timeline. Both shape the
	// simulated distribution, so they are part of the candidate's
	// identity. Serving only.
	Mix   []workload.TenantLoad
	Trace []workload.TraceEvent
	// ServeRequests and ServeSeed fix the simulated request count and
	// arrival seed; serving only. They shape the simulated distribution,
	// so they are part of the candidate's identity.
	ServeRequests int
	ServeSeed     int64
	// Replicas is the homogeneous fleet size the candidate simulates
	// (0 = plain single-instance serve) and Routing its cluster routing
	// policy (canonically RoundRobin for fleets of at most one replica);
	// serving only.
	Replicas int
	Routing  cluster.Routing
	// Schedule is the candidate's piecewise arrival-rate timeline (nil for
	// the constant Rate — enumeration canonicalizes constant schedules to
	// it), Turns its session-cohort depth (0 for the single-turn stream;
	// canonically 0 unless Policy is Paged) and Think the pause between a
	// session's turns (canonically 0 without cohorts); serving only. All
	// three shape the simulated arrival stream, so they are part of the
	// candidate's identity.
	Schedule workload.Schedule
	Turns    int
	Think    float64

	// key is the precomputed canonical identity; enumeration fills it so
	// the engine's hot path never formats strings.
	key string //lint:nokey memo slot for the key itself, not an input to it
}

// Key canonically identifies everything the evaluation depends on — the
// memoization and deduplication key. It is always computed from the
// current field values, so mutated Point copies never alias a stale
// identity; the engine uses the enumeration-time cache internally.
func (p Point) Key() string {
	return p.buildKey(modelToken(p.Model), systemToken(p.System), workloadToken(p.Mix, p.Trace))
}

// cachedKey returns the enumeration-time key without re-formatting; hot
// paths use it on points the enumerators built.
func (p Point) cachedKey() string {
	if p.key != "" {
		return p.key
	}
	return p.Key()
}

// modelToken identifies a model configuration: names alone are not enough,
// since external descriptions can be edited and reloaded under the same
// name (§3.1), and a collision would silently serve the wrong memoized
// metrics.
func modelToken(cfg model.Config) string {
	return cfg.Name + "#" + fingerprint(cfg)
}

// systemToken identifies a full system configuration, same rationale.
func systemToken(sys *arch.System) string {
	return sys.String() + "#" + fingerprint(*sys)
}

// fingerprint collapses a configuration struct into a short stable token
// (fmt renders map fields with sorted keys, so the rendering — and the
// hash — is deterministic).
func fingerprint(v any) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", v)
	return strconv.FormatUint(h.Sum64(), 16)
}

// buildKey assembles the canonical key without fmt: key construction runs
// once per enumerated candidate and dominated sweep time when it used
// reflection-based formatting. The model, system and workload tokens are
// computed once per grid cell (or once per grid, for a shared trace) by
// the enumerators.
func (p Point) buildKey(modelStr, sysStr, workloadStr string) string {
	sp := 0
	if p.Map.SP {
		sp = 1
	}
	buf := make([]byte, 0, len(modelStr)+len(sysStr)+64)
	buf = append(buf, modelStr...)
	buf = append(buf, '|')
	buf = append(buf, sysStr...)
	for _, v := range [...]int{
		int(p.Workload), p.Map.DP, p.Map.TP, p.Map.PP, sp,
		p.Map.Microbatch, int(p.Map.Schedule), p.Map.VirtualStages,
		int(p.Recompute), int(p.Precision), p.GlobalBatch, p.Seq, p.GenTokens,
		p.BatchCap, p.ServeRequests, int(p.Policy), p.PageTokens,
		p.PrefillDevices, p.DecodeDevices, p.Replicas, int(p.Routing),
		p.PrefixTokens, p.Turns,
	} {
		buf = append(buf, '|')
		buf = strconv.AppendInt(buf, int64(v), 10)
	}
	buf = append(buf, '|')
	buf = strconv.AppendInt(buf, p.ServeSeed, 10)
	buf = append(buf, '|')
	buf = strconv.AppendFloat(buf, p.Rate, 'g', -1, 64)
	buf = append(buf, '|')
	buf = strconv.AppendFloat(buf, p.TransferGBps, 'g', -1, 64)
	buf = append(buf, '|')
	buf = strconv.AppendFloat(buf, p.HostKVBytes, 'g', -1, 64)
	buf = append(buf, '|')
	buf = strconv.AppendFloat(buf, p.SwapGBps, 'g', -1, 64)
	buf = append(buf, '|')
	buf = strconv.AppendFloat(buf, p.Think, 'g', -1, 64)
	// The schedule token is FormatSchedule's canonical rendering: digits
	// and ,-:. only, so it cannot collide with the key's separators.
	buf = append(buf, '|')
	buf = append(buf, workload.FormatSchedule(p.Schedule)...)
	buf = append(buf, '|')
	buf = append(buf, workloadStr...)
	return string(buf)
}

// workloadToken identifies a serving candidate's request-shape workload —
// the mix or trace it simulates. Tenant names are arbitrary strings, so
// the token is a fingerprint rather than a literal rendering (which could
// collide with the key's separators); empty for spec-wide-shaped
// candidates, keeping their keys stable relative to each other.
func workloadToken(mix []workload.TenantLoad, trace []workload.TraceEvent) string {
	switch {
	case len(trace) > 0:
		return "trace#" + fingerprint(trace)
	case len(mix) > 0:
		return "mix#" + fingerprint(mix)
	default:
		return ""
	}
}

// Metrics is the outcome of costing one point.
type Metrics struct {
	// Time is seconds per training batch, end-to-end inference latency,
	// or p95 end-to-end serving latency — the ranking key for each
	// workload.
	Time float64
	// MFU is the model-FLOPs utilization; training only.
	MFU float64
	// Memory is the per-device training footprint.
	Memory memfoot.Breakdown
	// Footprint is the per-device inference/serving footprint (for
	// serving: weights plus the peak KV reservation observed).
	Footprint memfoot.InferenceBreakdown
	// Fits reports whether the footprint fits device memory.
	Fits bool

	// TTFTP95 and TPOTP95 are the serving SLO percentiles in seconds;
	// TokensPerSec is the aggregate simulated generation throughput.
	// Serving only.
	TTFTP95      float64
	TPOTP95      float64
	TokensPerSec float64
	// Preemptions, RecomputedTokens and KVUtil surface the admission
	// policy's pressure behavior (evictions, discarded generated tokens,
	// mean fraction of the KV budget held). Serving only.
	Preemptions      int
	RecomputedTokens int
	KVUtil           float64
	// KVTransfers and TransferTime count the disaggregated policy's
	// prefill→decode KV migrations and the total interconnect seconds
	// they cost. Serving only, disaggregated candidates only.
	KVTransfers  int
	TransferTime float64
	// PrefixHits/PrefixSavedTokens count the paged policy's prefix-cache
	// admissions that found their shared prefix resident and the prefill
	// tokens those hits skipped; KVSwapOuts/KVSwapIns/SwapTime count the
	// host KV tier's page movements and the total link seconds they cost.
	// Serving only, paged candidates with those mechanisms only.
	PrefixHits        int
	PrefixSavedTokens int
	KVSwapOuts        int
	KVSwapIns         int
	SwapTime          float64
	// PerTenant breaks the SLO percentiles down per workload tenant,
	// sorted by tenant name. Serving only.
	PerTenant []TenantSLO
}

// TenantSLO is one tenant's SLO summary within a serving candidate.
type TenantSLO struct {
	Tenant   string
	Requests int
	TTFTP95  float64
	TPOTP95  float64
	E2EP95   float64
}

// Row is one ranked result.
type Row struct {
	Point   Point
	Metrics Metrics
	// order is the enumeration index, the deterministic tie-breaker.
	order int
}

// Stats summarizes how the sweep executed.
type Stats struct {
	// Enumerated is the candidate count after grid deduplication.
	Enumerated int
	// Pruned counts candidates rejected by the memory-feasibility check
	// before any costing.
	Pruned int
	// Evaluated counts full predictor evaluations.
	Evaluated int
	// MemoHits counts successful evaluations answered from the
	// memoization cache (errored cache entries count under Errors).
	MemoHits int
	// Errors counts candidates dropped because the predictor rejected
	// them.
	Errors int
	// Workers is the pool size used (1 for Serial).
	Workers int
	// Elapsed is the wall-clock sweep time.
	Elapsed time.Duration
}

// String renders a one-line execution summary.
func (s Stats) String() string {
	return fmt.Sprintf("%d candidates: %d pruned, %d evaluated, %d memoized, %d errored (%d workers, %s)",
		s.Enumerated, s.Pruned, s.Evaluated, s.MemoHits, s.Errors, s.Workers,
		s.Elapsed.Round(time.Millisecond))
}

// Result is a ranked sweep outcome.
type Result struct {
	// Rows are the surviving candidates: fitting first, then by time,
	// ties broken by enumeration order. Bounded by Constraints.TopK.
	Rows  []Row
	Stats Stats
}

// divisors returns the divisors of n in ascending order.
func divisors(n int) []int {
	var out []int
	for d := 1; d <= n; d++ {
		if n%d == 0 {
			out = append(out, d)
		}
	}
	return out
}

// EnumerateTraining lists the candidate training points of one (model,
// system, batch, seq, precision) grid cell: the feasible (DP, TP, PP, SP,
// microbatch, schedule, recompute) space under c, in deterministic order.
func EnumerateTraining(cfg model.Config, sys *arch.System, batch, seq int, prec tech.Precision, c Constraints) []Point {
	c = c.WithDefaults(sys)
	devices := sys.NumDevices()
	modelStr, sysStr := modelToken(cfg), systemToken(sys)
	var out []Point
	for _, tp := range divisors(devices) {
		if tp > c.MaxTP || cfg.Heads%tp != 0 {
			continue
		}
		for _, pp := range divisors(devices / tp) {
			dp := devices / (tp * pp)
			for _, mb := range c.Microbatches {
				if batch%(dp*mb) != 0 {
					continue
				}
				// The schedule is meaningless at PP=1 (no bubble, one
				// microbatch in flight): keep only the first valid one.
				pp1Done := false
				for _, sched := range c.Schedules {
					if pp == 1 && pp1Done {
						continue
					}
					m := parallel.Mapping{
						DP: dp, TP: tp, PP: pp, SP: tp > 1,
						Microbatch: mb, Schedule: sched,
					}
					if sched == parallel.Interleaved1F1B {
						if pp < 2 || cfg.Layers%(pp*2) != 0 {
							continue
						}
						m.VirtualStages = 2
					}
					if m.Validate(cfg.Layers, batch) != nil {
						continue
					}
					pp1Done = true
					for _, rec := range c.Recomputes {
						p := Point{
							Workload: Training, Model: cfg, System: sys,
							Map: m, Recompute: rec, Precision: prec,
							GlobalBatch: batch, Seq: seq,
						}
						p.key = p.buildKey(modelStr, sysStr, "")
						out = append(out, p)
					}
				}
			}
		}
	}
	return out
}

// EnumerateInference lists the candidate inference points of one grid
// cell. Inference involves only TP across the devices of the system
// (§1.3), so each cell yields at most one mapping.
func EnumerateInference(cfg model.Config, sys *arch.System, batch, prompt, gen int, prec tech.Precision) []Point {
	tp := sys.NumDevices()
	if cfg.Heads%tp != 0 {
		return nil
	}
	p := Point{
		Workload: Inference, Model: cfg, System: sys,
		Map:       parallel.Mapping{DP: 1, TP: tp, PP: 1, SP: tp > 1, Microbatch: 1},
		Precision: prec, GlobalBatch: batch, Seq: prompt, GenTokens: gen,
	}
	p.key = p.buildKey(modelToken(cfg), systemToken(sys), "")
	return []Point{p}
}

// servingShape is one request-shape workload of a serving grid — the
// spec-wide prompt/generation/prefix triple, a mix, or the trace — with
// its workload token fingerprinted once per grid, not once per candidate.
type servingShape struct {
	seq, gen, prefix int
	mix              []workload.TenantLoad
	trace            []workload.TraceEvent
	tok              string
}

// servingShapes lists the grid's request-shape workloads in enumeration
// order: the trace, every mix, or the spec-wide prefix × seq × gen axes.
func (s Spec) servingShapes() []servingShape {
	switch {
	case len(s.Trace) > 0:
		return []servingShape{{trace: s.Trace, tok: workloadToken(nil, s.Trace)}}
	case len(s.Mixes) > 0:
		out := make([]servingShape, len(s.Mixes))
		for i, mix := range s.Mixes {
			out[i] = servingShape{mix: mix, tok: workloadToken(mix, nil)}
		}
		return out
	}
	out := make([]servingShape, 0, len(s.PrefixTokens)*len(s.Seqs)*len(s.GenTokens))
	for _, prefix := range s.PrefixTokens {
		for _, seq := range s.Seqs {
			for _, gen := range s.GenTokens {
				out = append(out, servingShape{seq: seq, gen: gen, prefix: prefix})
			}
		}
	}
	return out
}

// servingPoint completes one serving candidate. p carries the grid cell
// (model, system, mapping, precision) and the raw axis values, the
// arrival-process axes included; servingPoint applies the request shape,
// canonicalizes the capacity knobs through serve.Spec.Canonical — so the
// page size clamps against the shape's largest context, session growth
// included — and keys the result with the cell's model and system tokens.
// Equal-behavior candidates therefore share one memo key, under exactly
// the rules the simulator applies. A trace fixes arrivals, seed and
// request count, so its candidates zero them. ok is false when the
// candidate cannot be simulated — a pool split wider than the system, or
// a prefix that leaves no private prompt token or rides on a session's —
// and the cell is skipped, like an indivisible head count.
func servingPoint(p Point, shape servingShape, modelTok, sysTok string) (Point, bool) {
	if len(shape.trace) > 0 {
		p.Trace, p.ServeRequests = shape.trace, len(shape.trace)
		p.Rate, p.ServeSeed, p.Schedule, p.Turns, p.Think = 0, 0, nil, 0, 0
	} else {
		p.Mix, p.Seq, p.GenTokens, p.PrefixTokens = shape.mix, shape.seq, shape.gen, shape.prefix
	}
	c := servingSpec(p).Canonical()
	tp := p.Map.TP
	if c.PrefillDevices > tp || c.DecodeDevices > tp ||
		(c.PrefixTokens > 0 && (c.PrefixTokens >= p.Seq || c.Turns > 1)) {
		return Point{}, false
	}
	p.PageTokens, p.PrefillDevices, p.DecodeDevices, p.TransferGBps = c.PageTokens, c.PrefillDevices, c.DecodeDevices, c.TransferGBps
	p.PrefixTokens, p.HostKVBytes, p.SwapGBps = c.PrefixTokens, c.HostKVBytes, c.SwapGBps
	p.Turns, p.Think = c.Turns, c.Think
	p.key = p.buildKey(modelTok, sysTok, shape.tok)
	return p, true
}

// Enumerate expands the full grid into its deduplicated candidate list,
// in deterministic order.
func Enumerate(s Spec) []Point {
	s = s.withDefaults()
	var out []Point
	seen := make(map[string]bool)
	add := func(p Point) {
		k := p.cachedKey()
		if seen[k] {
			return
		}
		seen[k] = true
		out = append(out, p)
	}
	var shapes []servingShape
	type arrivalAxis struct {
		rate  float64
		sched workload.Schedule
	}
	var arrivals []arrivalAxis
	if s.Workload == Serving {
		shapes = s.servingShapes()
		// The arrival axis: every constant rate, then every schedule —
		// canonicalized first, so a schedule that is constant after
		// merging enumerates as the equivalent plain-rate candidate (rate
		// set, schedule nil) and deduplicates against it. A trace fixes
		// its own arrivals: one empty entry.
		for _, r := range s.Rates {
			arrivals = append(arrivals, arrivalAxis{rate: r})
		}
		for _, sch := range s.Schedules {
			cs, cr := workload.CanonicalSchedule(sch, 0)
			arrivals = append(arrivals, arrivalAxis{rate: cr, sched: cs})
		}
		if len(s.Trace) > 0 {
			arrivals = []arrivalAxis{{}}
		}
	}
	roundRobin := []cluster.Routing{cluster.RoundRobin}
	for _, cfg := range s.Models {
		for _, sys := range s.Systems {
			for _, prec := range s.Precisions {
				switch s.Workload {
				case Serving:
					// Serving maps are fixed to TP = device count, as in
					// inference.
					tp := sys.NumDevices()
					if cfg.Heads%tp != 0 {
						continue
					}
					modelTok, sysTok := modelToken(cfg), systemToken(sys)
					base := Point{
						Workload: Serving, Model: cfg, System: sys,
						Map:       parallel.Mapping{DP: 1, TP: tp, PP: 1, SP: tp > 1, Microbatch: 1},
						Precision: prec, ServeRequests: s.ServeRequests, ServeSeed: s.ServeSeed,
						PageTokens: s.ServePageTokens, TransferGBps: s.TransferGBps, SwapGBps: s.SwapGBps,
						Think: s.Think,
					}
					for _, ar := range arrivals {
						for _, turns := range s.Turns {
							for _, batchCap := range s.BatchCaps {
								for _, pol := range s.Policies {
									for _, split := range s.PoolSplits {
										for _, host := range s.HostKVBytes {
											for _, shape := range shapes {
												p := base
												p.Rate, p.Schedule, p.Turns = ar.rate, ar.sched, turns
												p.BatchCap, p.Policy = batchCap, pol
												p.PrefillDevices, p.DecodeDevices, p.HostKVBytes = split.Prefill, split.Decode, host
												p, ok := servingPoint(p, shape, modelTok, sysTok)
												if !ok {
													continue
												}
												// The fleet axes: one copy per (fleet size,
												// routing), the routing collapsed to
												// round-robin for single-instance and
												// one-replica entries (every policy routes a
												// fleet of one identically).
												for _, reps := range s.Replicas {
													rts := s.Routings
													if reps <= 1 {
														rts = roundRobin
													}
													for _, rt := range rts {
														if reps > 0 {
															q := p
															q.Replicas, q.Routing = reps, rt
															q.key = q.buildKey(modelTok, sysTok, shape.tok)
															add(q)
															continue
														}
														add(p)
													}
												}
											}
										}
									}
								}
							}
						}
					}
				case Inference:
					for _, batch := range s.GlobalBatches {
						for _, seq := range s.Seqs {
							for _, gen := range s.GenTokens {
								for _, p := range EnumerateInference(cfg, sys, batch, seq, gen, prec) {
									add(p)
								}
							}
						}
					}
				default:
					for _, batch := range s.GlobalBatches {
						for _, seq := range s.Seqs {
							for _, p := range EnumerateTraining(cfg, sys, batch, seq, prec, s.Constraints) {
								add(p)
							}
						}
					}
				}
			}
		}
	}
	return out
}

// Evaluate runs the full cost model on one point — on fresh simulator
// state. The engine and Serial evaluate through a pooled per-worker
// evaluator instead, which reuses simulator slabs across points;
// TestRunnerReuseMatchesFresh (serve) and TestClusterRunnerReuseMatchesFresh
// pin that reuse byte-identical, so the two paths cannot diverge.
func Evaluate(p Point) (Metrics, error) {
	return newEvaluator().evaluate(p)
}

// evaluator carries the pooled serving simulators one sweep worker reuses
// across the points it costs. Inference and training predictions are
// stateless; only the serving paths hold reusable state. NOT safe for
// concurrent use — each worker owns one.
type evaluator struct {
	serve   *serve.Runner
	cluster *cluster.Runner
}

func newEvaluator() *evaluator {
	return &evaluator{serve: serve.NewRunner(), cluster: cluster.NewRunner()}
}

func (ev *evaluator) evaluate(p Point) (Metrics, error) {
	switch p.Workload {
	case Inference:
		return evaluateInference(p)
	case Serving:
		return ev.evaluateServing(p)
	default:
		return evaluateTraining(p)
	}
}

func evaluateTraining(p Point) (Metrics, error) {
	res, err := train.Predict(train.Spec{
		Model:       p.Model,
		System:      p.System,
		Map:         p.Map,
		GlobalBatch: p.GlobalBatch,
		Seq:         p.Seq,
		Precision:   p.Precision,
		Recompute:   p.Recompute,
	})
	if err != nil {
		return Metrics{}, err
	}
	return Metrics{
		Time:   res.Total,
		MFU:    res.MFU,
		Memory: res.MemoryPerDevice,
		Fits:   memfoot.FitsDevice(res.MemoryPerDevice, p.System.Device.DRAMCapacity()),
	}, nil
}

func evaluateInference(p Point) (Metrics, error) {
	res, err := infer.Predict(infer.Spec{
		Model:        p.Model,
		System:       p.System,
		TP:           p.Map.TP,
		Batch:        p.GlobalBatch,
		PromptTokens: p.Seq,
		GenTokens:    p.GenTokens,
		Precision:    p.Precision,
	})
	if err != nil {
		return Metrics{}, err
	}
	return Metrics{
		Time:      res.Total,
		Footprint: res.Footprint,
		Fits:      res.Fits,
	}, nil
}

// servingSpec builds the simulator configuration of one serving point,
// whose knobs enumeration already canonicalized.
func servingSpec(p Point) serve.Spec {
	sp := capacitySpec(p)
	sp.SetWorkload(p.workload())
	return sp
}

// capacitySpec is the serving point's capacity alone: the instance a
// single-instance candidate simulates and a fleet candidate replicates.
func capacitySpec(p Point) serve.Spec {
	return serve.Spec{
		Model: p.Model, System: p.System, TP: p.Map.TP, Precision: p.Precision,
		MaxBatch: p.BatchCap, Policy: p.Policy, PageTokens: p.PageTokens,
		PrefillDevices: p.PrefillDevices, DecodeDevices: p.DecodeDevices,
		TransferGBps: p.TransferGBps,
		HostKVBytes:  p.HostKVBytes, SwapGBps: p.SwapGBps,
	}
}

// workload is the serving point's workload. Enumeration zeroes what the
// point's shape excludes, so the fields map one to one.
func (p Point) workload() workload.Spec {
	return workload.Spec{
		PromptTokens: p.Seq, GenTokens: p.GenTokens, PrefixTokens: p.PrefixTokens,
		Mix: p.Mix, Trace: p.Trace,
		Rate: p.Rate, Schedule: p.Schedule, Turns: p.Turns, Think: p.Think,
		Requests: p.ServeRequests, Seed: p.ServeSeed,
	}
}

// clusterSpec builds the fleet configuration of a Replicas > 0 serving
// point: the capacity instantiated Replicas times (sweep fleets are
// homogeneous) serving the point's workload fleet-wide.
func clusterSpec(p Point) cluster.Spec {
	cs := cluster.Spec{
		Replicas: []cluster.Replica{{Spec: capacitySpec(p), Count: p.Replicas}},
		Routing:  p.Routing,
	}
	cs.SetWorkload(p.workload())
	return cs
}

// evaluateServingFleet costs a fleet candidate through internal/cluster,
// mapping the fleet-wide result onto the same serving Metrics surface as a
// single instance (per-device footprint from the worst replica, KV
// utilization averaged across the fleet).
func (ev *evaluator) evaluateServingFleet(p Point) (Metrics, error) {
	res, err := ev.cluster.Run(clusterSpec(p))
	if err != nil {
		return Metrics{}, err
	}
	var peakKV, kvUtil float64
	for _, rr := range res.PerReplica {
		if rr.Result.PeakKVBytes > peakKV {
			peakKV = rr.Result.PeakKVBytes
		}
		kvUtil += rr.Result.MeanKVUtil
	}
	kvUtil /= float64(len(res.PerReplica))
	m := Metrics{
		Time: res.E2E.P95,
		Footprint: memfoot.InferenceBreakdown{
			// The weights are Params·bytes/TP whatever the context.
			Weights: memfoot.Inference(p.Model, p.Map.TP, 1, 0, p.Precision.Bytes()).Weights,
			KVCache: peakKV,
		},
		Fits:              true,
		TTFTP95:           res.TTFT.P95,
		TPOTP95:           res.TPOT.P95,
		TokensPerSec:      res.TokensPerSec,
		Preemptions:       res.Preemptions,
		RecomputedTokens:  res.RecomputedTokens,
		KVUtil:            kvUtil,
		KVTransfers:       res.KVTransfers,
		TransferTime:      res.TransferTimeTotal,
		PrefixHits:        res.PrefixHits,
		PrefixSavedTokens: res.PrefixSavedTokens,
		KVSwapOuts:        res.KVSwapOuts,
		KVSwapIns:         res.KVSwapIns,
		SwapTime:          res.SwapTimeTotal,
	}
	for _, tm := range res.PerTenant {
		m.PerTenant = append(m.PerTenant, TenantSLO{
			Tenant: tm.Tenant, Requests: tm.Requests,
			TTFTP95: tm.TTFT.P95, TPOTP95: tm.TPOT.P95, E2EP95: tm.E2E.P95,
		})
	}
	return m, nil
}

func (ev *evaluator) evaluateServing(p Point) (Metrics, error) {
	if p.Replicas > 0 {
		return ev.evaluateServingFleet(p)
	}
	res, err := ev.serve.Run(servingSpec(p))
	if err != nil {
		return Metrics{}, err
	}
	m := Metrics{
		Time: res.E2E.P95,
		Footprint: memfoot.InferenceBreakdown{
			Weights: memfoot.Inference(p.Model, p.Map.TP, 1, 0, p.Precision.Bytes()).Weights,
			KVCache: res.PeakKVBytes,
		},
		// Admission never over-commits the device, so a completed
		// simulation fits by construction.
		Fits:              true,
		TTFTP95:           res.TTFT.P95,
		TPOTP95:           res.TPOT.P95,
		TokensPerSec:      res.TokensPerSec,
		Preemptions:       res.Preemptions,
		RecomputedTokens:  res.RecomputedTokens,
		KVUtil:            res.MeanKVUtil,
		KVTransfers:       res.KVTransfers,
		TransferTime:      res.TransferTimeTotal,
		PrefixHits:        res.PrefixHits,
		PrefixSavedTokens: res.PrefixSavedTokens,
		KVSwapOuts:        res.KVSwapOuts,
		KVSwapIns:         res.KVSwapIns,
		SwapTime:          res.SwapTimeTotal,
	}
	for _, tm := range res.PerTenant {
		m.PerTenant = append(m.PerTenant, TenantSLO{
			Tenant: tm.Tenant, Requests: tm.Requests,
			TTFTP95: tm.TTFT.P95, TPOTP95: tm.TPOT.P95, E2EP95: tm.E2E.P95,
		})
	}
	return m, nil
}

// Feasible reports whether p fits device memory, using only the footprint
// model — orders of magnitude cheaper than the full predictor, so the
// engine runs it before costing and skips candidates it rejects. The
// verdict matches the Fits field Evaluate would return (for serving:
// whether the simulator can ever admit a request, which is when Evaluate
// succeeds).
func Feasible(p Point) (bool, error) {
	capacity := p.System.Device.DRAMCapacity()
	if p.Workload == Serving {
		// Fleet candidates are homogeneous, so one replica's admission
		// feasibility is the fleet's.
		return serve.Feasible(servingSpec(p)), nil
	}
	if p.Workload == Inference {
		fp := memfoot.Inference(p.Model, p.Map.TP, p.GlobalBatch, p.Seq+p.GenTokens, p.Precision.Bytes())
		return fp.Total() <= capacity, nil
	}
	bd, err := memfoot.Train(memfoot.TrainSpec{
		Model: p.Model, Map: p.Map, Seq: p.Seq, GlobalBatch: p.GlobalBatch,
		Recompute: p.Recompute,
	})
	if err != nil {
		return false, err
	}
	return memfoot.FitsDevice(bd, capacity), nil
}

// rank filters and orders rows: fitting candidates first, then by
// predicted time, ties broken by enumeration order — fully deterministic
// regardless of how the rows were produced.
func rank(rows []Row, c Constraints) []Row {
	if !c.AllowOverflow {
		kept := rows[:0]
		for _, r := range rows {
			if r.Metrics.Fits {
				kept = append(kept, r)
			}
		}
		rows = kept
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].Metrics.Fits != rows[j].Metrics.Fits {
			return rows[i].Metrics.Fits
		}
		//lint:floateq exact compare guarding a strict-< tiebreak: equal bit patterns must fall through to the stable order index
		if rows[i].Metrics.Time != rows[j].Metrics.Time {
			return rows[i].Metrics.Time < rows[j].Metrics.Time
		}
		return rows[i].order < rows[j].order
	})
	if c.TopK > 0 && len(rows) > c.TopK {
		rows = rows[:c.TopK]
	}
	return rows
}

// Serial evaluates the grid one candidate at a time in enumeration order,
// with no pruning, memoization, or concurrency — the golden reference the
// concurrent engine must reproduce byte for byte.
func Serial(s Spec) (Result, error) {
	start := time.Now() //lint:deterministic wall-clock feeds Stats.Elapsed instrumentation only, never rankings or metrics
	if err := s.Validate(); err != nil {
		return Result{}, err
	}
	points := Enumerate(s)
	c := s.Constraints.WithDefaults(firstSystem(s))
	rows := make([]Row, 0, len(points))
	stats := Stats{Enumerated: len(points), Workers: 1}
	ev := newEvaluator()
	for i, p := range points {
		m, err := ev.evaluate(p)
		if err != nil {
			stats.Errors++
			continue
		}
		stats.Evaluated++
		rows = append(rows, Row{Point: p, Metrics: m, order: i})
	}
	stats.Elapsed = time.Since(start) //lint:deterministic instrumentation-only elapsed time, not part of results
	return Result{Rows: rank(rows, c), Stats: stats}, nil
}

func firstSystem(s Spec) *arch.System {
	if len(s.Systems) > 0 {
		return s.Systems[0]
	}
	return nil
}
