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
//   - Engine.Run is the production path, in two passes on a bounded
//     worker pool. Pass 1 splits the grid into independent cells that
//     workers claim from an atomic cursor; each worker walks its cells'
//     distinct candidates and keeps only those that are memoized or pass
//     the memory-feasibility check. Nothing is held for a pruned
//     candidate: repeated axis entries are dropped before the walk, so
//     only a serving cell, whose canonicalization can merge raw values,
//     keeps an identity set. Pass 2 costs the survivors where pass 1
//     left them, claiming chunks of them from a second cursor, memoizing
//     repeated evaluations, and honours context cancellation. Its
//     rankings are byte-identical to Serial's, and neither they nor its
//     Stats depend on the worker count. The string key is rendered only for memo traffic, and the
//     memo can be persisted across processes with SaveCache/LoadCache,
//     so repeated CLI invocations and CI sweeps skip re-costing unchanged
//     grid cells.
package sweep

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"hash/maphash"
	"math"
	"slices"
	"strconv"
	"strings"
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
// Constraints. The Axes table states which sweep kinds read each field,
// which workload field or policy knob it feeds and what it needs set
// with it.
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
	// stream. Policies without prefix caching canonicalize it to zero.
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
	// per rate × batch-cap point.
	Policies []serve.Policy
	// ServePageTokens is the paged policy's KV block size in tokens,
	// serving only; zero means serve.DefaultPageTokens.
	ServePageTokens int
	// PoolSplits are the disaggregated prefill/decode pool splits to
	// compare per grid cell, serving only: each entry is one grid-axis
	// value for the serve.Disaggregated candidates (other policies ignore
	// the axis), so one sweep can rank a 2+6 split against a 4+4 one per
	// rate × batch-cap point. Nil means the co-located split (both pools
	// spanning every device). A split asking for more devices than a grid
	// system has skips that cell, like an indivisible head count.
	PoolSplits []PoolSplit
	// TransferGBps is the disaggregated policy's KV-transfer interconnect
	// bandwidth in GB/s, serving only; zero means
	// serve.DefaultTransferGBps, math.Inf(1) a free transfer.
	TransferGBps float64
	// PrefixTokens are the shared-prompt-prefix lengths to compare per
	// grid cell, serving only: each entry gives the spec-wide request
	// shape that many shared prefix tokens (serve.Spec.PrefixTokens), so
	// one sweep can rank prefix-cache savings across hit fractions. A
	// zero entry is the plain unprefixed shape; nil means {0}. Other
	// policies than Paged canonicalize it to zero, and entries at or
	// beyond a cell's prompt length skip that cell.
	PrefixTokens []int
	// HostKVBytes are the host KV tier capacities (bytes) to compare per
	// grid cell, serving only: each entry lets the paged policy's
	// preemption victims swap pages to a host tier that large
	// (serve.Spec.HostKVBytes). A zero entry is the recompute-only
	// baseline; nil means {0}.
	HostKVBytes []float64
	// SwapGBps is the host tier's swap-link bandwidth in GB/s, serving
	// only; zero means serve.DefaultSwapGBps, math.Inf(1) a free swap.
	SwapGBps float64
	// Replicas are the fleet sizes to compare per grid cell, serving only:
	// each entry runs the candidate's serve configuration as a homogeneous
	// R-replica cluster (internal/cluster) instead of a single instance,
	// ranking fleet-wide SLO percentiles. A zero entry is the plain
	// single-instance simulation; nil means {0}.
	Replicas []int
	// Routings are the cluster routing policies to compare per fleet
	// candidate, serving only; nil means {cluster.RoundRobin}. Fleets of
	// one replica route identically under every policy, so their routing
	// axis canonicalizes to round-robin (one memo key, like the
	// policy-knob axes).
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

// Axis is one field of Spec or Constraints. The Axes table is the one
// statement of which sweep kinds read each axis, which workload fields
// and policy knobs it feeds and which axis it needs: Spec.Validate and
// optimus sweep both apply it through Spec.CheckAxes, so a new axis costs
// its field, one row, its enumeration loop and its flag.
type Axis struct {
	// Field names the field, "Constraints." before a Constraints one;
	// Flag the optimus sweep flag that sets it, without the dash ("" for
	// none, "a/b" for an axis zipped from two flags).
	Field, Flag string
	// Kinds are the sweep kinds that read the axis.
	Kinds []Workload
	// Inputs are the workload.Check fields the axis feeds: its own, then
	// the one derived from its values (a prefixed Mixes entry, a Turns
	// entry above 1). Knobs are the serve.Knobs fields it sets.
	Inputs []workload.Field
	Knobs  []string
	// Partner is the Field of the axis that must hold a positive entry
	// when this one is set; partnered reports whether a spec's does.
	Partner   string
	partnered func(Spec) bool
	// set reports whether a spec sets the axis: a non-empty slice or a
	// non-zero value (NaN included), a positive entry for the knob axes
	// whose zero entry is the default. check validates the values.
	set   func(Spec) bool
	check func(Spec) error
}

var (
	allKinds  = []Workload{Training, Inference, Serving}
	trainOnly = []Workload{Training}
	serveOnly = []Workload{Serving}
)

// Axes is the sweep-axis table, in the order misuse is reported.
var Axes = [...]Axis{
	{Field: "Workload", Flag: "workload", Kinds: allKinds},
	{Field: "Models", Flag: "models", Kinds: allKinds, check: func(s Spec) error {
		if len(s.Models) == 0 {
			return fmt.Errorf("no models")
		}
		return every(s.Models, model.Config.Validate)
	}},
	{Field: "Systems", Flag: "devices/gpus", Kinds: allKinds, check: func(s Spec) error {
		if len(s.Systems) == 0 {
			return fmt.Errorf("no systems")
		}
		return every(s.Systems, func(sys *arch.System) error {
			if sys == nil {
				return fmt.Errorf("nil system")
			}
			return sys.Validate()
		})
	}},
	{Field: "Precisions", Flag: "precisions", Kinds: allKinds},
	// The simulator's admission policy is a serving sweep's batch.
	{Field: "GlobalBatches", Flag: "batches", Kinds: []Workload{Training, Inference},
		set:   func(s Spec) bool { return len(s.GlobalBatches) > 0 },
		check: func(s Spec) error { return atLeast(s.GlobalBatches, 1, "non-positive batch %d") }},
	{Field: "Seqs", Flag: "seqs", Kinds: allKinds, Inputs: []workload.Field{workload.FieldPromptTokens},
		set:   func(s Spec) bool { return len(s.Seqs) > 0 },
		check: func(s Spec) error { return atLeast(s.Seqs, 1, "non-positive sequence length %d") }},
	{Field: "GenTokens", Flag: "gen", Kinds: []Workload{Inference, Serving}, Inputs: []workload.Field{workload.FieldGenTokens},
		set: func(s Spec) bool { return len(s.GenTokens) > 0 },
		check: func(s Spec) error {
			if s.Workload == Serving {
				return atLeast(s.GenTokens, 1, "serving needs at least one generated token, got %d")
			}
			return atLeast(s.GenTokens, 0, "negative generation length %d")
		}},
	{Field: "Rates", Flag: "rates", Kinds: serveOnly, Inputs: []workload.Field{workload.FieldRate},
		set:   func(s Spec) bool { return len(s.Rates) > 0 },
		check: func(s Spec) error { return every(s.Rates, workload.ValidateRate) }},
	{Field: "Schedules", Flag: "schedules", Kinds: serveOnly, Inputs: []workload.Field{workload.FieldSchedule},
		set:   func(s Spec) bool { return len(s.Schedules) > 0 },
		check: func(s Spec) error { return every(s.Schedules, workload.Schedule.Validate) }},
	{Field: "Turns", Flag: "turns", Kinds: serveOnly, Inputs: []workload.Field{workload.FieldTurns, workload.FieldSessions},
		set:   func(s Spec) bool { return len(s.Turns) > 0 },
		check: func(s Spec) error { return atLeast(s.Turns, 0, "negative session turns %d") }},
	{Field: "Think", Flag: "think", Kinds: serveOnly, Inputs: []workload.Field{workload.FieldThink},
		set:   func(s Spec) bool { return s.Think != 0 },
		check: func(s Spec) error { return nonNegative(s.Think, false, "think time %g not finite and non-negative") }},
	{Field: "BatchCaps", Flag: "batch-caps", Kinds: serveOnly,
		set:   func(s Spec) bool { return len(s.BatchCaps) > 0 },
		check: func(s Spec) error { return atLeast(s.BatchCaps, 0, "negative batch cap %d") }},
	{Field: "Mixes", Flag: "mix", Kinds: serveOnly, Inputs: []workload.Field{workload.FieldMix, workload.FieldMixPrefix},
		set:   func(s Spec) bool { return len(s.Mixes) > 0 },
		check: func(s Spec) error { return every(s.Mixes, workload.ValidateMix) }},
	{Field: "Trace", Flag: "trace", Kinds: serveOnly, Inputs: []workload.Field{workload.FieldTrace},
		set: func(s Spec) bool { return s.Trace != nil },
		check: func(s Spec) error {
			if s.Trace == nil {
				return nil
			}
			return workload.ValidateTrace(s.Trace)
		}},
	{Field: "Policies", Flag: "policies", Kinds: serveOnly,
		set: func(s Spec) bool { return len(s.Policies) > 0 },
		check: func(s Spec) error {
			return known(s.Policies, []serve.Policy{serve.ReserveFull, serve.Paged, serve.Disaggregated}, "unknown serving policy %v")
		}},
	{Field: "ServePageTokens", Flag: "page-tokens", Kinds: serveOnly, Knobs: []string{"PageTokens"},
		set: func(s Spec) bool { return s.ServePageTokens != 0 },
		check: func(s Spec) error {
			return atLeast([]int{s.ServePageTokens}, 0, "negative serving page size %d tokens")
		}},
	{Field: "PoolSplits", Flag: "prefill-devices/decode-devices", Kinds: serveOnly, Knobs: []string{"PrefillDevices", "DecodeDevices"},
		set: func(s Spec) bool { return len(s.PoolSplits) > 0 },
		check: func(s Spec) error {
			for _, sp := range s.PoolSplits {
				if sp.Prefill < 0 || sp.Decode < 0 {
					return fmt.Errorf("negative pool split %d+%d devices", sp.Prefill, sp.Decode)
				}
			}
			return nil
		}},
	{Field: "TransferGBps", Flag: "transfer-gbps", Kinds: serveOnly, Knobs: []string{"TransferGBps"},
		set: func(s Spec) bool { return s.TransferGBps != 0 },
		check: func(s Spec) error {
			return nonNegative(s.TransferGBps, true, "KV-transfer bandwidth %g GB/s not non-negative")
		}},
	{Field: "PrefixTokens", Flag: "prefix", Kinds: serveOnly,
		Inputs: []workload.Field{workload.FieldPrefixTokens}, Knobs: []string{"PrefixTokens"},
		set:   func(s Spec) bool { return slices.ContainsFunc(s.PrefixTokens, func(n int) bool { return n > 0 }) },
		check: func(s Spec) error { return atLeast(s.PrefixTokens, 0, "negative prefix length %d tokens") }},
	{Field: "HostKVBytes", Flag: "kv-host-gb", Kinds: serveOnly, Knobs: []string{"HostKVBytes"},
		set: func(s Spec) bool { return slices.ContainsFunc(s.HostKVBytes, func(b float64) bool { return b > 0 }) },
		check: func(s Spec) error {
			return every(s.HostKVBytes, func(b float64) error {
				return nonNegative(b, false, "host KV capacity %g bytes not finite and non-negative")
			})
		}},
	{Field: "SwapGBps", Flag: "swap-gbps", Kinds: serveOnly, Knobs: []string{"SwapGBps"},
		set:   func(s Spec) bool { return s.SwapGBps != 0 },
		check: func(s Spec) error { return nonNegative(s.SwapGBps, true, "swap bandwidth %g GB/s not non-negative") }},
	// Zero is the explicit single-instance entry.
	{Field: "Replicas", Flag: "replicas", Kinds: serveOnly,
		set:   func(s Spec) bool { return len(s.Replicas) > 0 },
		check: func(s Spec) error { return atLeast(s.Replicas, 0, "negative fleet size %d replicas") }},
	// Single-instance candidates have no router.
	{Field: "Routings", Flag: "routings", Kinds: serveOnly, Partner: "Replicas",
		partnered: func(s Spec) bool { return slices.ContainsFunc(s.Replicas, func(r int) bool { return r > 0 }) },
		set:       func(s Spec) bool { return len(s.Routings) > 0 },
		check: func(s Spec) error {
			return known(s.Routings, []cluster.Routing{cluster.RoundRobin, cluster.LeastQueue, cluster.LeastKV, cluster.TenantAffinity},
				"unknown routing policy %v")
		}},
	{Field: "ServeRequests", Flag: "serve-requests", Kinds: serveOnly, Inputs: []workload.Field{workload.FieldRequests},
		set:   func(s Spec) bool { return s.ServeRequests != 0 },
		check: func(s Spec) error { return atLeast([]int{s.ServeRequests}, 0, "negative serving request count %d") }},
	{Field: "ServeSeed", Flag: "serve-seed", Kinds: serveOnly, Inputs: []workload.Field{workload.FieldSeed},
		set: func(s Spec) bool { return s.ServeSeed != 0 }},
	{Field: "Workers", Flag: "workers", Kinds: allKinds},
	// Inference and serving maps are fixed to TP = device count (§1.3).
	{Field: "Constraints.MaxTP", Flag: "max-tp", Kinds: trainOnly, set: func(s Spec) bool { return s.Constraints.MaxTP != 0 }},
	{Field: "Constraints.Microbatches", Flag: "microbatches", Kinds: trainOnly,
		set:   func(s Spec) bool { return len(s.Constraints.Microbatches) > 0 },
		check: func(s Spec) error { return atLeast(s.Constraints.Microbatches, 1, "non-positive microbatch %d") }},
	{Field: "Constraints.Recomputes", Flag: "recomputes", Kinds: trainOnly,
		set: func(s Spec) bool { return len(s.Constraints.Recomputes) > 0 }},
	{Field: "Constraints.Schedules", Kinds: trainOnly, set: func(s Spec) bool { return len(s.Constraints.Schedules) > 0 }},
	{Field: "Constraints.AllowOverflow", Flag: "allow-overflow", Kinds: allKinds},
	{Field: "Constraints.TopK", Flag: "top", Kinds: allKinds},
}

// every reports the first error check returns over xs.
func every[T any](xs []T, check func(T) error) error {
	for _, x := range xs {
		if err := check(x); err != nil {
			return err
		}
	}
	return nil
}

// atLeast reports the first entry of xs below floor, in format.
func atLeast(xs []int, floor int, format string) error {
	return every(xs, func(x int) error {
		if x < floor {
			return fmt.Errorf(format, x)
		}
		return nil
	})
}

// known reports the first entry of xs outside valid, in format.
func known[T comparable](xs, valid []T, format string) error {
	return every(xs, func(x T) error {
		if !slices.Contains(valid, x) {
			return fmt.Errorf(format, x)
		}
		return nil
	})
}

// nonNegative checks x ≥ 0, NaN excluded and +Inf only where inf allows
// it (a free link), in format.
func nonNegative(x float64, inf bool, format string) error {
	if !(x >= 0) || (!inf && math.IsInf(x, 1)) {
		return fmt.Errorf(format, x)
	}
	return nil
}

// axis returns the Axes row of field.
func axis(field string) Axis {
	i := slices.IndexFunc(Axes[:], func(a Axis) bool { return a.Field == field })
	return Axes[i]
}

// CheckAxes walks Axes and reports the grid's first misuse, naming axes
// as the caller spells them (a field, a flag). set says whether the
// caller sets an axis; the derived workload fields, the partner
// requirement and the value ranges read the spec's values. In order: an
// axis the sweep kind does not read; an axis without a positive entry
// in its partner; workload.Check and serve.CheckKnobs over the fields
// and knobs the axes feed; then each axis's values.
func (s Spec) CheckAxes(set func(Axis) bool, name func(Axis) string) error {
	if s.Workload < Training || s.Workload > Serving {
		return fmt.Errorf("sweep: unknown workload %v", s.Workload)
	}
	var in [workload.NumFields]bool
	var inName [workload.NumFields]string
	for _, a := range Axes {
		if !set(a) {
			continue
		}
		if !slices.Contains(a.Kinds, s.Workload) {
			kinds := make([]string, len(a.Kinds))
			for i, k := range a.Kinds {
				kinds[i] = k.String()
			}
			return fmt.Errorf("sweep: %s applies to %s sweeps only", name(a), strings.Join(kinds, " and "))
		}
		for _, f := range a.Inputs {
			in[f], inName[f] = true, name(a)
		}
	}
	for _, a := range Axes {
		if a.Partner != "" && set(a) && !a.partnered(s) {
			return fmt.Errorf("sweep: %s needs a positive %s entry", name(a), name(axis(a.Partner)))
		}
	}
	in[workload.FieldMixPrefix] = in[workload.FieldMixPrefix] && slices.ContainsFunc(s.Mixes, workload.MixPrefixed)
	sessions := in[workload.FieldSessions] && slices.ContainsFunc(s.Turns, func(n int) bool { return n > 1 })
	in[workload.FieldSessions] = sessions
	if err := workload.Check(in, func(f workload.Field) string { return inName[f] }); err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	// A knob is set by the axis that feeds it, and prefix caching also by
	// session cohorts when no prefix entry is set; NoPreempt has no axis
	// (sweeps always preempt). Without an entry in Policies that reads a
	// knob, the knob would be silently discarded at enumeration.
	knob := func(k serve.Knob) (a Axis, byTurns bool) {
		if i := slices.IndexFunc(Axes[:], func(a Axis) bool { return slices.Contains(a.Knobs, k.Field) }); i >= 0 {
			a = Axes[i]
		}
		return a, k.Field == "PrefixTokens" && sessions && !set(a)
	}
	if err := serve.CheckKnobs(s.Policies, false,
		func(k serve.Knob) bool { a, byTurns := knob(k); return a.Field != "" && set(a) || byTurns },
		func(k serve.Knob) string {
			switch a, byTurns := knob(k); {
			case byTurns:
				return name(axis("Turns")) + " above 1"
			case a.Field != "":
				return name(a)
			}
			return ""
		},
		name(axis("Policies"))); err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	for _, a := range Axes {
		if a.check == nil {
			continue
		}
		if err := a.check(s); err != nil {
			return fmt.Errorf("sweep: %s: %w", name(a), err)
		}
	}
	return nil
}

// Validate checks the grid: CheckAxes over the axes the spec sets,
// naming fields.
func (s Spec) Validate() error {
	return s.CheckAxes(func(a Axis) bool { return a.set != nil && a.set(s) }, func(a Axis) string { return a.Field })
}

// Point is one fully instantiated candidate experiment. Enumeration
// stamps it with the formatted tokens of its model, system, workload and
// schedule, interned once per axis entry, so that the engine can tell
// candidates apart (ident) and render their memo key without formatting
// a configuration per candidate; the public Key re-derives them.
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

	// tok holds the tokens enumeration interned for the fields above; see
	// tokensOf.
	tok tokens
}

// Key canonically identifies everything the evaluation depends on — the
// memoization key, and the on-disk key of SaveCache. It re-derives the
// tokens from the current field values, so a mutated Point copy never
// keeps a stale identity; the engine renders the same string from the
// enumeration-time tokens, and only for memo traffic.
func (p Point) Key() string {
	p.tok = tokensOf(&p)
	id := p.ident()
	return string(id.appendKey(make([]byte, 0, len(id.tok.model)+len(id.tok.system)+128)))
}

// tokens are a point's formatted identity parts: its model, system,
// request-shape workload and arrival schedule, each rendered once.
type tokens struct {
	model, system, workload, schedule string
}

// tokensOf derives p's tokens from its configuration fields — what Key
// renders, and what enumeration interns once per axis entry with the same
// helpers. ident compares these tokens in place of the fields they stand
// for.
func tokensOf(p *Point) tokens {
	return tokens{
		model:    modelToken(p.Model),
		system:   systemToken(p.System),
		workload: workloadToken(p.Mix, p.Trace),
		schedule: workload.FormatSchedule(p.Schedule),
	}
}

// ident is a point's comparable identity: the tokens, the integer fields
// and the bits of the float fields, in key order. Two points have equal
// idents exactly when they have equal keys (TestIdentMatchesKey), so a
// serving cell deduplicates on it, and the engine renders memo keys from
// it, without formatting anything.
type ident struct {
	tok tokens
	num numbers
}

// numbers are an identity's integer fields and float bits.
type numbers struct {
	ints   [24]int64
	floats [5]uint64
}

// ident builds p's identity from its interned tokens.
//
//optimus:hotpath
func (p *Point) ident() ident {
	sp := 0
	if p.Map.SP {
		sp = 1
	}
	return ident{tok: p.tok, num: numbers{
		ints: [24]int64{
			int64(p.Workload), int64(p.Map.DP), int64(p.Map.TP), int64(p.Map.PP), int64(sp),
			int64(p.Map.Microbatch), int64(p.Map.Schedule), int64(p.Map.VirtualStages),
			int64(p.Recompute), int64(p.Precision), int64(p.GlobalBatch), int64(p.Seq), int64(p.GenTokens),
			int64(p.BatchCap), int64(p.ServeRequests), int64(p.Policy), int64(p.PageTokens),
			int64(p.PrefillDevices), int64(p.DecodeDevices), int64(p.Replicas), int64(p.Routing),
			int64(p.PrefixTokens), int64(p.Turns), p.ServeSeed,
		},
		floats: [5]uint64{
			floatBits(p.Rate), floatBits(p.TransferGBps), floatBits(p.HostKVBytes),
			floatBits(p.SwapGBps), floatBits(p.Think),
		},
	}}
}

// floatBits is x's identity: 'g' formatting tells every float apart, -0
// from +0 included, except that every NaN renders as "NaN".
func floatBits(x float64) uint64 {
	if math.IsNaN(x) {
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(x)
}

// appendKey renders the identity as the canonical key string onto buf,
// without fmt: '|'-separated, the model and system tokens first and the
// schedule and workload tokens last. The schedule token is
// FormatSchedule's canonical rendering (digits and ,-:. only), so it
// cannot collide with the separators.
//
//optimus:hotpath
func (id *ident) appendKey(buf []byte) []byte {
	buf = append(buf, id.tok.model...)
	buf = append(buf, '|')
	buf = append(buf, id.tok.system...)
	for _, v := range id.num.ints {
		buf = append(buf, '|')
		buf = strconv.AppendInt(buf, v, 10)
	}
	for _, b := range id.num.floats {
		buf = append(buf, '|')
		buf = strconv.AppendFloat(buf, math.Float64frombits(b), 'g', -1, 64)
	}
	buf = append(buf, '|')
	buf = append(buf, id.tok.schedule...)
	buf = append(buf, '|')
	return append(buf, id.tok.workload...)
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

// eachTraining visits the training candidates of one grid cell at tensor
// degree tp, stamped with the cell's tokens; c carries its defaults.
func eachTraining(cfg model.Config, sys *arch.System, batch, seq, tp int, prec tech.Precision, c *Constraints, tok tokens, visit func(Point)) {
	devices := sys.NumDevices()
	for pp := 1; pp <= devices/tp; pp++ {
		if devices%(tp*pp) != 0 {
			continue
		}
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
				if !m.Valid(cfg.Layers, batch) {
					continue
				}
				pp1Done = true
				for _, rec := range c.Recomputes {
					visit(Point{
						Workload: Training, Model: cfg, System: sys,
						Map: m, Recompute: rec, Precision: prec,
						GlobalBatch: batch, Seq: seq, tok: tok,
					})
				}
			}
		}
	}
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

// arrival is one entry of a serving grid's arrival axis, with its
// schedule token interned once.
type arrival struct {
	rate  float64
	sched workload.Schedule
	tok   string
}

// arrivals lists the serving grid's arrival axis: every constant rate,
// then every schedule — canonicalized first, so a schedule that is
// constant after merging enumerates as the equivalent plain-rate
// candidate (rate set, schedule nil) and deduplicates against it. A
// trace fixes its own arrivals: one empty entry.
func (s Spec) arrivals() []arrival {
	if len(s.Trace) > 0 {
		return []arrival{{}}
	}
	out := make([]arrival, 0, len(s.Rates)+len(s.Schedules))
	for _, r := range s.Rates {
		out = append(out, arrival{rate: r})
	}
	for _, sch := range s.Schedules {
		cs, cr := workload.CanonicalSchedule(sch, 0)
		out = append(out, arrival{rate: cr, sched: cs, tok: workload.FormatSchedule(cs)})
	}
	return out
}

// servingPoint completes one serving candidate. p carries the grid cell
// (model, system, mapping, precision) with its tokens and the raw axis
// values, the arrival-process axes included; servingPoint applies the
// request shape, canonicalizes the capacity knobs through
// serve.Spec.Canonical — so the page size clamps against the shape's
// largest context, session growth included — and stamps the shape's
// workload token. Equal-behavior candidates therefore share one
// identity, under exactly the rules the simulator applies. A trace fixes
// arrivals, seed and request count, so its candidates zero them. ok is
// false when the candidate cannot be simulated — a pool split wider than
// the system, or a prefix that leaves no private prompt token or rides on
// a session's — and the cell is skipped, like an indivisible head count.
func servingPoint(p Point, shape servingShape) (Point, bool) {
	if len(shape.trace) > 0 {
		p.Trace, p.ServeRequests = shape.trace, len(shape.trace)
		p.Rate, p.ServeSeed, p.Schedule, p.Turns, p.Think = 0, 0, nil, 0, 0
		p.tok.schedule = ""
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
	p.tok.workload = shape.tok
	return p, true
}

// eachServing visits the serving candidates of one (model, system,
// precision) cell. Serving maps are fixed to TP = device count, as in
// inference; layout keeps only the cells whose heads divide over it.
func (s *Spec) eachServing(cfg model.Config, sys *arch.System, prec tech.Precision, tok tokens,
	shapes []servingShape, arrivals []arrival, visit func(Point)) {
	tp := sys.NumDevices()
	base := Point{
		Workload: Serving, Model: cfg, System: sys,
		Map:       parallel.Mapping{DP: 1, TP: tp, PP: 1, SP: tp > 1, Microbatch: 1},
		Precision: prec, ServeRequests: s.ServeRequests, ServeSeed: s.ServeSeed,
		PageTokens: s.ServePageTokens, TransferGBps: s.TransferGBps, SwapGBps: s.SwapGBps,
		Think: s.Think, tok: tok,
	}
	roundRobin := []cluster.Routing{cluster.RoundRobin}
	for _, ar := range arrivals {
		for _, turns := range s.Turns {
			for _, batchCap := range s.BatchCaps {
				for _, pol := range s.Policies {
					for _, split := range s.PoolSplits {
						for _, host := range s.HostKVBytes {
							for _, shape := range shapes {
								p := base
								p.Rate, p.Schedule, p.tok.schedule, p.Turns = ar.rate, ar.sched, ar.tok, turns
								p.BatchCap, p.Policy = batchCap, pol
								p.PrefillDevices, p.DecodeDevices, p.HostKVBytes = split.Prefill, split.Decode, host
								p, ok := servingPoint(p, shape)
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
										q := p
										if reps > 0 {
											q.Replicas, q.Routing = reps, rt
										}
										visit(q)
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// grid is a Spec laid out for its walk: defaults filled, the model and
// system tokens interned once per axis entry, the schedule and workload
// tokens once per grid, and the walk split into cells.
type grid struct {
	s         Spec
	cons      Constraints // the training walk's axes, defaults filled
	modelToks []string
	sysToks   []string
	shapes    []servingShape
	arrivals  []arrival
	cells     []cell
}

// cell is one independent part of a grid's walk: a (model, system,
// precision) triple, and for training also a batch, a sequence length and
// a tensor degree, so that a one-cell grid still splits into several.
// Concatenated in order, the cells' walks are the grid's.
type cell struct {
	model, system  int // indices into the grid's Models and Systems
	prec           tech.Precision
	batch, seq, tp int // training only, but tp: every device otherwise
}

// layout lays s out. With distinct, repeated axis entries are dropped,
// first occurrences kept: models and systems by token, and precisions,
// batches, sequence lengths, generation lengths, microbatches, schedules
// and recomputes by value. The cells are then distinct, since every cell
// coordinate is part of the identity, and a training or inference cell's
// walk visits distinct candidates: its remaining loops each set an
// identity field to a distinct value. A serving cell's canonicalization
// can still collapse distinct raw values (see candidates). Without
// distinct, the walk is the raw one, duplicates included.
func (s Spec) layout(distinct bool) *grid {
	s = s.withDefaults()
	g := &grid{s: s}
	g.s.Models, g.modelToks = interned(s.Models, modelToken, distinct)
	g.s.Systems, g.sysToks = interned(s.Systems, systemToken, distinct)
	if distinct {
		g.s.Precisions, g.s.GlobalBatches, g.s.Seqs, g.s.GenTokens =
			firsts(s.Precisions), firsts(s.GlobalBatches), firsts(s.Seqs), firsts(s.GenTokens)
	}
	switch s.Workload {
	case Serving:
		g.shapes, g.arrivals = g.s.servingShapes(), g.s.arrivals()
	case Training:
		if len(s.Systems) > 0 {
			g.cons = s.Constraints.WithDefaults(s.Systems[0])
			if distinct {
				g.cons.Microbatches, g.cons.Schedules, g.cons.Recomputes =
					firsts(g.cons.Microbatches), firsts(g.cons.Schedules), firsts(g.cons.Recomputes)
			}
		}
	}
	for m, cfg := range g.s.Models {
		for sy, sys := range g.s.Systems {
			devices := sys.NumDevices()
			if g.s.Workload != Training {
				// Inference and serving map TP across every device (§1.3).
				if cfg.Heads%devices != 0 {
					continue
				}
				for _, prec := range g.s.Precisions {
					g.cells = append(g.cells, cell{model: m, system: sy, prec: prec, tp: devices})
				}
				continue
			}
			maxTP := s.Constraints.WithDefaults(sys).MaxTP
			tps := slices.DeleteFunc(divisors(devices), func(tp int) bool { return tp > maxTP || cfg.Heads%tp != 0 })
			for _, prec := range g.s.Precisions {
				for _, batch := range g.s.GlobalBatches {
					for _, seq := range g.s.Seqs {
						for _, tp := range tps {
							g.cells = append(g.cells, cell{model: m, system: sy, prec: prec, batch: batch, seq: seq, tp: tp})
						}
					}
				}
			}
		}
	}
	return g
}

// interned returns xs with the token of each entry; with distinct, an
// entry whose token an earlier one has is dropped.
func interned[T any](xs []T, token func(T) string, distinct bool) ([]T, []string) {
	toks := make([]string, 0, len(xs))
	out := make([]T, 0, len(xs))
	for _, x := range xs {
		tok := token(x)
		if distinct && slices.Contains(toks, tok) {
			continue
		}
		toks = append(toks, tok)
		out = append(out, x)
	}
	return out, toks
}

// firsts returns xs without its repeated entries, first occurrences kept
// in order.
func firsts[T comparable](xs []T) []T {
	out := xs[:0:0]
	for i, x := range xs {
		if !slices.Contains(xs[:i], x) {
			out = append(out, x)
		}
	}
	return out
}

// walk visits cell c's candidates in enumeration order, duplicates
// included.
func (g *grid) walk(c *cell, visit func(Point)) {
	cfg, sys := g.s.Models[c.model], g.s.Systems[c.system]
	tok := tokens{model: g.modelToks[c.model], system: g.sysToks[c.system]}
	switch g.s.Workload {
	case Serving:
		g.s.eachServing(cfg, sys, c.prec, tok, g.shapes, g.arrivals, visit)
	case Inference:
		for _, batch := range g.s.GlobalBatches {
			for _, seq := range g.s.Seqs {
				for _, gen := range g.s.GenTokens {
					visit(Point{
						Workload: Inference, Model: cfg, System: sys,
						Map:       parallel.Mapping{DP: 1, TP: c.tp, PP: 1, SP: c.tp > 1, Microbatch: 1},
						Precision: c.prec, GlobalBatch: batch, Seq: seq, GenTokens: gen, tok: tok,
					})
				}
			}
		}
	default:
		eachTraining(cfg, sys, c.batch, c.seq, c.tp, c.prec, &g.cons, tok, visit)
	}
}

// candidates visits cell c's distinct candidates in enumeration order. A
// training or inference cell of a distinct layout visits nothing twice,
// so it is walked as is. A serving cell's walk drops a candidate whose
// ident an earlier one of the cell has; no other cell can hold it. The
// cell keeps one numberSet per distinct tokens, found again only when the
// tokens change, which the walk makes rare.
func (g *grid) candidates(c *cell, visit func(Point)) {
	if g.s.Workload != Serving {
		g.walk(c, visit)
		return
	}
	seen := make(map[tokens]*numberSet)
	var tok tokens
	var set *numberSet
	g.walk(c, func(p Point) {
		id := p.ident()
		if set == nil || id.tok != tok {
			tok = id.tok
			if set = seen[tok]; set == nil {
				set = &numberSet{seed: maphash.MakeSeed()}
				seen[tok] = set
			}
		}
		if set.add(&id.num) {
			visit(p)
		}
	})
}

// numberSet is an open-addressing hash set of identity numbers. A Go map
// would store each 232-byte key behind an allocation of its own; here the
// keys share blocks and the table holds their indices. The seed moves
// where a key is filed, never whether it is found.
type numberSet struct {
	seed  maphash.Seed
	keys  blocks[numbers]
	slots []int32 // 1 + an index into keys, 0 for an empty slot; a power of two long
}

// add inserts n and reports whether it was absent.
func (s *numberSet) add(n *numbers) bool {
	if 2*(s.keys.n+1) > len(s.slots) {
		s.grow()
	}
	mask := uint64(len(s.slots) - 1)
	for i := maphash.Comparable(s.seed, *n) & mask; ; i = (i + 1) & mask {
		k := s.slots[i]
		if k == 0 {
			s.keys.add(*n)
			s.slots[i] = int32(s.keys.n)
			return true
		}
		if *s.keys.at(int(k) - 1) == *n {
			return false
		}
	}
}

// grow doubles the table and re-files every key.
func (s *numberSet) grow() {
	s.slots = make([]int32, max(16, 2*len(s.slots)))
	mask := uint64(len(s.slots) - 1)
	for k := 0; k < s.keys.n; k++ {
		i := maphash.Comparable(s.seed, *s.keys.at(k)) & mask
		for s.slots[i] != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = int32(k + 1)
	}
}

// Enumerate lists the grid's distinct candidates in enumeration order:
// the serial driver of the cell walk that Engine.Run spreads over its
// pool.
func Enumerate(s Spec) []Point {
	g := s.layout(true)
	var out []Point
	for i := range g.cells {
		g.candidates(&g.cells[i], func(p Point) { out = append(out, p) })
	}
	return out
}

// Evaluate runs the full cost model on one point — on fresh simulator
// state. The engine and Serial evaluate through a pooled per-worker
// evaluator instead, which reuses simulator slabs and the training op
// buffer across points; TestRunnerReuseMatchesFresh (serve),
// TestClusterRunnerReuseMatchesFresh and TestPredictorReuseMatchesFresh
// (train) pin that reuse byte-identical, so the two paths cannot diverge.
func Evaluate(p Point) (Metrics, error) {
	return newEvaluator().evaluate(p)
}

// evaluator carries the pooled serving simulators and the training op
// buffer one sweep worker reuses across the points it costs. Inference
// predictions are stateless. NOT safe for concurrent use — each worker
// owns one.
type evaluator struct {
	serve   *serve.Runner
	cluster *cluster.Runner
	train   train.Predictor
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
		return ev.evaluateTraining(p)
	}
}

func (ev *evaluator) evaluateTraining(p Point) (Metrics, error) {
	res, err := ev.train.Predict(train.Spec{
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
	return servingMetrics(p, &serve.Result{
		TokensPerSec: res.TokensPerSec, TTFT: res.TTFT, TPOT: res.TPOT, E2E: res.E2E,
		PeakKVBytes: peakKV, MeanKVUtil: kvUtil,
		Preemptions: res.Preemptions, RecomputedTokens: res.RecomputedTokens,
		KVTransfers: res.KVTransfers, TransferTimeTotal: res.TransferTimeTotal,
		PrefixHits: res.PrefixHits, PrefixSavedTokens: res.PrefixSavedTokens,
		KVSwapOuts: res.KVSwapOuts, KVSwapIns: res.KVSwapIns, SwapTimeTotal: res.SwapTimeTotal,
		PerTenant: res.PerTenant,
	}), nil
}

func (ev *evaluator) evaluateServing(p Point) (Metrics, error) {
	if p.Replicas > 0 {
		return ev.evaluateServingFleet(p)
	}
	res, err := ev.serve.Run(servingSpec(p))
	if err != nil {
		return Metrics{}, err
	}
	return servingMetrics(p, &res), nil
}

// servingMetrics maps one serving run onto Metrics.
func servingMetrics(p Point, res *serve.Result) Metrics {
	m := Metrics{
		Time: res.E2E.P95,
		Footprint: memfoot.InferenceBreakdown{
			// The weights are Params·bytes/TP whatever the context.
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
	return m
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
// predicted time, ties broken by enumeration order. Enumeration orders
// are unique, so this is a total order and the ranking is fully
// deterministic regardless of how the rows were produced. It sorts the
// pointers and copies out only the rows it returns, at most TopK.
func rank(rows []*Row, c Constraints) []Row {
	if !c.AllowOverflow {
		rows = slices.DeleteFunc(rows, func(r *Row) bool { return !r.Metrics.Fits })
	}
	slices.SortFunc(rows, func(a, b *Row) int {
		if a.Metrics.Fits != b.Metrics.Fits {
			if a.Metrics.Fits {
				return -1
			}
			return 1
		}
		if c := cmp.Compare(a.Metrics.Time, b.Metrics.Time); c != 0 {
			return c
		}
		return cmp.Compare(a.order, b.order)
	})
	if c.TopK > 0 && len(rows) > c.TopK {
		rows = rows[:c.TopK]
	}
	out := make([]Row, len(rows))
	for i, r := range rows {
		out[i] = *r
	}
	return out
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
	ranked := make([]*Row, len(rows))
	for i := range rows {
		ranked[i] = &rows[i]
	}
	stats.Elapsed = time.Since(start) //lint:deterministic instrumentation-only elapsed time, not part of results
	return Result{Rows: rank(ranked, c), Stats: stats}, nil
}

func firstSystem(s Spec) *arch.System {
	if len(s.Systems) > 0 {
		return s.Systems[0]
	}
	return nil
}
