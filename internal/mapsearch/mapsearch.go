// Package mapsearch finds the best parallelization strategy for a model on
// a system — the planning capability the paper derives from its memory and
// performance models (§5.1: "We can also determine the best parallelism
// mapping or training settings for an LLM model on a certain hardware
// system"). It enumerates the feasible (DP, TP, PP, SP, microbatch,
// schedule, recomputation) space, rejects mappings that overflow device
// memory, predicts the iteration time of the rest, and ranks them.
//
// The enumeration and costing are shared with internal/sweep: Search is a
// single-cell sweep run through sweep.Serial, the deliberately serial
// golden-reference path that the concurrent sweep engine is tested against.
package mapsearch

import (
	"fmt"

	"optimus/internal/arch"
	"optimus/internal/memfoot"
	"optimus/internal/model"
	"optimus/internal/parallel"
	"optimus/internal/sweep"
	"optimus/internal/tech"
)

// Constraints bound the search space.
type Constraints = sweep.Constraints

// Candidate is one evaluated strategy.
type Candidate struct {
	Map       parallel.Mapping
	Recompute memfoot.Recompute
	// Time is the predicted seconds per batch.
	Time float64
	// MFU is the model-FLOPs utilization.
	MFU float64
	// Memory is the per-device footprint.
	Memory memfoot.Breakdown
	// Fits reports whether the footprint fits the device.
	Fits bool
}

// Request describes the planning problem.
type Request struct {
	Model       model.Config
	System      *arch.System
	GlobalBatch int
	Seq         int
	Precision   tech.Precision
	Constraints Constraints
}

// spec expands the request into a single-cell sweep grid.
func (r Request) spec() sweep.Spec {
	return sweep.Spec{
		Workload:      sweep.Training,
		Models:        []model.Config{r.Model},
		Systems:       []*arch.System{r.System},
		Precisions:    []tech.Precision{r.Precision},
		GlobalBatches: []int{r.GlobalBatch},
		Seqs:          []int{r.Seq},
		Constraints:   r.Constraints,
	}
}

// Search enumerates and ranks parallelization strategies through the
// sweep package's serial reference path. Results are ordered
// fitting-first, then by predicted time.
func Search(r Request) ([]Candidate, error) {
	if r.System == nil {
		return nil, fmt.Errorf("mapsearch: no system")
	}
	if err := r.Model.Validate(); err != nil {
		return nil, err
	}
	if r.GlobalBatch <= 0 || r.Seq <= 0 {
		return nil, fmt.Errorf("mapsearch: non-positive batch %d or seq %d", r.GlobalBatch, r.Seq)
	}
	res, err := sweep.Serial(r.spec())
	if err != nil {
		return nil, err
	}
	if len(res.Rows) == 0 {
		return nil, fmt.Errorf("mapsearch: no feasible strategy for %s on %d devices (batch %d)",
			r.Model.Name, r.System.NumDevices(), r.GlobalBatch)
	}
	return candidates(res.Rows), nil
}

// candidates converts ranked sweep rows to the planner's result type.
func candidates(rows []sweep.Row) []Candidate {
	out := make([]Candidate, len(rows))
	for i, row := range rows {
		out[i] = Candidate{
			Map:       row.Point.Map,
			Recompute: row.Point.Recompute,
			Time:      row.Metrics.Time,
			MFU:       row.Metrics.MFU,
			Memory:    row.Metrics.Memory,
			Fits:      row.Metrics.Fits,
		}
	}
	return out
}

// Best returns the single best strategy.
func Best(r Request) (Candidate, error) {
	all, err := Search(r)
	if err != nil {
		return Candidate{}, err
	}
	return all[0], nil
}
