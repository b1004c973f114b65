package optimus

import (
	"optimus/internal/energy"
	"optimus/internal/graph"
	"optimus/internal/pipesim"
)

// Extension surface: capabilities built on top of the paper's model — the
// discrete-event pipeline-schedule simulator that cross-checks the
// closed-form bubble model, the task-graph view of Fig. 1, and the
// energy/TCO model the paper names as future work (§7). The automatic
// parallelization planner (§5.1's "determine the best parallelism
// mapping") is a one-cell training Sweep.

type (
	// PipelineConfig describes a pipeline-schedule simulation.
	PipelineConfig = pipesim.Config
	// PipelineResult is a simulated schedule timeline.
	PipelineResult = pipesim.Result

	// TaskGraph is a DAG of kernels, collectives and transfers.
	TaskGraph = graph.Graph
	// TaskGraphSpec describes a forward-graph construction.
	TaskGraphSpec = graph.BuildSpec

	// EnergyReport is an energy/power summary.
	EnergyReport = energy.Report
	// Prices parameterizes the TCO model.
	Prices = energy.Prices
	// TrainingRunCost summarizes full-run training economics.
	TrainingRunCost = energy.TrainingRun
)

// SimulatePipeline executes a pipeline schedule microbatch by microbatch
// and returns its timeline — an independent check of the closed-form
// bubble model used by PredictTraining.
func SimulatePipeline(c PipelineConfig) (PipelineResult, error) { return pipesim.Simulate(c) }

// BuildTaskGraph constructs the per-device forward task graph of Fig. 1
// with per-node predicted costs; use its DOT method for visualization.
func BuildTaskGraph(s TaskGraphSpec) (*TaskGraph, error) { return graph.BuildForward(s) }

// TrainingEnergy returns the per-iteration energy report for a predicted
// training result.
func TrainingEnergy(spec TrainSpec, res TrainResult) (EnergyReport, error) {
	return energy.Training(spec, res)
}

// InferenceEnergy returns the per-request energy report for a predicted
// inference result.
func InferenceEnergy(spec InferSpec, res InferResult) (EnergyReport, error) {
	return energy.Inference(spec, res)
}

// DefaultPrices returns 2024-class cloud pricing for the TCO model.
func DefaultPrices() Prices { return energy.DefaultPrices() }

// PriceTrainingRun extrapolates one iteration to a full training run over
// a token budget and prices it — the performance-per-TCO analysis of the
// paper's introduction.
func PriceTrainingRun(spec TrainSpec, res TrainResult, tokens float64, p Prices) (TrainingRunCost, error) {
	return energy.PriceTrainingRun(spec, res, tokens, p)
}
