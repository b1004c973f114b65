// Package pipesim is a discrete-event simulator for pipeline-parallel
// training schedules (GPipe, PipeDream-Flush/1F1B, interleaved 1F1B —
// paper §3.2). Where internal/train uses the closed-form bubble model
// (p-1 slots, divided by the interleave factor), this simulator executes
// the actual schedule microbatch by microbatch, respecting data
// dependencies and inter-stage transfer delays.
//
// It serves two roles: an independent cross-check of the closed-form
// pipeline model (their agreement is asserted in the tests and in
// internal/train's integration tests), and a source of per-stage
// utilization timelines for schedule visualization.
package pipesim

import (
	"fmt"
	"math"
	"sort"
)

// Config describes one pipeline execution.
type Config struct {
	// Stages is the pipeline depth p.
	Stages int
	// Microbatches is the number of microbatches m per iteration.
	Microbatches int
	// Chunks is the interleaving factor v (model chunks per device);
	// 1 means no interleaving.
	Chunks int
	// FwdTime and BwdTime are the per-microbatch, per-chunk compute times
	// of one stage (seconds).
	FwdTime, BwdTime float64
	// XferTime is the inter-stage activation (or gradient) transfer delay.
	XferTime float64
	// Interleaved selects the interleaved-1F1B dependency pattern when
	// Chunks > 1.
	Interleaved bool
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Stages <= 0:
		return fmt.Errorf("pipesim: non-positive stages %d", c.Stages)
	case c.Microbatches <= 0:
		return fmt.Errorf("pipesim: non-positive microbatches %d", c.Microbatches)
	case c.Chunks < 1:
		return fmt.Errorf("pipesim: non-positive chunks %d", c.Chunks)
	case c.FwdTime < 0 || c.BwdTime < 0 || c.XferTime < 0:
		return fmt.Errorf("pipesim: negative times in %+v", c)
	case c.Interleaved && c.Chunks < 2:
		return fmt.Errorf("pipesim: interleaved schedule needs chunks >= 2")
	}
	return nil
}

// Span is one executed work item on a stage's timeline.
type Span struct {
	// Stage is the executing pipeline stage.
	Stage int
	// Micro is the microbatch index.
	Micro int
	// Chunk is the model-chunk index (always 0 without interleaving).
	Chunk int
	// Backward marks a backward-pass span.
	Backward bool
	// Start and End bound the span in seconds.
	Start, End float64
}

// Result is a simulated iteration.
type Result struct {
	// Total is the makespan in seconds.
	Total float64
	// Spans is every executed work item, sorted by start time.
	Spans []Span
	// BubbleFraction is the mean idle fraction across stages within the
	// makespan.
	BubbleFraction float64
	// PerStageBusy is each stage's busy time.
	PerStageBusy []float64
}

// task identifies one (microbatch, chunk, direction) unit on one stage.
type task struct {
	micro, chunk int
	backward     bool
}

// Simulate executes the configured schedule and returns its timeline.
//
// The simulator models each stage as a serial processor executing its
// statically-ordered task list; a task starts when both its predecessor
// on the same stage has finished and its cross-stage dependency (the same
// microbatch's previous stage, plus transfer delay) has arrived.
func Simulate(c Config) (Result, error) {
	if err := c.Validate(); err != nil {
		return Result{}, err
	}

	orders := buildOrders(c)

	// ready[stage][task] = earliest start permitted by cross-stage deps.
	done := make([]map[task]float64, c.Stages)
	for s := range done {
		done[s] = make(map[task]float64, len(orders[s]))
	}

	var spans []Span
	clock := make([]float64, c.Stages) // per-stage serial availability
	idx := make([]int, c.Stages)       // next task index per stage

	remaining := 0
	for _, o := range orders {
		remaining += len(o)
	}

	for remaining > 0 {
		progressed := false
		for s := 0; s < c.Stages; s++ {
			if idx[s] >= len(orders[s]) {
				continue
			}
			tk := orders[s][idx[s]]
			ready, ok := depReady(c, done, s, tk)
			if !ok {
				continue
			}
			start := math.Max(clock[s], ready)
			dur := c.FwdTime
			if tk.backward {
				dur = c.BwdTime
			}
			end := start + dur
			clock[s] = end
			done[s][tk] = end
			spans = append(spans, Span{
				Stage: s, Micro: tk.micro, Chunk: tk.chunk,
				Backward: tk.backward, Start: start, End: end,
			})
			idx[s]++
			remaining--
			progressed = true
		}
		if !progressed {
			return Result{}, fmt.Errorf("pipesim: schedule deadlock (config %+v)", c)
		}
	}

	sort.Slice(spans, func(i, j int) bool {
		//lint:floateq exact compare guarding a strict-< tiebreak: equal bit patterns must fall through to the stage index
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].Stage < spans[j].Stage
	})

	res := Result{Spans: spans, PerStageBusy: make([]float64, c.Stages)}
	for _, sp := range spans {
		if sp.End > res.Total {
			res.Total = sp.End
		}
		res.PerStageBusy[sp.Stage] += sp.End - sp.Start
	}
	if res.Total > 0 {
		var idle float64
		for _, busy := range res.PerStageBusy {
			idle += res.Total - busy
		}
		res.BubbleFraction = idle / (res.Total * float64(c.Stages))
	}
	return res, nil
}

// buildOrders returns each stage's static task execution order.
func buildOrders(c Config) [][]task {
	orders := make([][]task, c.Stages)
	switch {
	case c.Interleaved && c.Chunks > 1:
		for s := 0; s < c.Stages; s++ {
			orders[s] = interleavedOrder(c, s)
		}
	case c.BwdTime == 0:
		// Forward-only pipelines (inference): plain in-order forwards.
		for s := 0; s < c.Stages; s++ {
			for m := 0; m < c.Microbatches; m++ {
				orders[s] = append(orders[s], task{micro: m})
			}
		}
	default:
		for s := 0; s < c.Stages; s++ {
			orders[s] = oneFOneBOrder(c, s)
		}
	}
	return orders
}

// oneFOneBOrder builds the PipeDream-Flush order for one stage: a warmup
// of (p-1-s) forwards, a steady 1F1B phase, and a cooldown of backwards.
// GPipe (all forwards then all backwards) is the degenerate case where the
// warmup spans every microbatch; both yield the same makespan, so the
// simulator always uses the 1F1B order and the memory difference is
// handled by internal/memfoot.
func oneFOneBOrder(c Config, stage int) []task {
	warmup := c.Stages - 1 - stage
	if warmup > c.Microbatches {
		warmup = c.Microbatches
	}
	var order []task
	f, b := 0, 0
	for ; f < warmup; f++ {
		order = append(order, task{micro: f})
	}
	for f < c.Microbatches || b < c.Microbatches {
		if f < c.Microbatches {
			order = append(order, task{micro: f})
			f++
		}
		if b < c.Microbatches {
			order = append(order, task{micro: b, backward: true})
			b++
		}
	}
	return order
}

// interleavedOrder builds the interleaved-1F1B order: warmup forwards
// sweep the chunks in order, then steady alternation.
func interleavedOrder(c Config, stage int) []task {
	var fwd []task
	for ch := 0; ch < c.Chunks; ch++ {
		for m := 0; m < c.Microbatches; m++ {
			fwd = append(fwd, task{micro: m, chunk: ch})
		}
	}
	var bwd []task
	for ch := c.Chunks - 1; ch >= 0; ch-- {
		for m := 0; m < c.Microbatches; m++ {
			bwd = append(bwd, task{micro: m, chunk: ch, backward: true})
		}
	}
	// Warmup shrinks with the chunk count: (p-1-s) forwards per chunk
	// boundary, then strict 1F1B alternation.
	warmup := (c.Stages - 1 - stage) + (c.Chunks-1)*c.Stages
	if warmup > len(fwd) {
		warmup = len(fwd)
	}
	var order []task
	order = append(order, fwd[:warmup]...)
	fi, bi := warmup, 0
	for fi < len(fwd) || bi < len(bwd) {
		if fi < len(fwd) {
			order = append(order, fwd[fi])
			fi++
		}
		if bi < len(bwd) {
			order = append(order, bwd[bi])
			bi++
		}
	}
	return order
}

// depReady returns the earliest start allowed by the task's cross-stage
// dependency and whether that dependency has completed.
func depReady(c Config, done []map[task]float64, stage int, tk task) (float64, bool) {
	dep, onStage, exists := dependency(c, stage, tk)
	if !exists {
		return 0, true
	}
	t, ok := done[onStage][dep]
	if !ok {
		return 0, false
	}
	return t + c.XferTime, true
}

// dependency returns the producing task and its stage for the given task.
//
// Forward chunk ch on stage s consumes chunk ch on stage s-1 (or chunk
// ch-1 on the last stage when s == 0, in the interleaved layout where
// chunks wrap around the ring of stages). Backward dependencies mirror
// forward ones.
func dependency(c Config, stage int, tk task) (task, int, bool) {
	if !tk.backward {
		if stage > 0 {
			return task{micro: tk.micro, chunk: tk.chunk}, stage - 1, true
		}
		if tk.chunk > 0 {
			return task{micro: tk.micro, chunk: tk.chunk - 1}, c.Stages - 1, true
		}
		return task{}, 0, false
	}
	// Backward: the same microbatch's forward on this stage must be done —
	// that is ordering within the stage — and the backward of the
	// downstream consumer must have produced the incoming gradient.
	if stage < c.Stages-1 {
		return task{micro: tk.micro, chunk: tk.chunk, backward: true}, stage + 1, true
	}
	if tk.chunk < c.Chunks-1 {
		return task{micro: tk.micro, chunk: tk.chunk + 1, backward: true}, 0, true
	}
	// The last stage's backward of the last chunk starts right after its
	// own forward (ordering handled by the stage serialization).
	return task{micro: tk.micro, chunk: tk.chunk}, stage, true
}
