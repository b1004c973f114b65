// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, regenerating the experiment on every iteration and reporting
// its headline metric alongside the model's own evaluation cost, plus
// ablation benchmarks for the design choices DESIGN.md calls out.
//
// Run with: go test -bench=. -benchmem
package optimus

import (
	"context"
	"slices"
	"strconv"
	"testing"

	"optimus/internal/arch"
	"optimus/internal/cluster"
	"optimus/internal/comm"
	"optimus/internal/gemv"
	"optimus/internal/memfoot"
	"optimus/internal/model"
	"optimus/internal/parallel"
	"optimus/internal/repro"
	"optimus/internal/roofline"
	"optimus/internal/serve"
	"optimus/internal/sweep"
	"optimus/internal/tech"
	"optimus/internal/train"
	"optimus/internal/units"
	"optimus/internal/valdata"
)

// benchExperiment regenerates one experiment per iteration.
func benchExperiment(b *testing.B, id string) repro.Table {
	b.Helper()
	var tb repro.Table
	var err error
	for i := 0; i < b.N; i++ {
		tb, err = repro.Run(id)
		if err != nil {
			b.Fatal(err)
		}
	}
	return tb
}

// BenchmarkTable1 regenerates the training validation and reports the mean
// relative error against the published Megatron-LM measurements.
func BenchmarkTable1(b *testing.B) {
	benchExperiment(b, "table1")
	var errs []float64
	for _, c := range valdata.Table1() {
		spec, err := repro.TrainSpecFor(c)
		if err != nil {
			b.Fatal(err)
		}
		res, err := train.Predict(spec)
		if err != nil {
			b.Fatal(err)
		}
		errs = append(errs, units.RelErr(res.Total, c.RefSeconds))
	}
	b.ReportMetric(100*units.Mean(errs), "mean-err-%")
	b.ReportMetric(100*units.Max(errs), "max-err-%")
}

// BenchmarkTable2 regenerates the inference validation.
func BenchmarkTable2(b *testing.B) {
	benchExperiment(b, "table2")
}

// BenchmarkTable4 regenerates the per-GEMM bound analysis.
func BenchmarkTable4(b *testing.B) {
	benchExperiment(b, "table4")
}

// BenchmarkFig3 regenerates the GEMV calibration and reports the clustered
// MAPE (paper: 5.4%).
func BenchmarkFig3(b *testing.B) {
	benchExperiment(b, "fig3")
	o := gemv.NewOracle(42)
	samples := gemv.Profile(o, gemv.LLMKernels())
	cal, err := gemv.Calibrate(samples, 6)
	if err != nil {
		b.Fatal(err)
	}
	st := gemv.Summarize(gemv.Evaluate(o, cal, samples))
	b.ReportMetric(100*st.MAPEClustered, "mape-clustered-%")
	b.ReportMetric(100*st.MAPEConstant, "mape-constant-%")
}

// BenchmarkFig4 regenerates the memory dissection.
func BenchmarkFig4(b *testing.B) {
	benchExperiment(b, "fig4")
}

// BenchmarkFig5 regenerates the GPU-generation scaling and reports the
// A100→B200 speedup (paper: ~35x): the A100-HDR row's per-sample time
// normalized against B200-NVS-L.
func BenchmarkFig5(b *testing.B) {
	tb := benchExperiment(b, "fig5")
	b.ReportMetric(tableCell(b, tb, "normalized", "A100-HDR"), "a100-to-b200-x")
}

// BenchmarkFig6 regenerates the technology-node DSE sweep (42 optimizer
// runs per iteration).
func BenchmarkFig6(b *testing.B) {
	benchExperiment(b, "fig6")
}

// BenchmarkFig7 regenerates the bound-type evolution study.
func BenchmarkFig7(b *testing.B) {
	benchExperiment(b, "fig7")
}

// BenchmarkFig8 regenerates the inference bound-split study.
func BenchmarkFig8(b *testing.B) {
	benchExperiment(b, "fig8")
}

// BenchmarkFig9 regenerates the DRAM-technology scaling study and reports
// the 8-GPU communication-to-memory ratio (paper: ~1.6x for Llama2-13B).
func BenchmarkFig9(b *testing.B) {
	tb := benchExperiment(b, "fig9")
	b.ReportMetric(tableCell(b, tb, "comm/memory", "HBM2e-NV3", "8"), "comm-over-memory")
}

// tableCell parses the numeric cell in column col of the first row of tb
// whose leading cells are key.
func tableCell(b *testing.B, tb repro.Table, col string, key ...string) float64 {
	b.Helper()
	c := slices.Index(tb.Header, col)
	for _, row := range tb.Rows {
		if c >= 0 && slices.Equal(row[:len(key)], key) {
			v, err := strconv.ParseFloat(row[c], 64)
			if err != nil {
				b.Fatal(err)
			}
			return v
		}
	}
	b.Fatalf("%s: no %q cell in a row starting %q", tb.ID, col, key)
	return 0
}

// --- Ablation benchmarks (design choices called out in DESIGN.md) ---

// BenchmarkAblationRingVsTree compares the two all-reduce models on a
// decode-step payload at 8 GPUs: the tree's log-latency term is what lets
// inference scale (§3.4).
func BenchmarkAblationRingVsTree(b *testing.B) {
	link := arch.IntraLink(tech.NVLink3)
	const payload = 10240 // one decode-step activation, bytes
	var ring, tree float64
	for i := 0; i < b.N; i++ {
		ring = comm.AllReduceTime(comm.Ring, payload, 8, link)
		tree = comm.AllReduceTime(comm.DoubleBinaryTree, payload, 8, link)
	}
	b.ReportMetric(ring/tree, "ring-over-tree")
}

// BenchmarkAblationRecompute compares iteration times across the three
// recomputation regimes on the GPT-175B row.
func BenchmarkAblationRecompute(b *testing.B) {
	base, err := repro.TrainSpecFor(valdata.Table1()[1])
	if err != nil {
		b.Fatal(err)
	}
	var none, full train.Result
	for i := 0; i < b.N; i++ {
		spec := base
		spec.Recompute = memfoot.NoRecompute
		none, err = train.Predict(spec)
		if err != nil {
			b.Fatal(err)
		}
		spec.Recompute = memfoot.Full
		full, err = train.Predict(spec)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(full.Total/none.Total, "full-over-none")
}

// BenchmarkAblationSchedules compares pipeline bubbles across GPipe, 1F1B
// and interleaved 1F1B on the GPT-1008B row (PP=64).
func BenchmarkAblationSchedules(b *testing.B) {
	base, err := repro.TrainSpecFor(valdata.Table1()[3])
	if err != nil {
		b.Fatal(err)
	}
	var f1b1, il train.Result
	for i := 0; i < b.N; i++ {
		spec := base
		spec.Map.Schedule = parallel.OneFOneB
		f1b1, err = train.Predict(spec)
		if err != nil {
			b.Fatal(err)
		}
		spec.Map.Schedule = parallel.Interleaved1F1B
		spec.Map.VirtualStages = 2
		il, err = train.Predict(spec)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(f1b1.Bubble/il.Bubble, "bubble-1f1b-over-interleaved")
}

// BenchmarkAblationHierarchicalRoofline compares the hierarchical roofline
// against a flat (DRAM-only) one on the Table 4 QKV GEMM: the flat model
// is the DeepFlow behaviour §5.3 criticizes.
func BenchmarkAblationHierarchicalRoofline(b *testing.B) {
	full := roofline.New(arch.A100())
	flat := arch.A100()
	flat.Mem = flat.Mem[2:] // drop L1/L2: DRAM-only roofline
	flatEng := roofline.New(flat)
	g := roofline.GEMM{M: 200, N: 3 * 5120, K: 5120, Precision: tech.FP16}
	var h, f roofline.Estimate
	for i := 0; i < b.N; i++ {
		h = full.EstimateGEMM(g)
		f = flatEng.EstimateGEMM(g)
	}
	b.ReportMetric(h.Time/f.Time, "hier-over-flat")
}

// BenchmarkAblationSequenceParallel measures the SP gain on the 175B
// selective-recompute row.
func BenchmarkAblationSequenceParallel(b *testing.B) {
	base, err := repro.TrainSpecFor(valdata.Table1()[5])
	if err != nil {
		b.Fatal(err)
	}
	var off, on train.Result
	for i := 0; i < b.N; i++ {
		spec := base
		spec.Map.SP = false
		off, err = train.Predict(spec)
		if err != nil {
			b.Fatal(err)
		}
		spec.Map.SP = true
		on, err = train.Predict(spec)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(off.Total/on.Total, "nosp-over-sp")
}

// BenchmarkAblationGEMVCalibration compares clustered vs constant DRAM
// utilization factors (Fig. 3's two point sets).
func BenchmarkAblationGEMVCalibration(b *testing.B) {
	o := gemv.NewOracle(42)
	samples := gemv.Profile(o, gemv.LLMKernels())
	var st gemv.Stats
	for i := 0; i < b.N; i++ {
		cal, err := gemv.Calibrate(samples, 6)
		if err != nil {
			b.Fatal(err)
		}
		st = gemv.Summarize(gemv.Evaluate(o, cal, samples))
	}
	b.ReportMetric(st.MAPEConstant/st.MAPEClustered, "constant-over-clustered-err")
}

// BenchmarkPredictTraining measures the raw cost of one training
// prediction (the DSE inner loop).
func BenchmarkPredictTraining(b *testing.B) {
	spec, err := repro.TrainSpecFor(valdata.Table1()[1])
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := train.Predict(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictInference measures the raw cost of one inference
// prediction.
func BenchmarkPredictInference(b *testing.B) {
	spec, err := repro.InferSpecFor("Llama2-13B", 2, arch.A100(), tech.NVLink3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := infer0(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// infer0 keeps the infer import local to the benchmark file tidy.
func infer0(s InferSpec) (InferResult, error) { return PredictInference(s) }

// BenchmarkRooflineGEMM measures the kernel-model hot path.
func BenchmarkRooflineGEMM(b *testing.B) {
	eng := roofline.New(arch.A100())
	g := roofline.GEMM{M: 2048, N: 6144, K: 12288, Precision: tech.BF16}
	for i := 0; i < b.N; i++ {
		eng.EstimateGEMM(g)
	}
}

// BenchmarkMemoryFootprint measures the footprint model.
func BenchmarkMemoryFootprint(b *testing.B) {
	cfg, err := model.ByName("gpt-530b")
	if err != nil {
		b.Fatal(err)
	}
	spec := memfoot.TrainSpec{
		Model: cfg,
		Map: parallel.Mapping{
			DP: 1, TP: 8, PP: 35, Microbatch: 1, Schedule: parallel.OneFOneB,
		},
		Seq: 2048, GlobalBatch: 280, Recompute: memfoot.Selective,
	}
	for i := 0; i < b.N; i++ {
		if _, err := memfoot.Train(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// sweepBenchSpec is a ~500-candidate plan-sweep grid: GPT-175B on 64
// A100s at two global batch sizes. It is memory-tight — most candidates
// overflow the device — so it exercises both the engine's feasibility
// pruning and the full costing path.
func sweepBenchSpec(b *testing.B) sweep.Spec {
	b.Helper()
	sys, err := arch.DGXA100(64)
	if err != nil {
		b.Fatal(err)
	}
	return sweep.Spec{
		Models:        []model.Config{model.GPT175B()},
		Systems:       []*arch.System{sys},
		GlobalBatches: []int{64, 128},
		Constraints:   sweep.Constraints{TopK: 10},
	}
}

// sweepPlanSpec is the bench's sweep-train-plan grid: GPT-175B and
// GPT-530B on 64 and 128 A100s at three global batch sizes, 2,121
// candidates of which about 93% overflow device memory and are pruned,
// every survivor ranked.
func sweepPlanSpec(tb testing.TB) sweep.Spec {
	tb.Helper()
	spec := sweep.Spec{
		GlobalBatches: []int{64, 128, 256},
		Constraints:   sweep.Constraints{TopK: 100000},
	}
	for _, name := range []string{"gpt-175b", "gpt-530b"} {
		cfg, err := ModelByName(name)
		if err != nil {
			tb.Fatal(err)
		}
		spec.Models = append(spec.Models, cfg)
	}
	for _, n := range []int{64, 128} {
		sys, err := NewSystem("a100", n, "nvlink3", "hdr")
		if err != nil {
			tb.Fatal(err)
		}
		spec.Systems = append(spec.Systems, sys)
	}
	return spec
}

// sweepServeSpec is the bench's sweep-serve-cached grid: Llama2-13B on one
// and two H100s × rates {1, 4, 8} × batch caps {0, 16} × the three
// admission policies × prefixes {0, 64} × fleets {0, 2} × {round-robin,
// least-kv}, 128 requests per candidate, 144 distinct candidates (the walk
// visits more: canonicalization merges the knobs a policy ignores).
func sweepServeSpec(tb testing.TB) sweep.Spec {
	tb.Helper()
	spec := sweep.Spec{
		Workload:      sweep.Serving,
		Models:        []model.Config{model.Llama2_13B()},
		Rates:         []float64{1, 4, 8},
		BatchCaps:     []int{0, 16},
		Policies:      []serve.Policy{serve.ReserveFull, serve.Paged, serve.Disaggregated},
		PrefixTokens:  []int{0, 64},
		Replicas:      []int{0, 2},
		Routings:      []cluster.Routing{cluster.RoundRobin, cluster.LeastKV},
		ServeRequests: 128,
		ServeSeed:     1,
		Constraints:   sweep.Constraints{TopK: 100000},
	}
	for _, n := range []int{1, 2} {
		sys, err := NewSystem("h100", n, "nvlink4", "ndr")
		if err != nil {
			tb.Fatal(err)
		}
		spec.Systems = append(spec.Systems, sys)
	}
	return spec
}

// TestSweepEngineAllocBudget pins the sweep engine's memory to the
// candidates that survive pruning: bytes and allocations per enumerated
// candidate of a run, on a pool of four workers, so that the count does
// not follow the host's core count.
//
//   - plan: the package-level Run over a pruning-heavy training grid.
//     Pass 1 holds nothing for a pruned training candidate, not even an
//     identity, and builds each candidate in one scratch point per
//     worker; pass 2 predicts through per-worker Predictors, which price
//     each layer shape once and keep it in an inline table, and, with no
//     memo to fill, renders no key. Measured 130 bytes and 0.10
//     allocations per candidate (136 and 0.116 under -race), most of both
//     in the survivors' rows and the ranking; the budgets leave 30%
//     headroom. Pricing every survivor's layer afresh took 140 bytes and
//     0.23 allocations (the previous budgets were 185 and 0.3); a memo
//     entry, channel and key per survivor 184 bytes and 0.45
//     allocations; an identity set over the grid (232 bytes a candidate
//     plus its table) or rejected mappings formatting an error each
//     break the budgets.
//   - serving-warm: a held engine whose memo already holds the whole
//     serving grid, so every candidate is a memo hit and the run is
//     pass 1's walk, sifting and ranking. Measured 2,168 bytes and 1.17
//     allocations per candidate (2,180 and 1.22 under -race) before
//     candidates were built in place, 2,104 and 1.09 after; the budgets
//     are the former. A walk that lets each serving candidate escape
//     adds one 480-byte allocation per candidate visited, 216 of them:
//     it measured 2,863 bytes and 2.63 allocations.
//   - serving-cold: the package-level Run over the same serving grid,
//     with no memo, so all 144 candidates that survive pruning are
//     simulated, per bytes and allocations per evaluated candidate. Each
//     worker's serving and fleet Runners keep their ledgers from one
//     candidate to the next, and the workload draws recycle their
//     generators: measured 9,386 bytes and 31.6 allocations (13,080
//     and 36.0 under -race, whose budget is scaled by raceBytes). A
//     ledger per candidate adds 128 × 128 bytes: before the Runners kept
//     theirs, it measured 60,036 bytes and 47.1 allocations.
func TestSweepEngineAllocBudget(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		spec sweep.Spec
		warm bool
		// perEvaluated divides by the evaluated candidates, not the
		// enumerated ones.
		perEvaluated bool
		bytesBudget  float64
		allocsBudget float64
	}{
		{name: "plan", spec: sweepPlanSpec(t), bytesBudget: 170, allocsBudget: 0.13},
		{name: "serving-warm", spec: sweepServeSpec(t), warm: true, bytesBudget: 2200, allocsBudget: 1.25},
		{name: "serving-cold", spec: sweepServeSpec(t), perEvaluated: true, bytesBudget: 12e3 * raceBytes(), allocsBudget: 45},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := tc.spec
			spec.Workers = 4
			run := func() (sweep.Result, error) { return sweep.Run(ctx, spec) }
			if tc.warm {
				e := sweep.New(spec.Workers)
				if _, err := e.Run(ctx, spec); err != nil {
					t.Fatal(err)
				}
				run = func() (sweep.Result, error) { return e.Run(ctx, spec) }
			}
			perBytes, perAllocs, st := sweepAllocs(t, run)
			per, n := "enumerated", st.Enumerated
			if tc.perEvaluated {
				per, n = "evaluated", st.Evaluated
			}
			perBytes *= float64(st.Enumerated) / float64(n)
			perAllocs *= float64(st.Enumerated) / float64(n)
			if perBytes > tc.bytesBudget || perAllocs > tc.allocsBudget {
				t.Errorf("%.0f bytes and %.2f allocs per %s candidate over %d candidates; budget %.0f bytes and %v allocs",
					perBytes, perAllocs, per, n, tc.bytesBudget, tc.allocsBudget)
			}
		})
	}
}

// TestSweepPrunedGridHeapBound: a training grid of 205,056 candidates on
// devices too small for any of them allocates a few bytes per enumerated
// candidate, for its cells alone. Pass 1 keeps no state per training
// candidate, so the heap a sweep needs follows its survivors, not its
// grid. Measured 2.6 bytes per candidate; an identity set over the grid
// takes 281.
func TestSweepPrunedGridHeapBound(t *testing.T) {
	const bytesBudget = 8
	dev := arch.A100()
	// Below FitsDevice's 2 GB reserve: no candidate fits.
	dev.Mem[len(dev.Mem)-1].Capacity = 1e9
	sys, err := arch.SystemOf(dev, 64, 8, tech.NVLink3, tech.IBHDR)
	if err != nil {
		t.Fatal(err)
	}
	spec := sweep.Spec{
		Models:        []model.Config{model.GPT175B()},
		Systems:       []*arch.System{sys},
		GlobalBatches: []int{64, 128, 256, 512, 1024},
		Workers:       4,
	}
	for seq := 1024; seq < 1024+128; seq++ {
		spec.Seqs = append(spec.Seqs, seq)
	}
	perBytes, _, st := sweepAllocs(t, func() (sweep.Result, error) { return sweep.Run(context.Background(), spec) })
	if st.Enumerated < 100000 {
		t.Fatalf("grid of %d candidates, want at least 10⁵", st.Enumerated)
	}
	if perBytes > bytesBudget {
		t.Errorf("%.1f bytes per enumerated candidate over %d pruned candidates; budget %d", perBytes, st.Enumerated, bytesBudget)
	}
}

// sweepAllocs runs a sweep and returns the bytes and allocations per
// enumerated candidate of one run, and the run's Stats. Every candidate
// must be pruned, costed or a memo hit.
func sweepAllocs(t *testing.T, run func() (sweep.Result, error)) (perBytes, perAllocs float64, st sweep.Stats) {
	t.Helper()
	allocs, bytes := allocsPerRun(5, func() {
		res, err := run()
		if err != nil {
			t.Fatal(err)
		}
		st = res.Stats
	})
	if st.Enumerated == 0 || st.Pruned+st.Evaluated+st.MemoHits != st.Enumerated {
		t.Fatalf("unexpected sweep: %s", st)
	}
	n := float64(st.Enumerated)
	return bytes / n, allocs / n, st
}

// BenchmarkSweepSerial is the golden reference path: every candidate is
// costed with the full training predictor, one at a time.
func BenchmarkSweepSerial(b *testing.B) {
	spec := sweepBenchSpec(b)
	var res sweep.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = sweep.Serial(spec)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Stats.Enumerated), "candidates")
	b.ReportMetric(float64(res.Stats.Evaluated), "costed")
}

// BenchmarkSweepParallel is the concurrent engine on the same grid,
// through the one-shot package-level Run: bounded worker pool plus
// memory-feasibility pruning before costing, and no memo to fill. Its
// ranking is byte-identical to the serial path's (asserted by the
// internal/sweep equivalence tests); the speedup is the headline number
// later PRs must not regress.
func BenchmarkSweepParallel(b *testing.B) {
	spec := sweepBenchSpec(b)
	ctx := context.Background()
	var res sweep.Result
	var err error
	for i := 0; i < b.N; i++ {
		// A fresh one-shot engine per iteration: the speedup measured
		// here is pruning + the pool, not cache reuse.
		res, err = sweep.Run(ctx, spec)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Stats.Enumerated), "candidates")
	b.ReportMetric(float64(res.Stats.Pruned), "pruned")
}

// BenchmarkSweepWarmCache re-runs the grid on one engine whose memo
// already holds every evaluation — the steady state of a long planning
// session, and the target the cross-run result cache must hold.
func BenchmarkSweepWarmCache(b *testing.B) {
	spec := sweepBenchSpec(b)
	ctx := context.Background()
	e := sweep.New(0)
	if _, err := e.Run(ctx, spec); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(ctx, spec); err != nil {
			b.Fatal(err)
		}
	}
}
