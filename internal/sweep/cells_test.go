package sweep

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"optimus/internal/arch"
	"optimus/internal/memfoot"
	"optimus/internal/model"
	"optimus/internal/parallel"
	"optimus/internal/serve"
	"optimus/internal/tech"
)

// each is the raw walk: every cell of the layout that keeps repeated axis
// entries, duplicates included, with no identity set in any cell.
func each(s Spec, visit func(Point)) {
	g := s.layout(false)
	var p Point
	for i := range g.cells {
		g.walk(&g.cells[i], &p, func(p *Point) { visit(*p) })
	}
}

// rawDedupKeys is the reference enumeration: the raw walk deduplicated on
// Point.Key strings, first occurrences kept.
func rawDedupKeys(s Spec) []string {
	seen := make(map[string]bool)
	var keys []string
	each(s, func(p Point) {
		if k := p.Key(); !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	})
	return keys
}

// repeatedGrids repeat every axis entry of a training, an inference and a
// serving grid: models with equal tokens (the same value twice, and an
// equal copy), equal but distinct *arch.System values, and a repeat of
// every other axis each of the three kinds reads.
func repeatedGrids(t *testing.T) map[string]Spec {
	t.Helper()
	base := trainSpec0(t)
	cfg, sys := base.Models[0], base.Systems[0]
	cfgCopy, sysCopy := cfg, *sys
	train := base
	train.Models = []model.Config{cfg, cfgCopy}
	train.Systems = []*arch.System{sys, &sysCopy}
	train.Precisions = []tech.Precision{tech.BF16, tech.BF16}
	train.GlobalBatches = []int{8, 8}
	train.Seqs = []int{1024, 1024}
	train.Constraints.Microbatches = []int{1, 2, 1}
	train.Constraints.Schedules = []parallel.Schedule{parallel.OneFOneB, parallel.Interleaved1F1B, parallel.OneFOneB}
	train.Constraints.Recomputes = []memfoot.Recompute{memfoot.Selective, memfoot.Full, memfoot.Selective}

	infer := train
	infer.Workload = Inference
	infer.Precisions = []tech.Precision{tech.FP16, tech.FP16}
	infer.GlobalBatches, infer.Seqs, infer.GenTokens = []int{1, 4, 1}, []int{128, 128}, []int{0, 64, 0}
	infer.Constraints = Constraints{TopK: 10}

	serve0 := servingSpec0(t)
	scfg, ssys := serve0.Models[0], serve0.Systems[1]
	ssysCopy := *ssys
	serving := serve0
	serving.Models = []model.Config{scfg, scfg}
	serving.Systems = []*arch.System{ssys, &ssysCopy, ssys}
	serving.Precisions = []tech.Precision{tech.FP16, tech.FP16}
	serving.Rates = []float64{0.5, 2, 0.5}
	serving.Policies = []serve.Policy{serve.ReserveFull, serve.Paged, serve.ReserveFull}
	serving.PrefixTokens = []int{0, 64, 0}
	serving.Seqs, serving.GenTokens = []int{200, 200}, []int{100, 100}
	serving.ServeRequests = 8
	return map[string]Spec{"training-repeated": train, "inference-repeated": infer, "serving-repeated": serving}
}

// TestEnumerateMatchesRawDedup guards the claim that lets training and
// inference cells keep no identity set: once models and systems are
// deduplicated by token and the integer axes by value, their walks are
// injective. On every grid of TestIdentMatchesKey and on grids that
// repeat every axis, Enumerate lists exactly the raw walk's first
// occurrences of each Key, in order, and Engine.Run counts as many.
func TestEnumerateMatchesRawDedup(t *testing.T) {
	grids := identGrids(t)
	for name, spec := range repeatedGrids(t) {
		grids[name] = spec
	}
	for name, spec := range grids {
		if err := spec.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := rawDedupKeys(spec)
		var got []string
		for _, p := range Enumerate(spec) {
			got = append(got, p.Key())
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: Enumerate lists %d candidates, the deduplicated raw walk %d", name, len(got), len(want))
			continue
		}
		res, err := New(2).Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Stats.Enumerated != len(want) {
			t.Errorf("%s: Run enumerated %d, the deduplicated raw walk has %d", name, res.Stats.Enumerated, len(want))
		}
	}
	// The repeated grids do repeat: their raw walks visit duplicates.
	for name, spec := range repeatedGrids(t) {
		raw := 0
		each(spec, func(Point) { raw++ })
		if n := len(Enumerate(spec)); raw <= n {
			t.Errorf("%s: raw walk of %d candidates has no duplicates", name, raw)
		}
	}
}

// warmEngine returns an engine whose memo holds the evaluation of every
// other candidate of spec, as a loaded cache would.
func warmEngine(t *testing.T, spec Spec) *Engine {
	t.Helper()
	e := New(0)
	for i, p := range Enumerate(spec) {
		if i%2 != 0 {
			continue
		}
		ent := new(memoEntry)
		ent.m, ent.err = Evaluate(p)
		e.memo[p.Key()] = ent
	}
	return e
}

// TestPassOneWorkerInvariance: pass 1 spreads the cells over the pool, and
// neither the rankings nor any Stats count may depend on it. For a
// training, an inference and a serving grid, on a cold engine, on one
// whose memo holds half the grid and through the package-level Run (whose
// engine keeps no memo), every worker count ranks byte for byte as Serial
// does and reports the same counts; Run reports a cold engine's.
func TestPassOneWorkerInvariance(t *testing.T) {
	grids := identGrids(t)
	cases := map[string]Spec{"training": grids["training"], "inference": grids["inference"], "serving": grids["policies"]}
	// A grid that prunes, so pass 1 drops candidates as well as keeping
	// them.
	pruning := trainSpec0(t)
	pruning.Models = []model.Config{model.GPT175B()}
	pruning.Systems = []*arch.System{mustDGX(t, 64)}
	pruning.GlobalBatches = []int{64, 128}
	pruning.Constraints.TopK = 1000
	cases["training-pruned"] = pruning
	modes := []string{"cold", "warm", "one-shot"}
	for name, spec := range cases {
		spec.Constraints.TopK = 1000
		ref, err := Serial(spec)
		if err != nil {
			t.Fatal(err)
		}
		var cold Stats
		for _, mode := range modes {
			var want Stats
			for i, workers := range []int{1, 2, 3, 7, runtime.GOMAXPROCS(0)} {
				spec.Workers = workers
				var res Result
				switch mode {
				case "cold":
					res, err = New(0).Run(context.Background(), spec)
				case "warm":
					res, err = warmEngine(t, spec).Run(context.Background(), spec)
				default:
					res, err = Run(context.Background(), spec)
				}
				if err != nil {
					t.Fatal(err)
				}
				what := fmt.Sprintf("%s %s workers=%d", name, mode, workers)
				st := res.Stats
				st.Workers, st.Elapsed = 0, 0
				if i == 0 {
					want = st
				} else if st != want {
					t.Errorf("%s: %+v, at one worker %+v", what, st, want)
				}
				if st.Enumerated != ref.Stats.Enumerated || st.Pruned+st.Evaluated+st.MemoHits+st.Errors != st.Enumerated ||
					(mode == "warm") != (st.MemoHits > 0) {
					t.Errorf("%s: %s against Serial's %s", what, res.Stats, ref.Stats)
				}
				if mode == "cold" && i == 0 {
					cold = st
				}
				if mode == "one-shot" && st != cold {
					t.Errorf("%s: %+v, a cold engine's %+v", what, st, cold)
				}
				if !reflect.DeepEqual(res.Rows, ref.Rows) {
					t.Errorf("%s: ranking diverges from Serial's", what)
				}
			}
		}
	}
}

// TestHeldEngineMemoizes: the package-level Run keeps no memo, and that
// must not reach an engine a caller holds. A cold Run on an engine from
// New puts every evaluation in its memo, and a second Run answers them
// all from it.
func TestHeldEngineMemoizes(t *testing.T) {
	grids := identGrids(t)
	for _, name := range []string{"training", "inference", "policies"} {
		spec := grids[name]
		e := New(2)
		res, err := e.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Errors != 0 {
			t.Fatalf("%s: %s; an errored evaluation enters the memo too", name, res.Stats)
		}
		if res.Stats.Evaluated == 0 || e.CacheSize() != res.Stats.Evaluated {
			t.Errorf("%s: cold run evaluated %d, memo holds %d", name, res.Stats.Evaluated, e.CacheSize())
		}
		again, err := e.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if again.Stats.Evaluated != 0 || again.Stats.MemoHits != res.Stats.Evaluated {
			t.Errorf("%s: second run %s, want every evaluation a memo hit", name, again.Stats)
		}
	}
}

func mustDGX(t *testing.T, gpus int) *arch.System {
	t.Helper()
	sys, err := arch.DGXA100(gpus)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestFeasibleMatchesFootprint: pass 1 works the per-cell parts of the
// feasibility check out once per cell, and that must not change a
// verdict or an error. Over a grid of two models on two systems whose
// devices differ in memory, Feasible agrees candidate by candidate with
// memfoot.Train against the device's capacity, and the engine prunes
// exactly the candidates it rejects, at one worker and at several. A
// candidate with an invalid model, mapping or sequence length reports
// memfoot.Train's error, in its order: the model's, the mapping's, the
// sequence length's.
func TestFeasibleMatchesFootprint(t *testing.T) {
	small := arch.A100()
	small.Mem[len(small.Mem)-1].Capacity /= 2
	smallSys, err := arch.SystemOf(small, 64, 8, tech.NVLink3, tech.IBHDR)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		Models:        []model.Config{model.GPT175B(), model.GPT22B()},
		Systems:       []*arch.System{mustDGX(t, 64), smallSys},
		GlobalBatches: []int{64, 128},
		Constraints:   Constraints{TopK: 1000},
	}
	footprint := func(p Point) (bool, error) {
		bd, err := memfoot.Train(memfoot.TrainSpec{
			Model: p.Model, Map: p.Map, Seq: p.Seq, GlobalBatch: p.GlobalBatch, Recompute: p.Recompute,
		})
		return err == nil && memfoot.FitsDevice(bd, p.System.Device.DRAMCapacity()), err
	}
	points := Enumerate(spec)
	pruned := 0
	for _, p := range points {
		fit, err := Feasible(p)
		want, werr := footprint(p)
		if fit != want || fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Fatalf("%s: Feasible %v, %v; footprint %v, %v", p.Key(), fit, err, want, werr)
		}
		if !fit {
			pruned++
		}
	}
	if pruned == 0 || pruned == len(points) {
		t.Fatalf("%d of %d candidates pruned; the grid must prune some and keep some", pruned, len(points))
	}
	for _, workers := range []int{1, 3} {
		spec.Workers = workers
		res, err := Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Pruned != pruned || res.Stats.Errors != 0 {
			t.Errorf("workers=%d: %s; Feasible rejects %d", workers, res.Stats, pruned)
		}
	}

	// The walk yields only valid mappings, so pass 1 does not check them;
	// Feasible, given any point, still does.
	for _, tc := range []struct {
		name, want string
		edit       func(*Point)
	}{
		{"invalid model and mapping", "kv-heads", func(p *Point) { p.Model.KVHeads, p.Map.DP = 0, 0 }},
		{"invalid mapping", "non-positive degrees", func(p *Point) { p.Map.DP = 0 }},
		{"indivisible batch", "not divisible by DP", func(p *Point) { p.GlobalBatch++ }},
		{"invalid mapping and sequence", "non-positive degrees", func(p *Point) { p.Map.DP, p.Seq = 0, 0 }},
		{"invalid sequence", "sequence length", func(p *Point) { p.Seq = 0 }},
	} {
		bad := points[0]
		tc.edit(&bad)
		fit, err := Feasible(bad)
		_, werr := footprint(bad)
		if fit || err == nil || werr == nil || err.Error() != werr.Error() || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Feasible %v, %v; memfoot.Train %v", tc.name, fit, err, werr)
		}
	}
}
