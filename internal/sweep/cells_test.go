package sweep

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
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
	for i := range g.cells {
		g.walk(&g.cells[i], visit)
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
		ent := &memoEntry{done: make(chan struct{})}
		ent.m, ent.err = Evaluate(p)
		close(ent.done)
		e.memo[p.Key()] = ent
	}
	return e
}

// TestPassOneWorkerInvariance: pass 1 spreads the cells over the pool, and
// neither the rankings nor any Stats count may depend on it. For a
// training, an inference and a serving grid, on a cold engine and on one
// whose memo holds half the grid, every worker count ranks byte for byte
// as Serial does and reports the same counts.
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
	for name, spec := range cases {
		spec.Constraints.TopK = 1000
		ref, err := Serial(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, warm := range []bool{false, true} {
			var want Stats
			for i, workers := range []int{1, 2, 3, 7, runtime.GOMAXPROCS(0)} {
				e := New(0)
				if warm {
					e = warmEngine(t, spec)
				}
				spec.Workers = workers
				res, err := e.Run(context.Background(), spec)
				if err != nil {
					t.Fatal(err)
				}
				what := fmt.Sprintf("%s warm=%v workers=%d", name, warm, workers)
				st := res.Stats
				st.Workers, st.Elapsed = 0, 0
				if i == 0 {
					want = st
				} else if st != want {
					t.Errorf("%s: %+v, at one worker %+v", what, st, want)
				}
				if st.Enumerated != ref.Stats.Enumerated || st.Pruned+st.Evaluated+st.MemoHits+st.Errors != st.Enumerated ||
					warm != (st.MemoHits > 0) {
					t.Errorf("%s: %s against Serial's %s", what, res.Stats, ref.Stats)
				}
				if !reflect.DeepEqual(res.Rows, ref.Rows) {
					t.Errorf("%s: ranking diverges from Serial's", what)
				}
			}
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
