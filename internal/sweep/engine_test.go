package sweep_test

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"optimus/internal/arch"
	"optimus/internal/memfoot"
	"optimus/internal/model"
	"optimus/internal/sweep"
)

// modelPreset looks up a model preset by name.
func modelPreset(t testing.TB, name string) model.Config {
	t.Helper()
	cfg, err := model.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// bigGrid is a grid large enough (several thousand candidates, all fully
// costed) that a sweep takes tens of milliseconds, so that a run which
// missed its cancellation would show it.
func bigGrid(t testing.TB) sweep.Spec {
	return sweep.Spec{
		Models:        []model.Config{model.GPT175B(), modelPreset(t, "gpt-310b"), modelPreset(t, "gpt-530b")},
		Systems:       []*arch.System{dgx(t, 64), dgx(t, 128), dgx(t, 256)},
		GlobalBatches: []int{64, 128, 256, 512, 1024},
		Seqs:          []int{1024, 2048, 4096, 8192},
		// AllowOverflow forces full costing of every candidate.
		Constraints: sweep.Constraints{AllowOverflow: true, TopK: 10},
	}
}

// cancelAfterCheck is a cancellable context whose first Err call reports
// it live and cancels it. Engine.Run's first call is its check before
// enumeration, so the run passes that check and finds the context
// cancelled from then on, however its goroutines are scheduled.
type cancelAfterCheck struct {
	context.Context
	cancel  context.CancelFunc
	checked atomic.Bool
}

func (c *cancelAfterCheck) Err() error {
	if !c.checked.Swap(true) {
		c.cancel()
		return nil
	}
	return c.Context.Err()
}

// TestCancellationStopsEarly cancels a large sweep once it has started
// and checks it returns promptly, reports the cancellation, and did not
// evaluate the whole grid.
func TestCancellationStopsEarly(t *testing.T) {
	spec := bigGrid(t)
	ctx := &cancelAfterCheck{}
	ctx.Context, ctx.cancel = context.WithCancel(context.Background())
	defer ctx.cancel()
	start := time.Now()
	res, err := sweep.Run(ctx, spec)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	done := res.Stats.Pruned + res.Stats.Evaluated + res.Stats.MemoHits + res.Stats.Errors
	if res.Stats.Enumerated == 0 {
		t.Fatal("nothing enumerated before cancellation")
	}
	if done >= res.Stats.Enumerated {
		t.Errorf("cancellation did not stop the sweep early: %s", res.Stats)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancelled sweep still took %s", elapsed)
	}
	if len(res.Rows) != 0 {
		t.Errorf("cancelled sweep returned %d ranked rows", len(res.Rows))
	}
}

// TestPreCancelledContext returns immediately without costing anything.
func TestPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := sweep.Run(ctx, bigGrid(t))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res.Stats.Evaluated != 0 {
		t.Errorf("pre-cancelled sweep evaluated %d candidates", res.Stats.Evaluated)
	}
}

// TestMemoAcrossRuns re-runs an overlapping grid on a shared engine and
// checks the second pass is answered from the cache.
func TestMemoAcrossRuns(t *testing.T) {
	spec := sweep.Spec{
		Models:        []model.Config{model.GPT22B()},
		Systems:       []*arch.System{dgx(t, 8)},
		GlobalBatches: []int{16},
		Constraints:   sweep.Constraints{AllowOverflow: true, TopK: 1000},
	}
	e := sweep.New(4)
	first, err := e.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.MemoHits != 0 {
		t.Errorf("first run should not hit the cache: %s", first.Stats)
	}
	if e.CacheSize() != first.Stats.Evaluated+first.Stats.Errors {
		t.Errorf("cache holds %d entries, expected %d", e.CacheSize(),
			first.Stats.Evaluated+first.Stats.Errors)
	}
	second, err := e.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.Evaluated != 0 || second.Stats.MemoHits != first.Stats.Enumerated {
		t.Errorf("second run not fully memoized: %s", second.Stats)
	}
	if formatRows(second.Rows) != formatRows(first.Rows) {
		t.Error("memoized ranking diverges from the computed one")
	}
}

// TestMemoStress runs many sweeps over the same grid on one engine at
// once — the -race workout for the memo. Each run evaluates whatever the
// memo lacked as it began, so how the work splits between evaluations and
// hits depends on scheduling; what must not is the ranking, every run's
// account of the whole grid, and one memo entry per candidate afterwards.
func TestMemoStress(t *testing.T) {
	spec := sweep.Spec{
		Models:        []model.Config{model.GPT22B(), model.GPT7B()},
		Systems:       []*arch.System{dgx(t, 8)},
		GlobalBatches: []int{16, 32},
		Constraints:   sweep.Constraints{AllowOverflow: true, TopK: 50},
	}
	e := sweep.New(8)
	const runs = 12
	results := make([]sweep.Result, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = e.Run(context.Background(), spec)
		}(i)
	}
	wg.Wait()
	golden := formatRows(results[0].Rows)
	if golden == "" {
		t.Fatal("empty ranking")
	}
	for i := 0; i < runs; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if got := formatRows(results[i].Rows); got != golden {
			t.Errorf("run %d ranking diverges under contention", i)
		}
		if st := results[i].Stats; st.Evaluated+st.MemoHits+st.Errors+st.Pruned != st.Enumerated {
			t.Errorf("run %d does not account for its grid: %s", i, st)
		}
	}
	if unique := results[0].Stats.Enumerated; e.CacheSize() != unique {
		t.Errorf("memo holds %d entries after the runs, want one per candidate (%d)", e.CacheSize(), unique)
	}
}

// TestCancelledRunKeepsItsEvaluations: a memo engine's run cancelled in
// pass 2 records what it finished, successes and errors, and nothing
// else. The cancellation lands after a delay, so each attempt checks the
// memo against the run's counts; the attempts go on until one was
// cancelled with part of the grid evaluated.
func TestCancelledRunKeepsItsEvaluations(t *testing.T) {
	spec := bigGrid(t)
	start := time.Now()
	full, err := sweep.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	whole := time.Since(start)
	partial := false
	for attempt := 1; attempt <= 8 && !partial; attempt++ {
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(whole*time.Duration(attempt)/9, cancel)
		e := sweep.New(2)
		res, err := e.Run(ctx, spec)
		timer.Stop()
		cancel()
		st := res.Stats
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatal(err)
		}
		if got, want := e.CacheSize(), st.Evaluated+st.Errors; got != want {
			t.Fatalf("attempt %d: memo holds %d entries after %s, want Evaluated+Errors = %d", attempt, got, st, want)
		}
		partial = err != nil && st.Evaluated > 0 && st.Evaluated < full.Stats.Evaluated
	}
	if !partial {
		t.Errorf("no attempt was cancelled part way through pass 2 (an uncancelled run takes %s)", whole)
	}
}

// TestWorkerCountClamped: more workers than candidates must not spawn
// idle goroutines or change results.
func TestWorkerCountClamped(t *testing.T) {
	spec := sweep.Spec{
		Models:        []model.Config{model.GPT7B()},
		Systems:       []*arch.System{dgx(t, 8)},
		GlobalBatches: []int{16},
		Workers:       10000,
		Constraints:   sweep.Constraints{TopK: 5},
	}
	res, err := sweep.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Workers > res.Stats.Enumerated {
		t.Errorf("pool of %d workers for %d candidates", res.Stats.Workers, res.Stats.Enumerated)
	}
}

// TestRepeatedAxisEntriesDeduplicate: a grid that repeats axis entries
// (the same model twice, an equal system value twice, one global batch
// twice, one recompute regime twice) enumerates exactly the candidates
// of its deduplicated axes, and the engine ranks it as Serial does at
// any pool size, pruning included.
func TestRepeatedAxisEntriesDeduplicate(t *testing.T) {
	unique := sweep.Spec{
		Models:        []model.Config{model.GPT175B(), model.GPT22B()},
		Systems:       []*arch.System{dgx(t, 64)},
		GlobalBatches: []int{64},
		Constraints: sweep.Constraints{
			Recomputes: []memfoot.Recompute{memfoot.Selective, memfoot.Full},
			TopK:       1000,
		},
	}
	dup := unique
	dup.Models = []model.Config{model.GPT175B(), model.GPT22B(), model.GPT175B()}
	dup.Systems = []*arch.System{dgx(t, 64), dgx(t, 64)}
	dup.GlobalBatches = []int{64, 64}
	dup.Constraints.Recomputes = []memfoot.Recompute{memfoot.Selective, memfoot.Full, memfoot.Selective}
	// The size of the grid without its repeated entries, pinned.
	const enumerated = 382
	if n, m := len(sweep.Enumerate(dup)), len(sweep.Enumerate(unique)); n != enumerated || m != enumerated {
		t.Fatalf("enumerated %d candidates with repeated entries, %d without; want %d", n, m, enumerated)
	}
	ref, err := sweep.Serial(dup)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Rows) == 0 {
		t.Fatal("empty reference ranking")
	}
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		dup.Workers = workers
		res, err := sweep.Run(context.Background(), dup)
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		if st.Enumerated != enumerated || st.Pruned == 0 || st.Pruned+st.Evaluated+st.MemoHits+st.Errors != st.Enumerated {
			t.Errorf("workers=%d: %s", workers, st)
		}
		if got, want := formatRows(res.Rows), formatRows(ref.Rows); got != want {
			t.Errorf("workers=%d ranking diverges from Serial:\ngot:\n%swant:\n%s", workers, got, want)
		}
	}
}

// TestWarmMemoHitIsNotPruned: on an engine whose memo was loaded with
// every candidate's evaluation, overflowing ones included, a candidate
// the feasibility check would prune is answered from the memo and counts
// as a memo hit: the memo is consulted before the check.
func TestWarmMemoHitIsNotPruned(t *testing.T) {
	spec := sweep.Spec{
		Models:        []model.Config{model.GPT175B()},
		Systems:       []*arch.System{dgx(t, 64)},
		GlobalBatches: []int{64},
		Constraints:   sweep.Constraints{TopK: 1000},
	}
	cold, err := sweep.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.Pruned == 0 {
		t.Fatalf("grid prunes nothing: %s", cold.Stats)
	}
	over := spec
	over.Constraints.AllowOverflow = true
	src := sweep.New(2)
	if _, err := src.Run(context.Background(), over); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.SaveCache(&buf); err != nil {
		t.Fatal(err)
	}
	warm := sweep.New(2)
	if err := warm.LoadCache(&buf); err != nil {
		t.Fatal(err)
	}
	res, err := warm.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Stats; st.Pruned != 0 || st.Evaluated != 0 || st.MemoHits != st.Enumerated || st.Enumerated != cold.Stats.Enumerated {
		t.Errorf("warm run: %s; want every one of %d candidates a memo hit", st, cold.Stats.Enumerated)
	}
	if got, want := formatRows(res.Rows), formatRows(cold.Rows); got != want {
		t.Errorf("warm ranking diverges from the cold one:\ngot:\n%swant:\n%s", got, want)
	}
}

// cancelOnDone is live until its Done channel is first asked for and
// cancelled from then on. Engine.Run checks Err on entry and asks for
// Done as pass 1 begins, so the cancellation lands before the first
// candidate is sifted.
type cancelOnDone struct {
	context.Context
	asked atomic.Bool
}

var closedDone = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

func (c *cancelOnDone) Done() <-chan struct{} {
	c.asked.Store(true)
	return closedDone
}

func (c *cancelOnDone) Err() error {
	if c.asked.Load() {
		return context.Canceled
	}
	return nil
}

// TestCancelInPassOneCountsTheGrid: a run cancelled during pass 1 still
// reports the deduplicated grid size as Enumerated, and after the
// cancellation pass 1 only counts: nothing is pruned or costed.
func TestCancelInPassOneCountsTheGrid(t *testing.T) {
	spec := bigGrid(t)
	spec.Constraints.AllowOverflow = false
	res, err := sweep.Run(&cancelOnDone{Context: context.Background()}, spec)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	st := res.Stats
	if want := len(sweep.Enumerate(spec)); st.Enumerated != want {
		t.Errorf("enumerated %d after cancellation, grid has %d", st.Enumerated, want)
	}
	if st.Pruned+st.Evaluated+st.MemoHits+st.Errors != 0 || len(res.Rows) != 0 {
		t.Errorf("cancelled pass 1 still disposed of candidates: %s, %d rows", st, len(res.Rows))
	}
}
