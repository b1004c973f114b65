package sweep

import (
	"cmp"
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// memoEntry is one cached evaluation. The claiming worker closes done
// after filling m/err; other workers block on done instead of recomputing.
type memoEntry struct {
	done chan struct{}
	m    Metrics
	err  error
}

// Engine evaluates sweeps over a bounded worker pool with a memoization
// cache that persists across Run calls, so repeated (model, system,
// mapping, …) evaluations — within one grid or across successive sweeps —
// are costed once.
type Engine struct {
	workers int

	mu   sync.Mutex
	memo map[string]*memoEntry
}

// New returns an engine with the given pool size; workers <= 0 means
// GOMAXPROCS.
func New(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{workers: workers, memo: make(map[string]*memoEntry)}
}

// CacheSize reports how many evaluations the memo holds.
func (e *Engine) CacheSize() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.memo)
}

// counters aggregates pass 2's statistics across workers.
type counters struct {
	evaluated atomic.Int64
	memoHits  atomic.Int64
	errors    atomic.Int64
}

// survivor is a candidate pass 1 kept for costing: its row (order set to
// its index in its cell, metrics filled by pass 2; Run adds the cell's
// base to the order), the memo entry pass 1 found for it
// (nil when pass 2 must look it up or claim it) and whether pass 2 costed
// it successfully.
type survivor struct {
	row Row
	ent *memoEntry
	ok  bool
}

// blockLen is the allocation unit of a blocks list.
const blockLen = 32

// blocks is an append-only list held in fixed-size blocks, so that
// growing it never copies an element: a doubling slice allocates about
// twice its final length.
type blocks[T any] struct {
	b [][]T
	n int
}

func (l *blocks[T]) add(v T) {
	if l.n%blockLen == 0 {
		l.b = append(l.b, make([]T, blockLen))
	}
	*l.at(l.n) = v
	l.n++
}

func (l *blocks[T]) at(i int) *T {
	return &l.b[i/blockLen][i%blockLen]
}

// sifter is one worker of pass 1: it sifts the cells it claims and keeps,
// in one list, the survivors of all of them.
type sifter struct {
	e    *Engine
	g    *grid
	done <-chan struct{}
	// prune is set when overflowing candidates are dropped anyway, warm
	// when the memo held entries as the run began.
	prune, warm bool
	// stopped is set once the run is cancelled: from then on sift only
	// counts.
	stopped bool
	buf     []byte
	kept    blocks[survivor]
	// out is the account of the cell being sifted.
	out *sifted
}

// sifted is pass 1's account of one cell: the candidates it walked, how
// many were pruned or rejected, and where its survivors sit: count of
// them from index first of kept. base counts the survivors of the cells
// before it.
type sifted struct {
	n, pruned, errors  int
	kept               *blocks[survivor]
	first, count, base int
}

// siftCell is pass 1's loop over one cell: its distinct candidates, each
// sifted into out.
//
//optimus:hotpath
func (f *sifter) siftCell(c *cell, out *sifted) {
	out.kept, out.first = &f.kept, f.kept.n
	f.out = out
	f.g.candidates(c, f.sift)
	out.count = f.kept.n - out.first
}

// sift is pass 1's body for one candidate, numbered by its index in its
// cell. A memoized candidate is kept whatever it would cost, and counts
// as a memo hit in pass 2. Otherwise, when pruning is sound, the
// footprint model decides: an error or an overflow is counted and the
// candidate dropped. The memo is consulted only when it held entries as
// the run began; a run's own evaluations start only in pass 2, and within
// one grid every identity is distinct.
//
//optimus:hotpath
func (f *sifter) sift(p Point) {
	out := f.out
	order := out.n
	out.n++
	if f.stopped || cancelled(f.done) {
		f.stopped = true
		return
	}
	var ent *memoEntry
	if f.warm {
		id := p.ident()
		f.buf = id.appendKey(f.buf[:0])
		f.e.mu.Lock()
		ent = f.e.memo[string(f.buf)]
		f.e.mu.Unlock()
	}
	if ent == nil && f.prune {
		fit, err := Feasible(p)
		if err != nil {
			out.errors++
			return
		}
		if !fit {
			out.pruned++
			return
		}
	}
	f.kept.add(survivor{row: Row{Point: p, order: order}, ent: ent})
}

// survivorAt returns survivor i of the run without copying it: it sits in
// the last cell whose base is at most i.
func survivorAt(cells []sifted, i int) *survivor {
	c, _ := slices.BinarySearchFunc(cells, i+1, func(s sifted, t int) int { return cmp.Compare(s.base, t) })
	out := &cells[c-1]
	return out.kept.at(out.first + i - out.base)
}

// cancelled reports, without blocking, whether done is closed.
func cancelled(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// pool runs work(w) for w in [0, n) on n goroutines and waits for them;
// a pool of one runs on the calling goroutine.
func pool(n int, work func(w int)) {
	if n == 1 {
		work(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for w := 0; w < n; w++ {
		//lint:deterministic every worker writes only its own slots, so rankings and Stats do not depend on scheduling (TestPassOneWorkerInvariance)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	wg.Wait()
}

// Run evaluates the grid and returns the same ranking Serial would
// produce, in two passes over the worker pool. Pass 1 splits the grid
// into its cells (see layout), which workers claim from an atomic cursor
// and sift: each worker walks its cells' distinct candidates and keeps
// those that are memoized or fit device memory (all of them when
// Constraints.AllowOverflow keeps overflowing candidates in the ranking);
// it holds nothing for the rest. A survivor's enumeration order is its
// cell's base, the candidates of the cells before it, plus its index in
// the cell. Pass 2 starts once every cell is sifted and costs the
// survivors where pass 1 left them: workers claim chunks of them from a
// second cursor and write each outcome into that survivor's own slot.
// Neither pass's result depends on scheduling: rankings are Serial's and
// Stats the same at any worker count. On cancellation Run returns ctx.Err()
// alongside the statistics accumulated so far; pass 1 still counts the
// whole grid, so Stats.Enumerated stays the grid size.
func (e *Engine) Run(ctx context.Context, s Spec) (Result, error) {
	start := time.Now() //lint:deterministic wall-clock feeds Stats.Elapsed instrumentation only, never rankings or metrics
	if err := s.Validate(); err != nil {
		return Result{}, err
	}
	// Bail before enumeration: large grids spend real time just being
	// expanded, which a cancelled caller should not pay for.
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	c := s.Constraints.WithDefaults(firstSystem(s))
	workers := e.workers
	if s.Workers > 0 {
		workers = s.Workers
	}

	// Overflowing candidates must still be costed when they are kept in
	// the ranking, so pruning is only sound when they would be dropped.
	cells := e.siftCells(ctx, s.layout(true), workers, !c.AllowOverflow)
	var stats Stats
	kept := 0
	for i := range cells {
		cells[i].base = kept
		kept += cells[i].count
		stats.Enumerated += cells[i].n
		stats.Pruned += cells[i].pruned
		stats.Errors += cells[i].errors
	}
	workers = max(1, min(workers, stats.Enumerated))
	var ct counters
	e.cost(ctx, cells, kept, workers, &ct)
	stats.Evaluated = int(ct.evaluated.Load())
	stats.MemoHits = int(ct.memoHits.Load())
	stats.Errors += int(ct.errors.Load())
	stats.Workers = workers
	stats.Elapsed = time.Since(start) //lint:deterministic instrumentation-only elapsed time, not part of results
	if err := ctx.Err(); err != nil {
		return Result{Stats: stats}, err
	}
	costed := make([]*Row, 0, kept)
	base := 0
	for i := range cells {
		out := &cells[i]
		for j := out.first; j < out.first+out.count; j++ {
			sv := out.kept.at(j)
			sv.row.order += base
			if sv.ok {
				costed = append(costed, &sv.row)
			}
		}
		base += out.n
	}
	stats.Elapsed = time.Since(start) //lint:deterministic instrumentation-only elapsed time, not part of results
	return Result{Rows: rank(costed, c), Stats: stats}, nil
}

// siftCells is pass 1: up to workers goroutines claim g's cells from an
// atomic cursor and sift them. It returns the cells' accounts in cell
// order.
func (e *Engine) siftCells(ctx context.Context, g *grid, workers int, prune bool) []sifted {
	cells := make([]sifted, len(g.cells))
	sifters := make([]sifter, max(1, min(workers, len(cells))))
	warm := e.CacheSize() > 0
	done := ctx.Done()
	var cursor atomic.Int64
	pool(len(sifters), func(w int) {
		f := &sifters[w]
		*f = sifter{e: e, g: g, done: done, prune: prune, warm: warm}
		for i := int(cursor.Add(1)) - 1; i < len(cells); i = int(cursor.Add(1)) - 1 {
			f.siftCell(&g.cells[i], &cells[i])
		}
	})
	return cells
}

// cost is pass 2: up to workers goroutines claim chunks of the kept
// survivors of cells from an atomic cursor until it runs out or ctx is
// cancelled. A chunk is an eighth of a worker's even share, at most 64
// survivors, so claims stay rare without leaving one worker a long tail.
func (e *Engine) cost(ctx context.Context, cells []sifted, kept, workers int, ct *counters) {
	if kept == 0 || ctx.Err() != nil {
		return
	}
	workers = min(workers, kept)
	chunk := min(64, max(1, kept/(8*workers)))
	done := ctx.Done()
	var cursor atomic.Int64
	pool(workers, func(int) {
		// One pooled evaluator per worker: simulator slabs, pricing
		// tables and op buffers survive across the points this goroutine
		// costs (byte-identical to fresh evaluation — see Evaluate).
		ev := newEvaluator()
		var buf []byte
		for {
			hi := int(cursor.Add(int64(chunk)))
			lo := hi - chunk
			if lo >= kept {
				return
			}
			for i := lo; i < min(hi, kept); i++ {
				if cancelled(done) {
					return
				}
				buf = e.settle(ctx, survivorAt(cells, i), ct, ev, buf)
			}
		}
	})
}

// settle costs one survivor through the memo: the entry pass 1 found, or
// the one another run has put in the memo since, is waited on; otherwise
// the survivor claims a new entry and evaluates it. Only full evaluations
// enter the memo — a pruned point costs nothing and decides nothing beyond
// its own run. The key is rendered into buf, which is returned for reuse;
// a lookup does not allocate, only a claim does.
func (e *Engine) settle(ctx context.Context, sv *survivor, ct *counters, ev *evaluator, buf []byte) []byte {
	ent := sv.ent
	if ent == nil {
		id := sv.row.Point.ident()
		buf = id.appendKey(buf[:0])
		e.mu.Lock()
		ent = e.memo[string(buf)]
		if ent == nil {
			ent = &memoEntry{done: make(chan struct{})}
			e.memo[string(buf)] = ent
			e.mu.Unlock()
			ent.m, ent.err = ev.evaluate(sv.row.Point)
			close(ent.done)
			if ent.err != nil {
				ct.errors.Add(1)
				return buf
			}
			ct.evaluated.Add(1)
			sv.row.Metrics, sv.ok = ent.m, true
			return buf
		}
		e.mu.Unlock()
	}
	select {
	case <-ent.done:
	case <-ctx.Done():
		return buf
	}
	// An errored cache entry counts as an error, not a hit, so the stats
	// components stay disjoint (their sum never exceeds Enumerated).
	if ent.err != nil {
		ct.errors.Add(1)
		return buf
	}
	ct.memoHits.Add(1)
	sv.row.Metrics, sv.ok = ent.m, true
	return buf
}

// Run evaluates the grid on a fresh engine — the package-level convenience
// used by the public optimus.Sweep API.
func Run(ctx context.Context, s Spec) (Result, error) {
	return New(s.Workers).Run(ctx, s)
}
