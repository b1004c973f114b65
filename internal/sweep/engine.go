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

// memoEntry is one finished evaluation: the memo holds nothing else, and
// an entry never changes once it is in.
type memoEntry struct {
	m   Metrics
	err error
}

// Engine evaluates sweeps over a bounded worker pool with a memoization
// cache that persists across Run calls, so repeated (model, system,
// mapping, …) evaluations across successive sweeps are costed once.
// Runs may overlap on one engine: each is race-free and ranks as it would
// alone, but evaluates whatever the memo lacked as it began, so a
// candidate two overlapping Runs share may be evaluated by both; the
// first to record it keeps its entry.
type Engine struct {
	workers int

	mu sync.Mutex
	// memo is nil on the engine of the package-level Run, which no caller
	// can reach once Run returns: it evaluates every survivor directly.
	memo map[string]*memoEntry
}

// New returns an engine with the given pool size; workers <= 0 means
// GOMAXPROCS.
func New(workers int) *Engine {
	e := oneShot(workers)
	e.memo = make(map[string]*memoEntry)
	return e
}

// oneShot returns an engine without a memo, for a single Run.
func oneShot(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{workers: workers}
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
// base to the order), the memo entry pass 1 found for it (nil when pass 2
// must evaluate it) and pass 2's outcome: ok once it is costed, err when
// its evaluation failed. A survivor neither ok nor failed was not reached
// before a cancellation, or hit an errored memo entry.
type survivor struct {
	row Row
	ent *memoEntry
	err error
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
	*l.next() = v
}

// next appends a zero element and returns it, to be filled in place.
func (l *blocks[T]) next() *T {
	if l.n%blockLen == 0 {
		l.b = append(l.b, make([]T, blockLen))
	}
	l.n++
	return l.at(l.n - 1)
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
	// out is the account of the cell being sifted and fit its footprint
	// check; p is the scratch point the cell walk fills for each candidate.
	out *sifted
	fit footprintCheck
	p   Point
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
	f.fit = checkFor(&f.g.s.Models[c.model], f.g.s.Systems[c.system])
	f.g.candidates(c, &f.p, f.sift)
	out.count = f.kept.n - out.first
}

// sift is pass 1's body for one candidate, numbered by its index in its
// cell. A memoized candidate is kept whatever it would cost, and counts
// as a memo hit in pass 2. Otherwise, when pruning is sound, the
// footprint model decides: an error or an overflow is counted and the
// candidate dropped. A survivor is copied once, from the walk's scratch
// point into its slot of kept. The memo is consulted only when it held
// entries as the run began; a run's own evaluations enter it only after
// pass 2, and within one grid every identity is distinct.
//
//optimus:hotpath
func (f *sifter) sift(p *Point) {
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
		fit, err := f.fit.feasible(p)
		if err != nil {
			out.errors++
			return
		}
		if !fit {
			out.pruned++
			return
		}
	}
	sv := f.kept.next()
	sv.row.Point, sv.row.order, sv.ent = *p, order, ent
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
// second cursor and write each outcome into that survivor's own slot
// (settle). An engine with a memo then records what pass 2 evaluated
// (record), also when the run was cancelled. Neither pass's result
// depends on scheduling: rankings are Serial's and Stats the same at any
// worker count. On cancellation Run returns ctx.Err() alongside the
// statistics accumulated so far; pass 1 still counts the whole grid, so
// Stats.Enumerated stays the grid size.
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
	cost(ctx, cells, kept, workers, &ct)
	if e.memo != nil {
		e.record(cells)
	}
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
func cost(ctx context.Context, cells []sifted, kept, workers int, ct *counters) {
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
		var ev evaluator
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
				settle(survivorAt(cells, i), ct, &ev)
			}
		}
	})
}

// settle is pass 2's body for one survivor: it copies the memo entry
// pass 1 found, or evaluates the survivor in its own row. It renders no
// key and takes no lock; an engine with a memo records the evaluation
// once pass 2 is over.
//
//optimus:hotpath
func settle(sv *survivor, ct *counters, ev *evaluator) {
	if ent := sv.ent; ent != nil {
		// An errored cache entry counts as an error, not a hit, so the
		// stats components stay disjoint (their sum never exceeds
		// Enumerated).
		if ent.err != nil {
			ct.errors.Add(1)
			return
		}
		ct.memoHits.Add(1)
		sv.row.Metrics, sv.ok = ent.m, true
		return
	}
	m, err := ev.evaluate(&sv.row.Point)
	if err != nil {
		sv.err = err
		ct.errors.Add(1)
		return
	}
	ct.evaluated.Add(1)
	sv.row.Metrics, sv.ok = m, true
}

// record enters every survivor pass 2 evaluated, errors included, in the
// memo, under one lock. An entry already there wins, as in LoadCache: it
// came from a load or an overlapping Run. Only evaluations enter the memo
// — a pruned point costs nothing and decides nothing beyond its own run.
func (e *Engine) record(cells []sifted) {
	var buf []byte
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range cells {
		out := &cells[i]
		for j := out.first; j < out.first+out.count; j++ {
			sv := out.kept.at(j)
			if sv.ent != nil || !sv.ok && sv.err == nil {
				continue // a memo hit, or not reached before a cancellation
			}
			id := sv.row.Point.ident()
			buf = id.appendKey(buf[:0])
			if _, ok := e.memo[string(buf)]; !ok {
				e.memo[string(buf)] = &memoEntry{m: sv.row.Metrics, err: sv.err}
			}
		}
	}
}

// Run evaluates the grid on a fresh engine that keeps no memo — the
// package-level convenience used by the public optimus.Sweep API. No
// caller can run that engine again, and within one grid every identity
// is distinct, so a memo could never hit: pass 2 runs as on any engine,
// and nothing is recorded, so no key is rendered.
func Run(ctx context.Context, s Spec) (Result, error) {
	return oneShot(s.Workers).Run(ctx, s)
}
