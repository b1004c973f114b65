package sweep

import (
	"context"
	"runtime"
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

// counters aggregates per-run statistics across workers.
type counters struct {
	pruned    atomic.Int64
	evaluated atomic.Int64
	memoHits  atomic.Int64
	errors    atomic.Int64
}

// survivor is a candidate pass 1 kept for costing: its row (enumeration
// order set, metrics filled by pass 2), the memo entry pass 1 found for it
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

// sifter is pass 1 of Run: it numbers the deduplicated candidates and
// keeps those worth costing.
type sifter struct {
	e    *Engine
	done <-chan struct{}
	// prune is set when overflowing candidates are dropped anyway, warm
	// when the memo held entries as the run began.
	prune, warm bool
	// stopped is set once the run is cancelled: from then on sift only
	// counts.
	stopped bool
	n       int
	ct      *counters
	buf     []byte
	kept    blocks[survivor]
}

// sift is pass 1's body for one candidate. A memoized candidate is kept
// whatever it would cost, and counts as a memo hit in pass 2. Otherwise,
// when pruning is sound, the footprint model decides: an error or an
// overflow is counted and the candidate dropped. The memo is consulted
// only when it held entries as the run began; a run's own evaluations
// start only in pass 2, and within one grid every identity is distinct.
//
//optimus:hotpath
func (f *sifter) sift(p Point) {
	order := f.n
	f.n++
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
			f.ct.errors.Add(1)
			return
		}
		if !fit {
			f.ct.pruned.Add(1)
			return
		}
	}
	f.kept.add(survivor{row: Row{Point: p, order: order}, ent: ent})
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

// Run evaluates the grid and returns the same ranking Serial would
// produce, in two passes. Pass 1 streams the deduplicated grid on the
// calling goroutine and keeps the candidates that are memoized or fit
// device memory (all of them when Constraints.AllowOverflow keeps
// overflowing candidates in the ranking); it holds nothing for the rest.
// Pass 2 costs the survivors on the worker pool: workers claim chunks of
// them from an atomic cursor and write each outcome into that survivor's
// own slot, so rankings do not depend on scheduling. On cancellation Run
// returns ctx.Err() alongside the statistics accumulated so far; pass 1
// still counts the whole grid, so Stats.Enumerated stays the grid size.
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
	var ct counters
	f := sifter{
		e: e, done: ctx.Done(), ct: &ct,
		// Overflowing candidates must still be costed when they are kept
		// in the ranking, so pruning is only sound when they would be
		// dropped.
		prune: !c.AllowOverflow,
		warm:  e.CacheSize() > 0,
	}
	s.candidates(f.sift)

	workers := e.workers
	if s.Workers > 0 {
		workers = s.Workers
	}
	workers = max(1, min(workers, f.n))
	e.cost(ctx, &f.kept, workers, &ct)

	stats := Stats{
		Enumerated: f.n,
		Pruned:     int(ct.pruned.Load()),
		Evaluated:  int(ct.evaluated.Load()),
		MemoHits:   int(ct.memoHits.Load()),
		Errors:     int(ct.errors.Load()),
		Workers:    workers,
		Elapsed:    time.Since(start), //lint:deterministic instrumentation-only elapsed time, not part of results
	}
	if err := ctx.Err(); err != nil {
		return Result{Stats: stats}, err
	}
	costed := make([]*Row, 0, f.kept.n)
	for i := 0; i < f.kept.n; i++ {
		if sv := f.kept.at(i); sv.ok {
			costed = append(costed, &sv.row)
		}
	}
	stats.Elapsed = time.Since(start) //lint:deterministic instrumentation-only elapsed time, not part of results
	return Result{Rows: rank(costed, c), Stats: stats}, nil
}

// cost is pass 2: up to workers goroutines claim chunks of kept from an
// atomic cursor until it runs out or ctx is cancelled. A chunk is an
// eighth of a worker's even share, at most 64 survivors, so claims stay
// rare without leaving one worker a long tail.
func (e *Engine) cost(ctx context.Context, kept *blocks[survivor], workers int, ct *counters) {
	if kept.n == 0 || ctx.Err() != nil {
		return
	}
	workers = min(workers, kept.n)
	chunk := min(64, max(1, kept.n/(8*workers)))
	done := ctx.Done()
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			// One pooled evaluator per worker: simulator slabs and pricing
			// tables survive across the points this goroutine costs
			// (byte-identical to fresh evaluation — see Evaluate).
			ev := newEvaluator()
			var buf []byte
			for {
				hi := int(cursor.Add(int64(chunk)))
				lo := hi - chunk
				if lo >= kept.n {
					return
				}
				for i := lo; i < min(hi, kept.n); i++ {
					if cancelled(done) {
						return
					}
					buf = e.settle(ctx, kept.at(i), ct, ev, buf)
				}
			}
		}()
	}
	wg.Wait()
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
