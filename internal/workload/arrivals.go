package workload

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// sources recycles the generators the draws below run on: a fresh
// rand.Source is a table of about 4.9 KB, and a workload takes up to
// three of them per draw. Seed resets a generator's whole state, so a
// recycled one draws exactly the stream a fresh one seeded alike would
// (TestSeededSourceMatchesFresh).
var sources = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// seeded returns a generator seeded with seed, to be given back to
// sources once its stream is drawn.
func seeded(seed int64) *rand.Rand {
	rng := sources.Get().(*rand.Rand)
	rng.Seed(seed)
	return rng
}

// shapeSeedSalt decorrelates the tenant-assignment stream from the arrival
// stream, which is seeded with the raw seed. Without it the two
// rand.Sources would start in identical states.
const shapeSeedSalt = 0x2545F4914F6CDD1D

// lengthSeedSalt decorrelates the heavy-tailed length stream from both the
// arrival stream (raw seed) and the tenant-assignment stream
// (shapeSeedSalt): sigma draws must not perturb either, so the degenerate
// zero-sigma workload stays byte-identical. The constant exceeds int64, so
// the xor runs in uint64 and converts back.
const lengthSeedSalt uint64 = 0x9E3779B97F4A7C15

// appendPoissonArrivals appends n open-loop Poisson arrival timestamps at
// rate requests/sec to dst, growing it once: the cumulative sums of
// seeded exponential interarrivals. It panics on a non-positive/non-finite rate or a negative
// count — NaN or Inf timestamps would stall every downstream event loop.
func appendPoissonArrivals(dst []float64, rate float64, n int, seed int64) []float64 {
	if !(rate > 0) || math.IsInf(rate, 0) {
		panic(fmt.Sprintf("workload: Poisson arrivals need a positive finite rate, got %g", rate))
	}
	if n < 0 {
		panic(fmt.Sprintf("workload: Poisson arrivals need a non-negative count, got %d", n))
	}
	dst = slices.Grow(dst, n)
	rng := seeded(seed)
	defer sources.Put(rng)
	t := 0.0
	for i := 0; i < n; i++ {
		t += rng.ExpFloat64() / rate
		dst = append(dst, t)
	}
	return dst
}

// appendScheduleArrivals appends n arrival timestamps of an inhomogeneous
// Poisson process shaped by a validated rate schedule to dst, growing it
// once. It draws them by time rescaling: each arrival consumes one
// unit-exponential draw, spent against segment rates until it is
// exhausted (a segment of rate r and width w absorbs r·w units; zero-rate
// segments absorb nothing and are jumped over; the final segment's rate
// extends indefinitely). The draw
// stream is identical to appendPoissonArrivals' at the same seed, but the
// segment-crossing arithmetic differs from the constant-rate fast path
// even for a constant schedule — callers wanting the byte-identical
// degenerate corner must canonicalize first (CanonicalSchedule collapses
// constant schedules, and ArrivalProcess.Generate does so).
func appendScheduleArrivals(dst []float64, sched Schedule, n int, seed int64) []float64 {
	if err := sched.Validate(); err != nil {
		panic(fmt.Sprintf("workload: schedule arrivals: %v", err))
	}
	if n < 0 {
		panic(fmt.Sprintf("workload: schedule arrivals need a non-negative count, got %d", n))
	}
	dst = slices.Grow(dst, n)
	rng := seeded(seed)
	defer sources.Put(rng)
	t := 0.0
	seg := 0
	for i := 0; i < n; i++ {
		e := rng.ExpFloat64()
		for seg < len(sched)-1 {
			s := sched[seg]
			// The conversion rounds the product, so no architecture fuses
			// it into the subtraction below.
			if span := float64((s.End - t) * s.Rate); e <= span {
				break
			} else {
				e -= span
				t = s.End
				seg++
			}
		}
		// Either an interior segment with enough rate-mass left, or the
		// final segment, whose positive rate extends forever.
		t += e / sched[seg].Rate
		dst = append(dst, t)
	}
	return dst
}

// AppendMixShapes deterministically assigns each of n arrival indices its
// request shape. A single-tenant mix takes the draw-free fast path, so
// the degenerate spec-wide workload leaves the arrival process's random
// stream untouched — the PR-3 byte-identity guarantee. Multi-tenant mixes
// draw tenants, weighted by share, from a second independently seeded
// stream. Entries with a non-zero PromptSigma/GenSigma then draw
// per-request lognormal lengths from a third salted stream, in request
// order, prompt before generation, and only for fields whose sigma is
// non-zero — so the length draws are a pure function of (mix, shape
// assignment, seed), and a zero-sigma mix consumes no randomness for
// them. The tenant and length streams are separate generators, so
// drawing a shape's lengths as it is assigned consumes each stream in
// the same order as assigning every shape first. dst grows once, by the
// n shapes.
func AppendMixShapes(dst []Request, mix []TenantLoad, n int, seed int64) []Request {
	dst = slices.Grow(dst, max(n, 0))
	var lengths *rand.Rand
	if slices.ContainsFunc(mix, func(t TenantLoad) bool { return t.PromptSigma != 0 || t.GenSigma != 0 }) {
		lengths = seeded(int64(uint64(seed) ^ lengthSeedSalt))
		defer sources.Put(lengths)
	}
	if len(mix) == 1 {
		start := len(dst)
		sh := mix[0].Shape()
		for i := 0; i < n; i++ {
			dst = append(dst, sh)
		}
		if lengths != nil {
			for i := start; i < len(dst); i++ {
				drawLengths(&dst[i], &mix[0], lengths)
			}
		}
		return dst
	}
	total := 0.0
	for _, t := range mix {
		total += t.Share
	}
	rng := seeded(seed ^ shapeSeedSalt)
	defer sources.Put(rng)
	for i := 0; i < n; i++ {
		x := rng.Float64() * total
		k := 0
		for k < len(mix)-1 {
			x -= mix[k].Share
			if x < 0 {
				break
			}
			k++
		}
		dst = append(dst, mix[k].Shape())
		if lengths != nil {
			drawLengths(&dst[len(dst)-1], &mix[k], lengths)
		}
	}
	return dst
}

// drawLengths draws r's lengths from mix entry t's lognormals, prompt
// before generation, each only if its sigma is non-zero.
func drawLengths(r *Request, t *TenantLoad, rng *rand.Rand) {
	if t.PromptSigma != 0 {
		lo, hi := t.PromptBounds()
		r.PromptTokens = lognormalDraw(rng, t.PromptTokens, t.PromptSigma, lo, hi)
	}
	if t.GenSigma != 0 {
		lo, hi := t.GenBounds()
		r.GenTokens = lognormalDraw(rng, t.GenTokens, t.GenSigma, lo, hi)
	}
}

// lognormalDraw draws one heavy-tailed length: median·exp(sigma·z) for a
// standard normal z, rounded and clamped to [lo, hi].
func lognormalDraw(rng *rand.Rand, median int, sigma float64, lo, hi int) int {
	v := int(math.Round(float64(median) * math.Exp(sigma*rng.NormFloat64())))
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// sessionPrefixIDs returns the shared context prefix ids of sessions 1
// to n, "~s1~s2…~s<n>", in one string built with one allocation: session
// s's id is the substring from its '~' to the next. The '~' sigil keeps
// generated ids visually distinct from tenant-named prefixes; it is an
// ordinary legal prefix id (no mix separators).
func sessionPrefixIDs(n int) string {
	size := 2 * n
	for p := 1; p <= n; p *= 10 {
		size += n - p + 1 // every id from p up has a digit for p's place
	}
	var b strings.Builder
	b.Grow(size)
	var digits [20]byte
	for s := 1; s <= n; s++ {
		b.WriteString("~s")
		b.Write(strconv.AppendInt(digits[:0], int64(s), 10))
	}
	return b.String()
}

// expandSessions appends to arrivals and shapes the first n requests of
// the per-turn stream that per-session base arrivals and shapes expand
// into: session s's turn k (1-based) arrives at base(s) + (k-1)·think
// carrying the session's whole prior context as a growing shared prefix
// — prompt (k-1)·(P+G)+P, prefix (k-1)·(P+G), where P/G are the
// session's (possibly heavy-tailed) drawn lengths, constant across its
// turns. Turn 1 carries no prefix id (there is nothing cached yet to
// share). The stream is ordered by arrival, equal arrivals in generation
// order — session-major, turns ascending — and truncated to n requests,
// so a cohort workload simulates exactly n requests like any other.
//
// It merges rather than sorts. Base arrivals never decrease, so neither
// does turn k's run over the sessions; and with think ≥ 0 session s's
// turn k+1 follows its turn k. Each run is therefore merged in only once
// its session-0 head is due — after session 0's previous turn — so the
// merge holds at most one head per turn begun, costs O(n log turns) and
// builds nothing past the n-th request. Turn 2's run yields the sessions
// in order, so their prefix ids are cut in order from one string of every
// session's id (sessionPrefixIDs), built at the first turn 2, and each is
// kept in its sessions entry for later turns.
func expandSessions(arrivals []float64, shapes []Request, base []float64, sessions []Request,
	n, turns int, think float64) ([]float64, []Request) {
	if n == 0 {
		return arrivals, shapes
	}
	var scratch [16]turnHead
	heads := append(scratch[:0], headAt(base, think, 0, 1))
	ids, next := "", 0 // next is the start of the next session's id in ids
	for range n {
		h := heads[0]
		sh := &sessions[h.s]
		p, g := sh.PromptTokens, sh.GenTokens
		ctx := (h.k - 1) * (p + g)
		r := Request{
			Tenant:       sh.Tenant,
			PromptTokens: ctx + p,
			GenTokens:    g,
			PrefixTokens: ctx,
			Session:      h.s + 1,
			Turn:         h.k,
		}
		if h.k == 2 {
			if ids == "" {
				ids = sessionPrefixIDs(len(base))
			}
			end := len(ids)
			if j := strings.IndexByte(ids[next+1:], '~'); j >= 0 {
				end = next + 1 + j
			}
			sh.PrefixID, next = ids[next:end], end
		}
		if h.k > 1 {
			r.PrefixID = sh.PrefixID
		}
		arrivals = append(arrivals, h.t)
		shapes = append(shapes, r)

		if h.s+1 < len(base) {
			heads[0] = headAt(base, think, h.s+1, h.k)
		} else {
			heads[0] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
		siftDown(heads)
		if h.s == 0 && h.k < turns {
			heads = append(heads, headAt(base, think, 0, h.k+1))
			siftUp(heads)
		}
	}
	return arrivals, shapes
}

// turnHead is the next request of one turn's run in expandSessions'
// merge: session s's turn k, arriving at t.
type turnHead struct {
	t    float64
	s, k int
}

// headAt is session s's turn k over the given base arrivals.
func headAt(base []float64, think float64, s, k int) turnHead {
	// The conversion rounds the product, so no architecture fuses it
	// into the add.
	return turnHead{t: base[s] + float64(float64(k-1)*think), s: s, k: k}
}

// before orders heads by arrival, equal arrivals in generation order.
func (a turnHead) before(b turnHead) bool {
	if a.t < b.t || b.t < a.t {
		return a.t < b.t
	}
	return a.s < b.s || a.s == b.s && a.k < b.k
}

// siftDown restores the min-heap order of h after its root changed.
func siftDown(h []turnHead) {
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// siftUp restores the min-heap order of h after an append.
func siftUp(h []turnHead) {
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].before(h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// ArrivalProcess is the seeded, deterministic description of how a
// generated workload arrives: a constant Poisson rate or a piecewise
// Schedule, optionally expanded into multi-turn session cohorts.
// Spec.Stream draws every generated workload through it.
type ArrivalProcess struct {
	// Rate is the constant Poisson arrival rate in requests/sec; ignored
	// when Schedule is non-empty.
	Rate float64
	// Schedule is the piecewise arrival-rate timeline; empty means the
	// constant Rate. A schedule that canonicalizes to a constant takes the
	// constant-rate fast path, byte-identical to the plain Poisson stream.
	Schedule Schedule
	// Turns expands the stream into session cohorts of this many turns
	// per client session; 0 or 1 is the ordinary single-turn stream.
	Turns int
	// Think is the pause between a session's consecutive turns, seconds.
	Think float64
	// Seed drives every stream (arrivals, tenant assignment, length
	// draws); equal seeds are byte-identical.
	Seed int64
}

// Generate appends the arrival timestamps and request shapes of n
// requests drawn from the process over the given mix to the provided
// buffers, keeping what they already hold. Each buffer grows once: by n,
// and with sessions by one more entry per session, which holds the
// sessions' base arrivals and shapes past the returned length while the
// turns are merged. The degenerate process — empty or constant schedule,
// zero/one turns, zero sigmas — reproduces the plain constant-rate
// Poisson stream byte-identically. It panics on a negative n, and with
// sessions on a Think that is not finite and non-negative.
func (p ArrivalProcess) Generate(mix []TenantLoad, n int, arrivals []float64, shapes []Request) ([]float64, []Request) {
	if p.Turns <= 1 {
		return p.appendArrivals(arrivals, n), AppendMixShapes(shapes, mix, n, p.Seed)
	}
	if n < 0 || !(p.Think >= 0) || math.IsInf(p.Think, 0) {
		panic(fmt.Sprintf("workload: session arrivals need a non-negative count and a finite non-negative think time, got %d and %g",
			n, p.Think))
	}
	// One base arrival per session; ceil so truncation trims rather than
	// starves.
	sessions := (n + p.Turns - 1) / p.Turns
	at, as := len(arrivals), len(shapes)
	arrivals, shapes = slices.Grow(arrivals, n+sessions), slices.Grow(shapes, n+sessions)
	base := p.appendArrivals(arrivals[at+n:at+n], sessions)
	sess := AppendMixShapes(shapes[as+n:as+n], mix, sessions, p.Seed)
	return expandSessions(arrivals, shapes, base, sess, n, p.Turns, p.Think)
}

// appendArrivals appends n of the process's arrival timestamps to dst,
// on the constant-rate path when the schedule canonicalizes to one.
func (p ArrivalProcess) appendArrivals(dst []float64, n int) []float64 {
	sched, rate := CanonicalSchedule(p.Schedule, p.Rate)
	if sched == nil {
		return appendPoissonArrivals(dst, rate, n, p.Seed)
	}
	return appendScheduleArrivals(dst, sched, n, p.Seed)
}
