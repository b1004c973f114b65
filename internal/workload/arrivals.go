package workload

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
)

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
// rate requests/sec to dst: the cumulative sums of seeded exponential
// interarrivals. It panics on a non-positive/non-finite rate or a negative
// count — NaN or Inf timestamps would stall every downstream event loop.
func appendPoissonArrivals(dst []float64, rate float64, n int, seed int64) []float64 {
	if !(rate > 0) || math.IsInf(rate, 0) {
		panic(fmt.Sprintf("workload: Poisson arrivals need a positive finite rate, got %g", rate))
	}
	if n < 0 {
		panic(fmt.Sprintf("workload: Poisson arrivals need a non-negative count, got %d", n))
	}
	rng := rand.New(rand.NewSource(seed))
	t := 0.0
	for i := 0; i < n; i++ {
		t += rng.ExpFloat64() / rate
		dst = append(dst, t)
	}
	return dst
}

// appendScheduleArrivals appends n arrival timestamps of an inhomogeneous
// Poisson process shaped by a validated rate schedule, via time
// rescaling: each arrival consumes one unit-exponential draw, spent
// against segment rates until it is exhausted (a segment of rate r and
// width w absorbs r·w units; zero-rate segments absorb nothing and are
// jumped over; the final segment's rate extends indefinitely). The draw
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
	rng := rand.New(rand.NewSource(seed))
	t := 0.0
	seg := 0
	for i := 0; i < n; i++ {
		e := rng.ExpFloat64()
		for seg < len(sched)-1 {
			s := sched[seg]
			if span := (s.End - t) * s.Rate; e <= span {
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
// per-request lognormal lengths from a third salted stream; zero-sigma
// mixes skip that pass entirely, consuming no randomness. dst grows once,
// by the n shapes.
func AppendMixShapes(dst []Request, mix []TenantLoad, n int, seed int64) []Request {
	start := len(dst)
	dst = slices.Grow(dst, max(n, 0))
	if len(mix) == 1 {
		sh := mix[0].Shape()
		for i := 0; i < n; i++ {
			dst = append(dst, sh)
		}
	} else {
		total := 0.0
		for _, t := range mix {
			total += t.Share
		}
		rng := rand.New(rand.NewSource(seed ^ shapeSeedSalt))
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
		}
	}
	applyLengthDraws(dst[start:], mix, seed)
	return dst
}

// applyLengthDraws overwrites the prompt/generation lengths of shapes
// generated from sigma-carrying mix entries with seeded lognormal draws.
// Draws are consumed in request order, prompt before generation, and only
// for fields whose sigma is non-zero — so the draw sequence is a pure
// function of (mix, shape assignment, seed), and a zero-sigma mix draws
// nothing at all.
func applyLengthDraws(shapes []Request, mix []TenantLoad, seed int64) {
	heavy := false
	for _, t := range mix {
		if t.PromptSigma != 0 || t.GenSigma != 0 {
			heavy = true
			break
		}
	}
	if !heavy {
		return
	}
	byTenant := make(map[string]TenantLoad, len(mix))
	for _, t := range mix {
		byTenant[t.Tenant] = t
	}
	rng := rand.New(rand.NewSource(int64(uint64(seed) ^ lengthSeedSalt)))
	for i := range shapes {
		t := byTenant[shapes[i].Tenant]
		if t.PromptSigma != 0 {
			lo, hi := t.PromptBounds()
			shapes[i].PromptTokens = lognormalDraw(rng, t.PromptTokens, t.PromptSigma, lo, hi)
		}
		if t.GenSigma != 0 {
			lo, hi := t.GenBounds()
			shapes[i].GenTokens = lognormalDraw(rng, t.GenTokens, t.GenSigma, lo, hi)
		}
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

// sessionPrefixID names session s's shared context prefix. The '~' sigil
// keeps generated ids visually distinct from tenant-named prefixes; it is
// an ordinary legal prefix id (no mix separators).
func sessionPrefixID(session int) string {
	return "~s" + strconv.Itoa(session)
}

// expandSessions turns per-session base arrivals and shapes into the
// per-turn request stream: session s's turn k (1-based) arrives at
// base(s) + (k-1)·think carrying the session's whole prior context as a
// growing shared prefix — prompt (k-1)·(P+G)+P, prefix (k-1)·(P+G), where
// P/G are the session's (possibly heavy-tailed) drawn lengths, constant
// across its turns. Turn 1 carries no prefix id (there is nothing cached
// yet to share). The merged stream is stably sorted by arrival and
// truncated to n requests, so a cohort workload simulates exactly n
// requests like any other. A session's turns past the n-th can never
// survive the truncation (its first n turns arrive no later and precede
// them in generation order), so none past the n-th is built.
func expandSessions(arrivals []float64, shapes []Request, n, turns int, think float64) ([]float64, []Request) {
	if think >= 0 {
		turns = min(turns, n)
	}
	sessions := len(arrivals)
	total := sessions * turns
	outT := make([]float64, 0, total)
	outS := make([]Request, 0, total)
	for s := 0; s < sessions; s++ {
		base := arrivals[s]
		sh := shapes[s]
		p, g := sh.PromptTokens, sh.GenTokens
		id := sessionPrefixID(s + 1)
		for k := 1; k <= turns; k++ {
			ctx := (k - 1) * (p + g)
			r := Request{
				Tenant:       sh.Tenant,
				PromptTokens: ctx + p,
				GenTokens:    g,
				PrefixTokens: ctx,
				Session:      s + 1,
				Turn:         k,
			}
			if k > 1 {
				r.PrefixID = id
			}
			outT = append(outT, base+float64(k-1)*think)
			outS = append(outS, r)
		}
	}
	// Stable by arrival: equal timestamps (zero think, coincident bases)
	// keep generation order — session-major, turns ascending — so the
	// expansion is deterministic and a session's turns never invert.
	idx := make([]int, total)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return outT[idx[a]] < outT[idx[b]] })
	mergedT := make([]float64, 0, n)
	mergedS := make([]Request, 0, n)
	for _, i := range idx[:n] {
		mergedT = append(mergedT, outT[i])
		mergedS = append(mergedS, outS[i])
	}
	return mergedT, mergedS
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

// Generate produces the arrival timestamps and request shapes of n
// requests drawn from the process over the given mix, appending into the
// provided buffers (pass nil or length-zero slices; the session-cohort
// path returns fresh slices). The degenerate process — empty or constant
// schedule, zero/one turns, zero sigmas — reproduces the plain
// constant-rate Poisson stream byte-identically.
func (p ArrivalProcess) Generate(mix []TenantLoad, n int, arrivals []float64, shapes []Request) ([]float64, []Request) {
	sched, rate := CanonicalSchedule(p.Schedule, p.Rate)
	turns := p.Turns
	if turns < 1 {
		turns = 1
	}
	count := n
	if turns > 1 {
		// One base arrival per session; ceil so truncation trims rather
		// than starves.
		count = (n + turns - 1) / turns
	}
	if sched == nil {
		arrivals = appendPoissonArrivals(arrivals, rate, count, p.Seed)
	} else {
		arrivals = appendScheduleArrivals(arrivals, sched, count, p.Seed)
	}
	shapes = AppendMixShapes(shapes, mix, count, p.Seed)
	if turns > 1 {
		return expandSessions(arrivals, shapes, n, turns, p.Think)
	}
	return arrivals, shapes
}
