package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"

	"optimus/internal/arch"
	"optimus/internal/comm"
	"optimus/internal/memfoot"
)

// Policy selects the KV-cache admission policy of a serving simulation.
type Policy int

const (
	// ReserveFull reserves each request's full prompt+generation KV
	// context at admission (the PR-2 behavior): nothing ever has to be
	// evicted, at the cost of admitting far fewer concurrent sequences
	// than a long-generation request actually needs early in its life.
	ReserveFull Policy = iota
	// Paged allocates KV in fixed-size token blocks (vLLM-style) that
	// grow with a request as it decodes, over one page pool that both
	// phases share. Under pressure the policy preempts victims LIFO among
	// the running sequences — the youngest admission loses its cache and
	// is re-queued at the head of the wait queue. Readmission prices one
	// prefill pass (the same PrefillCost step-cost API as any admission)
	// that rebuilds the discarded KV: vLLM's recompute preemption, where
	// already-generated tokens are recovered as context by the recompute
	// prefill, and the sequence resumes decoding from where it was
	// evicted.
	Paged
	// Disaggregated is the same paged policy over two page pools —
	// prefill and decode — the DistServe-style deployment where the two
	// phases run on separate device pools joined by a KV transfer. A
	// request admits against the prefill pool on its prompt's pages alone;
	// when its first token is emitted it migrates to the decode pool,
	// paying a per-request KV-transfer cost of its prompt's KV bytes over
	// the Spec.TransferGBps interconnect (internal/comm's point-to-point
	// link model); decode growth and LIFO preemption then run against the
	// decode pool. Pool sizes follow Spec.PrefillDevices and
	// Spec.DecodeDevices; block geometry is Paged's (Spec.PageTokens).
	Disaggregated
)

// String names the policy with the token the CLI and sweep writers use.
func (p Policy) String() string {
	switch p {
	case ReserveFull:
		return "reserve-full"
	case Paged:
		return "paged"
	case Disaggregated:
		return "disagg"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// MarshalJSON renders the policy name, so JSON artifacts compared across
// the policy axis say "paged", not a bare enum int.
func (p Policy) MarshalJSON() ([]byte, error) {
	return json.Marshal(p.String())
}

// UnmarshalJSON parses the rendered policy name back.
func (p *Policy) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	v, err := ParsePolicy(s)
	if err != nil {
		return err
	}
	*p = v
	return nil
}

// ParsePolicy resolves a CLI policy token.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "reserve", "reserve-full", "reservation":
		return ReserveFull, nil
	case "paged", "page":
		return Paged, nil
	case "disagg", "disaggregated":
		return Disaggregated, nil
	default:
		return 0, fmt.Errorf("serve: unknown admission policy %q (reserve|paged|disagg)", s)
	}
}

// DefaultPageTokens is the paged policy's block size when Spec.PageTokens
// is zero — vLLM's default block size.
const DefaultPageTokens = 16

// DefaultTransferGBps is the disaggregated policy's KV-transfer
// interconnect bandwidth when Spec.TransferGBps is zero — a PCIe Gen5
// x16-class link in GB/s.
const DefaultTransferGBps = 50.0

// DefaultSwapGBps is the host KV tier's link bandwidth when Spec.SwapGBps
// is zero — a PCIe Gen4 x16-class host link in GB/s, deliberately slower
// than the GPU-to-GPU DefaultTransferGBps.
const DefaultSwapGBps = 32.0

// admissionPolicy manages the KV-cache budget of one simulation: it
// decides how many sequences may run concurrently, reserves capacity as
// requests are admitted and decode, and selects preemption victims under
// pressure. The interface is sealed (unexported, and its stepping methods
// take the simulator's unexported request type); newPolicy builds the
// implementation Spec.Policy selects.
type admissionPolicy interface {
	// BatchCap resolves the concurrent-sequence bound: the user's
	// Spec.MaxBatch, bounded by how many admissions the KV budget holds.
	BatchCap() int
	// Feasible reports whether a single request can ever be admitted.
	Feasible() bool
	// PageGeometry reports the resolved block size in tokens and the page
	// count of the budget; both zero for ReserveFull.
	PageGeometry() (pageTokens, totalPages int)

	// beginStep re-derives per-iteration accounting from the running set
	// (indices into the request slab, in admission order) and makes room
	// for each sequence's next token, returning the sequences that keep
	// running and the preemption victims (appended to the caller's
	// reusable buffer), which the event loop re-queues. Victims are
	// collected youngest-first, each with its produced count written back
	// from the running set's epoch offset. An iteration that changes
	// nothing the policy accounts for costs O(1): the policy knows from
	// counters, without a walk, whether its accounting changes at the
	// current epoch.
	beginStep(pool []request, running, victims []int32) (kept, outVictims []int32)
	// steadyUntil is the first epoch, from the current one up to limit, at
	// which beginStep has work: limit when it has none before it. Before
	// that epoch, while the running set stands and nothing is admitted or
	// released, beginStep returns the running set as it is and leaves
	// every count the policy reports unchanged. math.MinInt means work
	// now that only beginStep's scan does (a reserve re-sum, a split
	// migration); the paged policy's work at the returned epoch is page
	// crossings, which the event loop grows itself when they fit
	// (pagedPolicy.absorb).
	steadyUntil(pool []request, running []int32, limit int) int
	// admit reserves capacity for the request, or reports that it does
	// not fit right now.
	admit(r *request) bool
	// release frees a completed request's capacity.
	release(r *request)
	// usedBytes is the KV capacity currently committed — unavailable to
	// further admissions — in bytes.
	usedBytes() float64
	// usedPages is the committed page count (0 for ReserveFull).
	usedPages() int
	// budgetBytes is the resolved per-device KV budget.
	budgetBytes() float64
	// counters reports the cumulative preemptions and the generated
	// tokens they discarded.
	counters() (preemptions, recomputedTokens int)
}

// policyStore is where one spec's policies are built, each kind allocated
// once, with the last footprint evaluation: Run's verdict and its arming
// share both, the evaluation when the stream reaches the largest context.
type policyStore struct {
	paged   *pagedPolicy
	reserve *reservePolicy
	fp      memfoot.InferenceBreakdown
	context int
}

// newPolicy builds the spec's admission policy over env's geometry, in
// ps. Its KV budget and largest-request reservation come from the memfoot
// footprint at env's largest context, evaluated at most once per policy,
// so the policy never diverges from the footprint the predictors check.
func newPolicy(s Spec, env *Envelope, ps *policyStore) admissionPolicy {
	b := env.bounds
	if ps.context != b.MaxContext || b.MaxContext == 0 {
		ps.context, ps.fp = b.MaxContext, inferenceFootprint(s.Model, s.TP, 1, b.MaxContext, s.Precision.Bytes())
	}
	budget, perRequest := s.KVCapacity, ps.fp.KVCache
	if budget <= 0 {
		budget = s.System.Device.DRAMCapacity() - ps.fp.Weights
	}
	if Knobs[knobPageTokens].readBy(s.Policy) {
		if ps.paged == nil {
			ps.paged = new(pagedPolicy)
		}
		ps.paged.init(s, env, budget, perRequest)
		return ps.paged
	}
	if ps.reserve == nil {
		ps.reserve = new(reservePolicy)
	}
	*ps.reserve = reservePolicy{
		budget: budget, perRequest: perRequest,
		maxContext: b.MaxContext, minContext: b.MinContext, userCap: s.MaxBatch,
	}
	return ps.reserve
}

// reservePolicy is the extracted PR-2 admission: every request reserves
// its own full prompt+generation KV context up front, so capacity never
// has to be reclaimed and preemption never happens. For a uniform workload
// its arithmetic — the order of float operations included — is exactly the
// pre-refactor admission loop's, which the paged policy's
// degenerate-equivalence test relies on; heterogeneous workloads price
// each reservation per request off the same footprint-derived geometry.
type reservePolicy struct {
	budget float64
	// perRequest is the footprint model's full-context KV bytes at the
	// workload's largest context; smaller requests reserve a linear
	// per-token fraction of it.
	perRequest             float64
	maxContext, minContext int
	userCap                int
	kvUsed                 float64
	// stale marks an admission or release since beginStep last derived
	// kvUsed from the running set; until then the value stands.
	stale bool
}

// contextBytes prices a context-token full reservation. The footprint's
// own bytes are used verbatim at the context it was derived for, so the
// uniform workload stays bit-identical to the PR-3 accounting instead of
// routing through a divide-and-remultiply round trip.
func (p *reservePolicy) contextBytes(context int) float64 {
	if context == p.maxContext {
		return p.perRequest
	}
	return p.perRequest / float64(p.maxContext) * float64(context)
}

func (p *reservePolicy) BatchCap() int {
	// The cap is how many of the workload's smallest reservations fit —
	// an upper bound on concurrency; per-request admission is the real
	// gate. Clamped like the paged pool (maxTotalPages): an unguarded
	// float→int conversion on a huge budget/perRequest ratio overflows to
	// a negative cap, which would stall the event loop at zero admissions.
	fit := maxTotalPages
	if f := p.budget / p.contextBytes(p.minContext); f < maxTotalPages {
		fit = int(f)
	}
	if p.userCap > 0 && p.userCap < fit {
		return p.userCap
	}
	return fit
}

func (p *reservePolicy) Feasible() bool {
	return p.budget > 0 && p.perRequest <= p.budget
}

func (p *reservePolicy) PageGeometry() (int, int) { return 0, 0 }

// beginStep re-sums the running set's reservations. The sum changes only
// with the running set, so a mixed-shape set is re-summed only after an
// admission or a release.
//
//optimus:hotpath
func (p *reservePolicy) beginStep(pool []request, running, victims []int32) ([]int32, []int32) {
	if p.minContext == p.maxContext {
		// Multiply-by-count, not a sum: the PR-3 float path, preserved
		// bit for bit for the degenerate-equivalence guarantee.
		p.kvUsed, p.stale = p.perRequest*float64(len(running)), false
		return running, victims
	}
	if !p.stale {
		return running, victims
	}
	kv := 0.0
	for _, slot := range running {
		r := &pool[slot]
		kv += p.contextBytes(r.prompt + r.gen)
	}
	p.kvUsed, p.stale = kv, false
	return running, victims
}

// steadyUntil reports no work while kvUsed stands: re-deriving it from an
// unchanged running set gives the same value.
func (p *reservePolicy) steadyUntil(_ []request, _ []int32, limit int) int {
	if p.stale {
		return math.MinInt
	}
	return limit
}

func (p *reservePolicy) admit(r *request) bool {
	need := p.contextBytes(r.prompt + r.gen)
	if !(p.kvUsed+need <= p.budget) {
		return false
	}
	p.kvUsed += need
	p.stale = true
	return true
}

func (p *reservePolicy) release(*request)     { p.stale = true }
func (p *reservePolicy) usedBytes() float64   { return p.kvUsed }
func (p *reservePolicy) usedPages() int       { return 0 }
func (p *reservePolicy) budgetBytes() float64 { return p.budget }
func (p *reservePolicy) counters() (int, int) { return 0, 0 }

// maxTotalPages caps the page budget so a garbage spec (tiny page bytes
// against a huge budget) cannot overflow the float→int conversion. It
// must fit a 32-bit int so the package keeps building on 32-bit targets.
const maxTotalPages = 1<<31 - 1

// pagedPolicy allocates KV in fixed-size token blocks over one or two page
// pools. A request holds ceil(kvTokens/pageTokens) pages for the tokens
// currently in its cache and grows one page at a time as it decodes;
// admission only needs its own prompt's pages, so many more
// long-generation requests run concurrently than under full-context
// reservation. When a sequence cannot grow, the policy evicts victims
// LIFO (youngest admission first, itself last) — recompute-style
// preemption: the victim's pages are freed and the event loop re-queues it
// for a recompute prefill that rebuilds its cache, after which it resumes
// decoding. All page counts are priced per request, off the request's own
// prompt/generation lengths.
//
// Paged is the one-pool layout: admission charges the pool decode runs
// from, so no sequence ever migrates. Disaggregated is the two-pool
// layout: admissions hold pages in the prefill pool, and a sequence's
// pages move to the decode pool when its first token is emitted — the
// DistServe-style hand-off, priced per request as a point-to-point
// transfer of its prompt's KV bytes over the Spec.TransferGBps link.
// Decode growth and LIFO preemption then run against the decode pool; a
// victim rebuilds its cache in the prefill pool and migrates — paying the
// transfer — again. Each pool owns PrefillDevices (resp. DecodeDevices) of
// the TP devices' aggregate KV budget; pools may overlap, and the fully
// co-located split makes every per-pool constraint coincide with the
// shared-budget one, so it is block for block the one-pool layout (pinned
// by the degenerate-equivalence suite under an infinite link).
//
// With NoPreempt set, admission instead reserves the request's own
// full-context page count up front (reservation at page granularity),
// which guarantees growth never fails — the degenerate configuration the
// equivalence tests pin against ReserveFull.
//
// Two optional one-pool mechanisms extend the block accounting, both
// degenerating byte-for-byte to the plain policy when unused:
//
//   - Prefix caching: requests carrying a PrefixID share their leading
//     PrefixTokens prompt tokens. The first admission of a prefix charges
//     its pages into a refcounted resident registry; later admissions
//     charge their private suffix only and skip the prefix's share of the
//     prefill pass. Refcounts survive LIFO preemption (an evicted victim
//     releases its reference, never the shared pages), and idle resident
//     prefixes are reclaimed — lowest slot first — before any running
//     victim is preempted.
//   - Tiered KV: with a host tier configured (Spec.HostKVBytes), eviction
//     swaps the victim's private pages out to the tier — priced as a
//     point-to-point transfer over the Spec.SwapGBps link — instead of
//     discarding them, while the tier has room. Readmission compares the
//     swap-in transfer against the recompute prefill and takes the
//     cheaper path.
type pagedPolicy struct {
	budget     float64
	pageBytes  float64
	pageTokens int
	// totalPages caps the pools' combined commitment: the budget's pages,
	// or the two pools' (smaller) sum when a split's pools do not overlap.
	// prefillTotal and decodeTotal are the pools' own capacities; the one
	// pool of an unsplit layout is both.
	totalPages   int
	prefillTotal int
	decodeTotal  int
	admitPages   int // pages covering the smallest admission need — the derived-cap unit
	fullPages    int // pages covering the largest full context — the feasibility unit
	minFull      int // pages covering the smallest full context — NoPreempt's cap unit
	userCap      int
	split        bool // two pools: admissions migrate from the prefill pool to the decode pool
	noPreempt    bool

	used        int // pages committed across every pool: running sequences and resident prefixes
	prefillUsed int // the share of used held in the prefill pool (zero without a split)
	reserved    int // NoPreempt: full-context pages reserved by admissions
	peakPrefill int
	peakDecode  int
	preempts    int
	recomputed  int

	// Prefix registry: interned shared prefixes, indexed by the slot ids
	// the request slab carries. Empty for prefix-free workloads, whose
	// admission arithmetic is untouched.
	prefixes    []prefixEntry
	prefixIdx   map[string]int32
	prefixHits  int
	prefixSaved int
	// idle holds one bit per registry slot, set while the entry is
	// resident with no references. Its words are handed from one
	// simulation's policy to the next.
	idle []uint64

	// KV links: perToken KV bytes priced point-to-point over the pool
	// interconnect (link, prefill→decode migrations) and the host tier's
	// link (swapLink, swaps), each accruing this iteration's seconds until
	// drainLinks hands them to the event loop. hostTotal == 0 disables the
	// tier.
	perToken        float64
	link            arch.Link
	swapLink        arch.Link
	pendingTransfer float64
	pendingSwap     float64
	transferTotal   float64
	swapTotal       float64
	transfers       int
	hostTotal       int
	hostUsed        int
	peakHost        int
	swapOuts        int
	swapIns         int
	// sim prices the readmission recompute path the swap-in competes
	// against (set by the simulator after construction; nil in validation-
	// only uses, which never admit).
	sim *simulator
}

// prefixEntry is one interned shared prefix: its id, token and page span,
// how many running sequences currently reference it, and whether its pages
// are resident in the KV cache. Residency outlives the last reference —
// that is the cache — until pressure reclaims the idle entry.
type prefixEntry struct {
	id       string
	tokens   int
	pages    int
	refs     int
	resident bool
}

// init rebuilds the policy and derives its block geometry: the byte size
// of one page and the budget's page count, split across the pools. When
// one page spans the
// full context the footprint's own bytes are used verbatim (not a
// divide-and-remultiply round trip), keeping the degenerate configurations
// bit-identical to ReserveFull accounting; page counts are clamped to
// maxTotalPages so a huge budget cannot overflow the float→int conversion
// on 32-bit targets.
func (p *pagedPolicy) init(s Spec, env *Envelope, budget, perRequest float64) {
	b := env.bounds
	context := b.MaxContext
	c := s.canonical(context)
	pt := c.PageTokens
	*p = pagedPolicy{
		budget:     budget,
		pageTokens: pt,
		split:      Knobs[knobPrefillDevices].readBy(s.Policy),
		userCap:    s.MaxBatch,
		noPreempt:  s.NoPreempt,
		link:       arch.Link{BW: c.TransferGBps * 1e9, Util: 1},
	}
	if pt == 0 {
		return // context-free garbage spec; totalPages stays 0 → infeasible
	}
	if pt == context {
		p.pageBytes = perRequest
	} else {
		p.pageBytes = perRequest * float64(pt) / float64(context)
	}
	if budget > 0 && p.pageBytes > 0 {
		if f := budget / p.pageBytes; f > maxTotalPages {
			p.totalPages = maxTotalPages
		} else {
			p.totalPages = int(f)
		}
	}
	p.prefillTotal, p.decodeTotal = p.totalPages, p.totalPages
	if p.split {
		p.prefillTotal = poolPages(p.totalPages, c.PrefillDevices, s.TP)
		p.decodeTotal = poolPages(p.totalPages, c.DecodeDevices, s.TP)
		// int64 sum: both totals fit 32-bit ints but their sum need not.
		if int64(p.prefillTotal)+int64(p.decodeTotal) < int64(p.totalPages) {
			p.totalPages = p.prefillTotal + p.decodeTotal
		}
	}
	p.perToken = perRequest / float64(context)
	p.admitPages = p.pagesFor(b.MinPrompt + 1)
	p.fullPages = p.pagesFor(context)
	p.minFull = p.pagesFor(b.MinContext)
	if env.prefixed && !p.split {
		// Prefixed shapes split their pages into shared + private spans,
		// each rounded up separately: the feasibility unit is the largest
		// such split (≥ the unsplit page count), the cap unit the smallest
		// resident-prefix admission (private prompt suffix only).
		p.fullPages, p.admitPages = p.prefixPageUnits(env)
	}
	if c.HostKVBytes > 0 {
		if f := c.HostKVBytes / p.pageBytes; f > maxTotalPages {
			p.hostTotal = maxTotalPages
		} else {
			p.hostTotal = int(f)
		}
		p.swapLink = arch.Link{BW: c.SwapGBps * 1e9, Util: 1}
	}
}

// poolPages is one pool's share of the budget's pages: devs of the tp
// devices' aggregate. 64-bit intermediate so the multiply cannot overflow
// a 32-bit int.
func poolPages(budgetPages, devs, tp int) int {
	return int(int64(budgetPages) * int64(devs) / int64(tp))
}

// prefixPageUnits derives the paged feasibility and cap units of a
// prefixed envelope by folding its shapes: the largest full need (what
// the oldest sequence can need to finish after everything else is evicted
// and every other prefix reclaimed), and the smallest admission need (a
// resident-prefix hit charging its private prompt's pages alone).
func (p *pagedPolicy) prefixPageUnits(env *Envelope) (fullPages, admitPages int) {
	env.each(func(first bool, prompt, gen, prefix int) {
		full := p.fullNeed(prompt, gen, prefix)
		admit := p.pagesFor(prompt - prefix + 1)
		if first || full > fullPages {
			fullPages = full
		}
		if first || admit < admitPages {
			admitPages = admit
		}
	})
	return fullPages, admitPages
}

// fullNeed is the full-context page count of a prefixed shape: prefix and
// private pages, each rounded up.
func (p *pagedPolicy) fullNeed(prompt, gen, prefix int) int {
	return p.pagesFor(prefix) + p.pagesFor(prompt-prefix+gen)
}

// intern resolves a prefix id to its registry slot, creating it cold
// (non-resident, unreferenced) on first sight. Workload validation
// guarantees one consistent token length per id.
func (p *pagedPolicy) intern(id string, tokens int) int32 {
	if i, ok := p.prefixIdx[id]; ok {
		return i
	}
	if p.prefixIdx == nil {
		p.prefixIdx = make(map[string]int32, 4)
	}
	i := int32(len(p.prefixes))
	p.prefixes = append(p.prefixes, prefixEntry{id: id, tokens: tokens, pages: p.pagesFor(tokens)})
	p.prefixIdx[id] = i
	if i%64 == 0 {
		p.idle = append(p.idle, 0)
	}
	return i
}

// internedPrefixTokens reports the token length a prefix id was interned
// with — the Instance.Push consistency check.
func (p *pagedPolicy) internedPrefixTokens(id string) (int, bool) {
	i, ok := p.prefixIdx[id]
	if !ok {
		return 0, false
	}
	return p.prefixes[i].tokens, true
}

// reclaimIdle frees one resident idle (refs == 0) prefix — lowest slot
// first, a deterministic order — reporting whether it freed anything. The
// eviction loops try it before preempting any running victim: a cached
// prefix nobody references is the cheapest capacity to reclaim. The idle
// bitset's lowest set bit is that slot.
//
//optimus:hotpath
func (p *pagedPolicy) reclaimIdle() bool {
	for w, word := range p.idle {
		if word != 0 {
			b := bits.TrailingZeros64(word)
			p.idle[w] = word &^ (1 << b)
			e := &p.prefixes[w*64+b]
			e.resident = false
			p.used -= e.pages
			return true
		}
	}
	return false
}

// crossSlot is r's slot in the crossing ring (simulator.cross): the
// residue mod pageTokens of the epoch at which its next token first needs
// another page. Each crossing adds exactly one page, moving that epoch by
// exactly pageTokens, so the slot is fixed while r runs; and every
// running sequence crosses within pageTokens epochs, so a slot's count
// is the count at its one epoch in that window. admit counts r in and
// release out. The slot comes from the tokens r has reached, not its
// pages: r.produced must hold the absolute count, as it does when admit
// and release see it.
//
//optimus:hotpath
func (p *pagedPolicy) crossSlot(r *request) int {
	s := (p.sim.epoch - (r.prompt - r.prefix + r.produced)) % p.pageTokens
	if s < 0 {
		s += p.pageTokens
	}
	return s
}

// pagesFor returns the page count covering tokens KV entries.
func (p *pagedPolicy) pagesFor(tokens int) int {
	return (tokens + p.pageTokens - 1) / p.pageTokens
}

func (p *pagedPolicy) BatchCap() int {
	// Derived from the workload's smallest per-request need — an upper
	// bound on concurrency; per-request admission is the real gate.
	per := p.admitPages
	if p.noPreempt {
		per = p.minFull
	}
	fit := 0
	if per > 0 {
		fit = p.totalPages / per
	}
	if p.userCap > 0 && p.userCap < fit {
		return p.userCap
	}
	return fit
}

// Feasible requires the largest request's full context to fit every pool:
// the decode pool must grow it to completion, and a preemption victim's
// recompute readmission can need up to its full context in the prefill
// pool — the progress guarantee that eviction can never wedge the queue.
func (p *pagedPolicy) Feasible() bool {
	return p.budget > 0 && p.fullPages > 0 &&
		p.fullPages <= p.prefillTotal && p.fullPages <= p.decodeTotal
}

func (p *pagedPolicy) PageGeometry() (int, int) { return p.pageTokens, p.totalPages }

// beginStep migrates every sequence whose first token was emitted last
// iteration from the prefill pool to the decode pool — accruing its KV
// transfer; never under one pool — then grows every sequence's allocation
// to cover the token its next decode step produces. Sequences are grown
// oldest-first (admission order); when capacity runs dry, idle resident
// prefixes are reclaimed first, then the youngest running sequence is
// evicted — possibly the grower itself when it is the youngest. When only
// a split's decode pool binds, the youngest *decode resident* is evicted
// instead: preempting a prefill-held sequence cannot free decode pages, it
// would only thrash recomputes. Shared-budget pressure (every one-pool
// eviction, and co-located pools) evicts the youngest sequence outright,
// which keeps the co-located split byte-identical to one pool. The oldest
// sequence can always finish: even the largest lone request's full context
// fits every pool (Feasible), so eviction never empties the running set,
// which is the simulator's progress guarantee.
//
// The running set always orders decode residents before prefill-held
// sequences: the previous beginStep migrated every survivor, and
// admission appends the prefill-held newcomers at the tail.
//
// The scan runs only when it can change something: when the crossing
// ring counts sequences that cross a page at this epoch, or with a split
// admission's migration pending. Otherwise the running set is returned
// as it is.
//
//optimus:hotpath
func (p *pagedPolicy) beginStep(pool []request, running, victims []int32) (kept, outVictims []int32) {
	kept, outVictims = running, victims
	epoch := p.sim.epoch
	if p.sim.cross[epoch%p.pageTokens] == 0 && !p.migrating(pool, kept) {
		return kept, outVictims
	}
scan:
	for i := 0; i < len(kept); i++ {
		slot := kept[i]
		r := &pool[slot]
		if !r.inDecode {
			// The hand-off: the prefill pool's copy of r's cache moves to
			// the decode pool before its first decode step. Migration never
			// touches the shared total, so only the decode pool can bind —
			// and while it does, a decode resident to evict always exists
			// (decode use > decodeTotal - r.pages >= 0 by feasibility).
			for p.used-p.prefillUsed+r.pages > p.decodeTotal {
				kept, outVictims = p.evictYoungest(pool, kept, outVictims, true)
				// The victim sat before the scan position (decode residents
				// precede every prefill-held sequence); keep the cursor on r.
				i--
			}
			p.prefillUsed -= r.pages
			if d := p.used - p.prefillUsed; d > p.peakDecode {
				p.peakDecode = d
			}
			r.inDecode = true
			t := comm.P2PTime(float64(r.prompt)*p.perToken, p.link)
			p.pendingTransfer += t
			p.transfers++
			r.transfers++
			r.transferTime += t
		}
		// A sequence needs another page only when its next token spills
		// past its held pages' capacity: need = ceil(tokens/pageTokens)
		// exceeds r.pages exactly when tokens > r.pages*pageTokens. The
		// multiply-and-compare keeps the per-sequence steady state free of
		// the ceil's integer division. Page math spans the request's
		// private tokens only — its shared prefix (zero without one) lives
		// in the registry's pages.
		produced := r.produced + epoch
		if r.prompt-r.prefix+produced+1 <= r.pages*p.pageTokens {
			continue
		}
		need := p.pagesFor(r.prompt - r.prefix + produced + 1)
		extra := need - r.pages
		for p.used-p.prefillUsed+extra > p.decodeTotal || p.used+extra > p.totalPages {
			if p.reclaimIdle() {
				continue
			}
			// Only the decode pool binds when the shared budget has room —
			// unreachable with one pool, where both limits coincide.
			kept, outVictims = p.evictYoungest(pool, kept, outVictims, p.used+extra <= p.totalPages)
			if outVictims[len(outVictims)-1] == slot {
				// r itself was the LIFO victim. Sequences still behind it —
				// only prefill-held ones, when the decode-restricted scan
				// chose r — shifted down one slot and must keep scanning (and
				// migrate) rather than decode this iteration from the wrong
				// pool.
				i--
				continue scan
			}
		}
		p.used += extra
		if d := p.used - p.prefillUsed; d > p.peakDecode {
			p.peakDecode = d
		}
		r.pages = need
	}
	return kept, outVictims
}

// migrating reports a split admission's migration pending, which the
// running set's prefill-held tail shows.
//
//optimus:hotpath
func (p *pagedPolicy) migrating(pool []request, running []int32) bool {
	return len(running) > 0 && !pool[running[len(running)-1]].inDecode
}

// steadyUntil is the next page-crossing epoch before limit, or
// math.MinInt while a migration is pending.
//
//optimus:hotpath
func (p *pagedPolicy) steadyUntil(pool []request, running []int32, limit int) int {
	if p.migrating(pool, running) {
		return math.MinInt
	}
	return p.nextCross(p.sim.epoch, limit)
}

// nextCross is the first epoch in [from, limit) at which the crossing
// ring counts crossers, or limit when there is none. It reads one slot an
// epoch, and no more than pageTokens of them: every running sequence
// crosses within that window.
//
//optimus:hotpath
func (p *pagedPolicy) nextCross(from, limit int) int {
	cross, s := p.sim.cross, from%p.pageTokens
	for e := from; e < limit && e-from < p.pageTokens; e++ {
		if cross[s] != 0 {
			return e
		}
		if s++; s == p.pageTokens {
			s = 0
		}
	}
	return limit
}

// absorb grows the sequences crossing a page at epoch when they fit
// both limits, and reports whether it did. Then beginStep's scan would
// neither reclaim nor evict, and would add exactly one page per crosser:
// absorb makes those adds to used and the decode peak in O(1), leaving
// the crossers' held pages for settle to catch up. No migration may be
// pending.
//
//optimus:hotpath
func (p *pagedPolicy) absorb(epoch int) bool {
	c := int(p.sim.cross[epoch%p.pageTokens])
	if p.used-p.prefillUsed+c > p.decodeTotal || p.used+c > p.totalPages {
		return false
	}
	p.used += c
	if d := p.used - p.prefillUsed; d > p.peakDecode {
		p.peakDecode = d
	}
	return true
}

// settle sets every running sequence's held pages to those the absorbed
// crossings grew it to: the pages covering its private tokens up to
// epoch, where the next scan expects them. Only a sequence that crossed
// pays the division.
//
//optimus:hotpath
func (p *pagedPolicy) settle(pool []request, running []int32, epoch int) {
	for _, slot := range running {
		r := &pool[slot]
		if tokens := r.prompt - r.prefix + r.produced + epoch; tokens > r.pages*p.pageTokens {
			r.pages = p.pagesFor(tokens)
		}
	}
}

// evictYoungest evicts the youngest running sequence — the youngest decode
// resident when decodeOnly — removing it from kept and appending it to the
// victims.
func (p *pagedPolicy) evictYoungest(pool []request, kept, victims []int32, decodeOnly bool) ([]int32, []int32) {
	j := len(kept) - 1
	for decodeOnly && !pool[kept[j]].inDecode {
		j--
	}
	vi := kept[j]
	p.evict(&pool[vi])
	return append(kept[:j], kept[j+1:]...), append(victims, vi)
}

// evict writes a victim's produced count back from its epoch offset, frees
// its private pages from whichever pool holds them and releases its prefix
// reference (the shared pages stay resident — refcounting survives
// preemption). With a host tier holding room, the pages swap out to it
// instead of vanishing — the victim remembers its stored span and
// readmission decides swap-in vs recompute; otherwise the generated tokens
// are accounted for the recompute prefill that must rebuild them.
func (p *pagedPolicy) evict(v *request) {
	v.produced += p.sim.epoch
	if p.hostTotal > 0 && p.hostUsed+v.pages <= p.hostTotal {
		v.hostPages = v.pages
		v.hostTokens = v.prompt - v.prefix + v.produced
		p.hostUsed += v.pages
		if p.hostUsed > p.peakHost {
			p.peakHost = p.hostUsed
		}
		t := p.swapTime(v.hostTokens)
		p.pendingSwap += t
		p.swapOuts++
		v.transfers++
		v.transferTime += t
	} else {
		p.recomputed += v.produced
	}
	p.release(v)
	p.preempts++
}

// admit reserves the pages a request's next step touches — in the prefill
// pool of a split, else in the one pool decode runs from: its private
// prompt's for a fresh sequence, the prompt's plus the already-generated
// tokens' for a preemption victim resuming after its recompute prefill.
// A shared prefix charges its own pages only when not already resident —
// a hit charges the private suffix alone and skips the prefix's share of
// the prefill pass. A session turn carrying more context than the
// resident entry extends it in place: the hit covers the cached span and
// the growth delta is charged to (and prefilled by) the extending turn.
// A victim whose pages sit in the host tier swaps them back in when the
// transfer undercuts the recompute prefill.
func (p *pagedPolicy) admit(r *request) bool {
	need := p.pagesFor(r.prompt - r.prefix + r.produced + 1)
	if p.noPreempt {
		full := p.pagesFor(r.prompt + r.gen)
		if p.reserved+full > p.totalPages {
			return false
		}
		p.reserved += full
		r.pages, r.inDecode = need, true
		p.used += need
		p.sim.cross[p.crossSlot(r)]++
		return true
	}
	if p.split && p.prefillUsed+need > p.prefillTotal {
		return false
	}
	var pfx *prefixEntry
	shared := 0
	if r.prefixSlot >= 0 {
		pfx = &p.prefixes[r.prefixSlot]
		if !pfx.resident {
			shared = p.pagesFor(r.prefix)
		} else if r.prefix > pfx.tokens {
			shared = p.pagesFor(r.prefix) - pfx.pages
		}
	}
	for p.used+need+shared > p.totalPages {
		if !p.reclaimIdle() {
			return false
		}
	}
	free := 0
	if pfx != nil {
		// Whichever case applies, the entry ends referenced.
		p.idle[r.prefixSlot/64] &^= 1 << (r.prefixSlot % 64)
		// Re-test residency: the reclaim loop above may have dropped this
		// very entry (resident, unreferenced) to make room.
		switch {
		case !pfx.resident:
			// (Re)materialize the cache at this request's span: a session's
			// later turn carries more context than the entry was interned
			// with, and a victim readmitting after its cache was reclaimed
			// may carry less — the registry tracks what is resident now.
			pfx.resident = true
			pfx.refs = 1
			pfx.tokens = r.prefix
			pfx.pages = p.pagesFor(r.prefix)
			p.used += pfx.pages
		case r.prefix > pfx.tokens:
			// A session turn extending the resident entry: the hit covers
			// the cached span, this request's prefill computes the growth
			// delta, and the grown entry serves the session's next turn.
			pfx.refs++
			free = pfx.tokens
			p.prefixHits++
			p.prefixSaved += pfx.tokens
			delta := p.pagesFor(r.prefix) - pfx.pages
			pfx.tokens = r.prefix
			pfx.pages += delta
			p.used += delta
		default:
			pfx.refs++
			free = r.prefix
			p.prefixHits++
			p.prefixSaved += r.prefix
		}
	}
	if r.hostPages > 0 {
		// The tier holds this victim's pre-eviction KV. Price both
		// readmission paths — swap the stored bytes back over the link, or
		// rebuild them with a recompute prefill — and take the cheaper.
		p.hostUsed -= r.hostPages
		swapIn := p.swapTime(r.hostTokens)
		if swapIn <= p.sim.recomputeCost(r.hostTokens) {
			p.pendingSwap += swapIn
			p.swapIns++
			r.transfers++
			r.transferTime += swapIn
			free += r.hostTokens
		} else {
			p.recomputed += r.produced
		}
		r.hostPages, r.hostTokens = 0, 0
	}
	r.prefillFree = free
	r.pages, r.inDecode = need, !p.split
	p.used += need
	p.sim.cross[p.crossSlot(r)]++
	if p.split {
		p.prefillUsed += need
		if p.prefillUsed > p.peakPrefill {
			p.peakPrefill = p.prefillUsed
		}
	}
	return true
}

// release frees a request's pages from whichever pool holds them and
// drops its reservation, crossing-ring count and prefix reference.
func (p *pagedPolicy) release(r *request) {
	if !r.inDecode {
		p.prefillUsed -= r.pages
	}
	p.used -= r.pages
	p.sim.cross[p.crossSlot(r)]--
	r.pages = 0
	if p.noPreempt {
		p.reserved -= p.pagesFor(r.prompt + r.gen)
	}
	if i := r.prefixSlot; i >= 0 {
		e := &p.prefixes[i]
		e.refs--
		if e.refs == 0 && e.resident {
			p.idle[i/64] |= 1 << (i % 64)
		}
	}
}

// swapTime prices one host-tier page movement: the stored tokens' KV
// bytes point-to-point over the swap link. An infinite-bandwidth link
// prices to exactly zero.
func (p *pagedPolicy) swapTime(tokens int) float64 {
	return comm.P2PTime(float64(tokens)*p.perToken, p.swapLink)
}

// drainLinks hands the event loop the link seconds accrued by this
// iteration's migrations, swap-outs and swap-ins, accumulating each
// link's total. Exactly zero without a split or a host tier.
func (p *pagedPolicy) drainLinks() float64 {
	t, s := p.pendingTransfer, p.pendingSwap
	p.pendingTransfer, p.pendingSwap = 0, 0
	p.transferTotal += t
	p.swapTotal += s
	return t + s
}

// residentPrefixPages sums the resident registry entries' pages — the
// probe's conservation hook (used == running private pages + resident
// prefix pages).
func (p *pagedPolicy) residentPrefixPages() int {
	pages := 0
	for i := range p.prefixes {
		if p.prefixes[i].resident {
			pages += p.prefixes[i].pages
		}
	}
	return pages
}

// usedPages reports the pages *committed* — what admission sees as
// unavailable — so the utilization surface stays comparable across the
// policy axis: held blocks under preemption, reserved full contexts under
// NoPreempt (whose admissions commit capacity they have not yet filled,
// exactly as ReserveFull's do).
func (p *pagedPolicy) usedPages() int {
	if p.noPreempt {
		return p.reserved
	}
	return p.used
}
func (p *pagedPolicy) usedBytes() float64   { return float64(p.usedPages()) * p.pageBytes }
func (p *pagedPolicy) budgetBytes() float64 { return p.budget }
func (p *pagedPolicy) counters() (int, int) {
	return p.preempts, p.recomputed
}
