package serve

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"optimus/internal/infer"
	"optimus/internal/workload"
)

// decodeLine is one batch size's cached decode-step pricing: the step cost
// is linear in the KV length at fixed batch (TestDecodeStepLinearInKV), so
// two samples price every intermediate length exactly.
type decodeLine struct{ base, slope float64 }

// at prices one decode step at mean KV length kvMean on a line sampled
// first at kv0: the one expression every decode step is priced by. The
// conversion rounds the product before the add, so no architecture may
// fuse the two into a multiply-add (amd64 never does, and others would
// differ from it in the last bit).
//
//optimus:hotpath
func (ln decodeLine) at(kvMean, kv0 float64) float64 {
	return ln.base + float64(ln.slope*(kvMean-kv0))
}

// pricingKey is what a step price depends on: the exact infer.Spec the
// step coster is built from and the decode line's two KV sample points.
type pricingKey struct {
	spec     infer.Spec
	kv0, kv1 int
}

// pricing is one key's step coster and its dense, lazily filled pricing
// tables indexed by batch size. prefill and line are a length check and a
// load that inline at the call site; only an unfilled slot calls their
// cold fillPrefill or fillLine. A slot whose price is not positive is
// unfilled: the zero value, as growth and rekey leave it (a price of zero
// or NaN would be refilled each hit with identical math, so results
// cannot drift). A slot is a pure function of the key and the batch size,
// so simulators with equal keys can share one table however their fills
// interleave: the instances armed on one Envelope, which owns the table,
// do, on the one goroutine that drives them.
type pricing struct {
	coster     *infer.StepCoster
	prefillTab []float64
	decodeTab  []decodeLine
	key        pricingKey
}

// rekey makes p price k. An equal key keeps the coster and the filled
// slots warm, the steady state of a sweep worker or a fleet re-running
// one configuration; any other key rebuilds the coster and empties every
// slot.
func (p *pricing) rekey(k pricingKey) error {
	if p.coster != nil && p.key == k {
		return nil
	}
	coster, err := infer.NewStepCoster(k.spec)
	if err != nil {
		return err
	}
	p.coster, p.key = coster, k
	clear(p.prefillTab)
	clear(p.decodeTab)
	return nil
}

// prefill prices one prefill pass over batch newly admitted sequences at
// the reference prompt length: a filled slot's load, inlined at the call
// site, or fillPrefill's fill.
//
//optimus:hotpath
func (p *pricing) prefill(batch int) float64 {
	if batch < len(p.prefillTab) && p.prefillTab[batch] > 0 {
		return p.prefillTab[batch]
	}
	return p.fillPrefill(batch)
}

// fillPrefill is prefill's cold path: it grows the table to batch and
// prices the slot.
func (p *pricing) fillPrefill(batch int) float64 {
	for batch >= len(p.prefillTab) {
		p.prefillTab = append(p.prefillTab, 0)
	}
	t := p.coster.Prefill(batch).Time()
	p.prefillTab[batch] = t
	return t
}

// line returns batch's decode line: a filled slot's load, inlined at the
// call site, or fillLine's fill.
//
//optimus:hotpath
func (p *pricing) line(batch int) decodeLine {
	if batch < len(p.decodeTab) && p.decodeTab[batch].base > 0 {
		return p.decodeTab[batch]
	}
	return p.fillLine(batch)
}

// fillLine is line's cold path: it grows the table to batch and samples
// the slot's line at the key's two KV lengths.
func (p *pricing) fillLine(batch int) decodeLine {
	for batch >= len(p.decodeTab) {
		p.decodeTab = append(p.decodeTab, decodeLine{})
	}
	kv0, kv1 := p.key.kv0, p.key.kv1
	ln := decodeLine{base: p.coster.DecodeStep(kv0, batch).Time()}
	if kv1 > kv0 {
		ln.slope = (p.coster.DecodeStep(kv1, batch).Time() - ln.base) / float64(kv1-kv0)
	}
	p.decodeTab[batch] = ln
	return ln
}

// indexDeque is a growable ring buffer of request indices — the FIFO wait
// queue with O(1) pushFront for preemption re-queues, replacing the
// allocate-and-copy `append(requeue, queue...)` of the pointer-slice era.
// Capacity is always a power of two so position math is a mask, not a
// division.
type indexDeque struct {
	buf  []int32
	head int
	n    int
}

//optimus:hotpath
func (d *indexDeque) len() int { return d.n }

//optimus:hotpath
func (d *indexDeque) reset() { d.head, d.n = 0, 0 }

// grow doubles the buffer (minimum 64) and re-packs the live window at
// offset zero.
func (d *indexDeque) grow() {
	newCap := 2 * len(d.buf)
	if newCap < 64 {
		newCap = 64
	}
	nb := make([]int32, newCap)
	mask := len(d.buf) - 1
	for i := 0; i < d.n; i++ {
		nb[i] = d.buf[(d.head+i)&mask]
	}
	d.buf, d.head = nb, 0
}

// pushBack enqueues at the tail; amortized alloc-free (grow doubles).
//
//optimus:hotpath
func (d *indexDeque) pushBack(v int32) {
	if d.n == len(d.buf) {
		d.grow()
	}
	d.buf[(d.head+d.n)&(len(d.buf)-1)] = v
	d.n++
}

// pushFront re-enqueues a preemption victim at the head.
//
//optimus:hotpath
func (d *indexDeque) pushFront(v int32) {
	if d.n == len(d.buf) {
		d.grow()
	}
	d.head = (d.head - 1) & (len(d.buf) - 1)
	d.buf[d.head] = v
	d.n++
}

//optimus:hotpath
func (d *indexDeque) popFront() int32 {
	v := d.buf[d.head]
	d.head = (d.head + 1) & (len(d.buf) - 1)
	d.n--
	return v
}

//optimus:hotpath
func (d *indexDeque) front() int32 { return d.buf[d.head] }

// simulator is the steppable core behind Instance, and so behind Run: the
// full continuous-batching event loop as explicit state plus a step
// method, so the iteration boundary is a first-class place to observe
// load (the cluster router hook) without perturbing the sealed admission
// policies. arm sizes it from a capacity spec and an Envelope.
//
// The in-flight request state lives in a slab of pointer-free slots
// (reqs), with the queue and running set as slot-index views over it —
// the steady-state event loop moves int32 indices, never pointers, so it
// neither allocates nor pays GC write barriers. A completed request gives
// its slot back to a free list threaded through the slab, so the slab
// holds only the requests in flight. arm reuses every slab across
// simulations (the Runner pooling seam).
type simulator struct {
	spec Spec
	pol  admissionPolicy
	// pp is the paged policy's widened handle, for Paged and
	// Disaggregated (nil under ReserveFull): the prefix registry, host KV
	// tier and page pools live on it, and the event loop drains its
	// accrued link time each iteration (exactly zero without a migration
	// or a swap).
	pp *pagedPolicy
	// ps holds the policies the simulator arms, rebuilt in place by each
	// arming.
	ps policyStore
	// cross is the paged policy's crossing ring (pagedPolicy.crossSlot):
	// cross[e % pageTokens] counts the running sequences whose next token
	// at epoch e needs another page. It lives here, not on the policy, so
	// that its words serve every paged simulation the simulator arms.
	cross []int32

	// env is the Envelope the simulation is armed on, and price the
	// table of env's that it prices its steps through.
	env       *Envelope
	price     *pricing
	refPrompt int

	budget float64
	// invBudget caches 1/budget: utilization accrues once per iteration
	// and a float divide there is measurable.
	invBudget float64
	batchCap  int

	// closed marks closed-loop issuing on completion, of env's shape at
	// the next push id, until target requests are issued. keep marks an
	// Instance's simulation, whose summary keeps a sorted plane per metric
	// for SummarizeInstances. unsettled marks held page counts behind the
	// crossings coast absorbed, until step's settle.
	target    int
	closed    bool
	keep      bool
	unsettled bool

	now float64
	// reqs is the request slab: one slot per request in flight, which
	// keeps the request's push id. It grows only when every slot is in
	// flight, so its length is the simulation's peak in-flight count.
	// free heads the list of free slots, linked through their id fields
	// (-1 ends it).
	reqs    []request
	free    int
	queue   indexDeque     // slots, FIFO; preemption re-queues victims at the head
	running []int32        // slots, in admission order
	victims []int32        // beginStep's reusable victim buffer
	sums    summaryScratch // reusable percentile and tenant-grouping buffers
	// done is the request ledger, indexed by push id: pushShape appends
	// each request's entry with its shape and arrival, and complete
	// writes its timeline there, so the ledger is in push order however
	// completions interleave. Its length is the pushed count; completed
	// counts the entries complete wrote.
	done      []RequestMetrics
	completed int

	// Next-event state, which keeps an iteration that nobody joins or
	// leaves O(1). epoch counts advance rounds; while a sequence runs, its
	// slab entry's produced holds produced − epoch, so one increment of
	// epoch advances every running sequence. kvBase is Σ(prompt + that
	// offset) over the running set, from which the decoders' KV sum is
	// exact integer math. nextDone is a lower bound on the earliest epoch
	// at which a running sequence completes: only an advance reaching it
	// walks the running set.
	epoch    int
	kvBase   int
	nextDone int

	iterations int
	batchSum   float64
	peakBatch  int
	peakKV     float64
	peakPages  int
	utilSum    float64
}

// arm re-arms the simulator for a capacity spec sized from env — every
// simulation's one construction path — reusing every slab the previous
// simulation grew (request slab, ledger, queue, running/victim index
// buffers, percentile scratch), and sizes the request slab for slots
// requests in flight and the ledger for requests pushes. The policy is
// rebuilt in the simulator's store, every field reset and only its
// buffers kept, and the pricing table is env's for the key (warm under a
// key env priced before, empty otherwise), so an armed simulator is
// byte-identical to a fresh one (TestRunnerReuseMatchesFresh).
func (sim *simulator) arm(s Spec, env *Envelope, slots, requests int) error {
	// One policy per simulation: the KV geometry behind it is derived
	// exactly once, never per iteration.
	pol, err := s.fit(env, &sim.ps)
	if err != nil {
		return err
	}
	pp, _ := pol.(*pagedPolicy)
	if pp != nil {
		// The readmission swap-in-vs-recompute decision prices the
		// recompute path through the simulator's prefill table.
		pp.sim = sim
		// An instance abandoned before it drained leaves counts in the
		// crossing ring.
		if cap(sim.cross) < pp.pageTokens {
			sim.cross = make([]int32, pp.pageTokens)
		} else {
			sim.cross = sim.cross[:pp.pageTokens]
			clear(sim.cross)
		}
	}
	// The step cost is linear in the KV length at fixed batch and the
	// prefill cost is fixed per batch, so each batch size needs at most
	// three kernel-enumeration passes; every further iteration prices in
	// O(1). Plain float math on cached samples, so determinism is
	// untouched. The decode line is sampled at the envelope's extreme KV
	// lengths — for the degenerate single-tenant workload exactly the PR-3
	// prompt+1 .. prompt+gen span — and, being a line, prices every
	// intermediate per-request length exactly.
	bounds := env.bounds
	if sim.price, err = env.table(pricingKey{spec: s.inferSpec(bounds), kv0: bounds.MinPrompt + 1, kv1: bounds.MaxContext}); err != nil {
		return err
	}
	sim.spec = s
	sim.pol = pol
	sim.pp = pp
	sim.refPrompt = bounds.MaxPrompt
	sim.budget = pol.budgetBytes()
	sim.invBudget = 1 / sim.budget
	sim.batchCap = pol.BatchCap()
	sim.env, sim.target, sim.closed = env, 0, false
	sim.now = 0
	sim.reqs, sim.free = reuse(sim.reqs, slots), -1
	sim.queue.reset()
	sim.running = sim.running[:0]
	sim.victims = sim.victims[:0]
	// done becomes Result.PerRequest: the next arm writes over the
	// previous simulation's ledger, which is why a pooled Runner's Result
	// refers to it only until the Runner's next simulation.
	sim.done, sim.completed = reuse(sim.done, requests), 0
	sim.epoch, sim.kvBase, sim.nextDone, sim.unsettled = 0, 0, 0, false
	sim.iterations = 0
	sim.batchSum = 0
	sim.peakBatch = 0
	sim.peakKV = 0
	sim.peakPages = 0
	sim.utilSum = 0
	return nil
}

// reuse empties buf, replacing it with an empty slice of capacity n if
// it holds less.
func reuse[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, 0, n)
	}
	return buf[:0]
}

// pushShape appends one request arriving at t to the FIFO queue; it joins
// the batch at the next iteration boundary (iteration-level batching).
// Push ids are issued densely in order, so the request's id is the
// ledger's length: pushShape appends its ledger entry, with its shape and
// arrival, and gives it a slab slot, a free one if any. A shared prefix
// is interned into the paged policy's registry here, once per push —
// admission then works with a registry slot, never the string.
//
//optimus:hotpath
func (sim *simulator) pushShape(sh workload.Request, t float64) {
	// Both records are written in place: a composite literal appended or
	// assigned whole is built in a temporary and copied.
	id := len(sim.done)
	sim.done = append(sim.done, RequestMetrics{})
	m := &sim.done[id]
	m.ID, m.Tenant, m.PromptTokens, m.GenTokens, m.Arrival = id, sh.Tenant, sh.PromptTokens, sh.GenTokens, t
	slot := sim.free
	if slot < 0 {
		slot = len(sim.reqs)
		sim.reqs = append(sim.reqs, request{})
	} else {
		sim.free = sim.reqs[slot].id
		sim.reqs[slot] = request{}
	}
	r := &sim.reqs[slot]
	r.id, r.prompt, r.gen, r.prefix, r.prefixSlot = id, sh.PromptTokens, sh.GenTokens, sh.PrefixTokens, -1
	if sh.PrefixTokens > 0 {
		r.prefixSlot = sim.pp.intern(sh.PrefixID, sh.PrefixTokens)
	}
	sim.queue.pushBack(int32(slot))
}

// recomputeCost prices a recompute-readmission prefill over tokens: the
// single-sequence prefill sample scaled to the true token count — the
// same linear scaling step applies when billing a mixed batch's prefill.
// The swap-in-vs-recompute decision compares against this.
//
//optimus:hotpath
func (sim *simulator) recomputeCost(tokens int) float64 {
	t := sim.price.prefill(1)
	if tokens != sim.refPrompt {
		t *= float64(tokens) / float64(sim.refPrompt)
	}
	return t
}

// idle reports whether the simulator holds no admissible work: stepping an
// idle simulator would make no progress, so a push jumps the clock
// instead.
//
//optimus:hotpath
func (sim *simulator) idle() bool {
	return len(sim.running) == 0 && sim.queue.len() == 0
}

// step executes one batching iteration: policy bookkeeping and preemption,
// admission, pricing, and sequence advancement. It requires pending work
// (queue or running non-empty) and always advances the clock. An
// iteration in which nobody joins, leaves, crosses a page or migrates
// costs O(1): the advance is one epoch increment, the decoders' KV sum
// comes from kvBase, the paged policy's crossing ring says whether its
// scan has work, and the running set is walked only by that scan, by a
// newcomer's first token and by an advance that reaches nextDone. The
// iterations after it in which nobody joins, leaves or migrates, and
// whose page crossings fit, run in coast's tight loop. The float adds to
// now, utilSum and batchSum stay one per iteration, in order, so results
// are bit-identical to walking every sequence
// (FuzzStepMatchesReference). step first settles the held pages of the
// crossings coasts absorbed since the last step (pagedPolicy.settle):
// held pages are read only inside step, by beginStep, evict and release.
//
//optimus:hotpath
func (sim *simulator) step() {
	if sim.unsettled {
		sim.pp.settle(sim.reqs, sim.running, sim.epoch)
		sim.unsettled = false
	}
	// Let the policy make room for every established sequence's next
	// token; under the paged policy this is where victims are chosen
	// (LIFO) and sent back to the head of the queue for a recompute
	// readmission.
	kept, victims := sim.pol.beginStep(sim.reqs, sim.running, sim.victims[:0])
	sim.running = kept
	sim.victims = victims
	// Victims were collected youngest-first; pushing each to the queue
	// head in that order leaves the longest-running (most to rebuild)
	// victim at the head for readmission. A victim keeps its produced
	// count (evict wrote it back from the epoch offset): readmission
	// prices one prefill pass that rebuilds the discarded KV — vLLM's
	// recompute preemption, where already-generated tokens are recovered
	// as context by the recompute prefill, not decoded again — and the
	// sequence resumes from where it was evicted.
	for _, vi := range victims {
		r := &sim.reqs[vi]
		sim.kvBase -= r.prompt + r.produced - sim.epoch
		r.preempts++
		sim.queue.pushFront(vi)
	}

	// Admit waiting requests up to the batch cap and the policy's KV
	// capacity. An iteration that just preempted skips admission — the
	// pool is under pressure, and admitting would thrash the victim
	// straight back in.
	newbies, prefillTokens, newbieKV := 0, 0, 0
	if len(victims) == 0 {
		for sim.queue.len() > 0 && len(sim.running) < sim.batchCap && sim.pol.admit(&sim.reqs[sim.queue.front()]) {
			slot := sim.queue.popFront()
			r := &sim.reqs[slot]
			if r.admissions == 0 {
				r.admitted = sim.now
			}
			r.admissions++
			sim.running = append(sim.running, slot)
			newbies++
			// The pass prefills this request's own prompt; a resumed
			// victim's recompute prefill spans its generated tokens
			// too — bill the true token count below. Tokens the policy
			// restored for free (a resident prefix's span, a host-tier
			// swap-in's) drop out of the bill; the swap itself is priced
			// separately on the link via drainLinks.
			prefillTokens += r.prompt + r.produced - r.prefillFree
			// Join the next-event state: produced becomes an offset from
			// the epoch, and the completion epoch gen − offset bounds
			// nextDone.
			r.produced -= sim.epoch
			sim.nextDone = min(sim.nextDone, r.gen-r.produced)
			sim.kvBase += r.prompt + r.produced
			newbieKV += r.prompt + r.produced
		}
	}
	kv := sim.pol.usedBytes()
	sim.notePeaks(kv, sim.pol.usedPages())
	// The conversion rounds the product before the add, so no
	// architecture fuses them: stretch's hoisted increment is the same
	// rounded product.
	sim.utilSum += float64(kv * sim.invBudget)
	if len(sim.running) > sim.peakBatch {
		sim.peakBatch = len(sim.running)
	}
	// Read the probe hook without copying the whole Spec — step runs once
	// per iteration and a struct copy here is measurable.
	if sim.spec.probe != nil {
		sim.observe(kv, newbies)
	}

	// Price the iteration: one prefill pass over the newly admitted
	// sequences plus one decode step over the established ones. The
	// decode batch is priced at its mean KV length — exact under the
	// step cost's linearity in kvLen (TestDecodeStepLinearInKV).
	var iterTime float64
	if newbies > 0 {
		// The prefill sample prices newbies * refPrompt tokens. Batches
		// whose requests carry shorter prompts — and resumed preemption
		// victims, whose recompute prefill also rebuilds their generated
		// tokens' KV — scale the sample by the true token count:
		// per-token linear, which slightly undercharges the quadratic
		// attention share but keeps recompute far from free (and leaves
		// uniform fresh-only batches, the degenerate-equivalence path,
		// untouched).
		t := sim.price.prefill(newbies)
		if ref := newbies * sim.refPrompt; prefillTokens != ref {
			t *= float64(prefillTokens) / float64(ref)
		}
		iterTime += t
	}
	if deciders := len(sim.running) - newbies; deciders > 0 {
		// The step generating token produced+1 attends over each
		// decoder's own prompt plus every generated token including the
		// new one: Σ(prompt + offset + epoch + 1) over the decoders, the
		// running set's kvBase without the newcomers' terms.
		kvSum := sim.kvBase - newbieKV + deciders*(sim.epoch+1)
		p := sim.price
		iterTime += p.line(deciders).at(float64(kvSum)/float64(deciders), float64(p.key.kv0))
	}
	if sim.pp != nil {
		// KV migrations accrued by this iteration's pool hand-offs, and
		// host-tier swaps accrued by its evictions and readmissions,
		// serialize on their links and stall the step. An
		// infinite-bandwidth link, or a layout with neither, contributes
		// exactly zero, preserving the degenerate paged timing bit for bit.
		iterTime += sim.pp.drainLinks()
	}
	sim.iterations++
	sim.batchSum += float64(len(sim.running))
	sim.now += iterTime

	// Advance sequences: prefill emits the first token, decode steps one
	// more each — one epoch for the whole running set. Only a newcomer can
	// emit its first token; the firstToken guard keeps the first emission
	// across preemptions (every iteration has positive duration, so 0
	// means unset).
	sim.epoch++
	for _, slot := range sim.running[len(sim.running)-newbies:] {
		r := &sim.reqs[slot]
		if r.produced+sim.epoch == 1 && r.firstToken == 0 {
			r.firstToken = sim.now
		}
	}
	if sim.epoch >= sim.nextDone {
		sim.complete()
	}
}

// coast runs the iterations that follow while each would be pure decode
// — nobody joins, leaves or migrates, and any page crossing fits — and
// the clock is short of t: the stretches between arrivals and completions
// that dominate a lightly loaded instance. Such an iteration's batch is
// the previous one's and the decoders' KV sum moves by one token each per
// epoch. Its KV bytes and pages are the previous one's too, except at a
// page-crossing epoch: when the crossers fit, coast grows them as
// beginStep's scan would (pagedPolicy.absorb) and re-derives the
// iteration's KV bytes and peaks; when they do not, it stops and leaves
// the eviction to step. Each coasted iteration still prices its decode
// step on the batch's line and makes the one add apiece to utilSum,
// batchSum and now, in step's order, with the operands step would add, so
// a coasted run is bit-identical to stepping it on every architecture
// (FuzzStepMatchesReference). The committed pages are exact whenever
// coast returns, for a router reading Load; the crossers' held page
// counts are not; coast marks them unsettled and the next step settles
// them, however many coasts come between, before anything reads them.
// coast checks its own preconditions, so it may be called where a step
// is due, which it leaves to step. The probe observes every iteration,
// so a probed run never coasts.
//
//optimus:hotpath
func (sim *simulator) coast(t float64) {
	n := len(sim.running)
	if n == 0 || sim.spec.probe != nil || (sim.queue.len() > 0 && n < sim.batchCap) {
		return
	}
	// The iteration starting at epoch e coasts while its advance to e+1
	// stays short of nextDone, which would need the completion walk, and
	// while the policy's beginStep has nothing to do at e but page
	// crossings that fit.
	e, last := sim.epoch, sim.nextDone-1
	cross := sim.pol.steadyUntil(sim.reqs, sim.running, last)
	if e >= last || cross < e || !(sim.now < t) {
		return
	}
	kv := sim.pol.usedBytes()
	sim.notePeaks(kv, sim.pol.usedPages())
	if n > sim.peakBatch {
		sim.peakBatch = n
	}
	for {
		sim.stretch(min(cross, last), t, kv)
		// Short of last and t, the stretch stopped at a page crossing.
		e = sim.epoch
		if e == last || !(sim.now < t) || !sim.pp.absorb(e) {
			break
		}
		sim.unsettled = true
		cross = sim.pp.nextCross(e+1, last)
		kv = sim.pp.usedBytes()
		sim.notePeaks(kv, sim.pp.usedPages())
	}
}

// stretch runs coast's decode-only iterations from the current epoch up
// to stop while the clock is short of t, each at KV bytes kv. Everything
// an iteration's price and accruals share is read once, before the loop:
// the batch's decode line and its first KV sample, the batch size as a
// float, and the utilization increment, rounded by its conversion exactly
// as step rounds its own, so no architecture fuses it into the loop's add.
// The loop body is then step's three adds, in step's order, and one
// decode price; the decoders' KV sum is integer math, advanced by the
// batch size each epoch.
//
//optimus:hotpath
func (sim *simulator) stretch(stop int, t, kv float64) {
	n, e := len(sim.running), sim.epoch
	ln, kv0 := sim.price.line(n), float64(sim.price.key.kv0)
	fn, du := float64(n), float64(kv*sim.invBudget)
	kvSum := sim.kvBase + n*(e+1)
	now, utilSum, batchSum := sim.now, sim.utilSum, sim.batchSum
	for ; e < stop && now < t; e++ {
		utilSum += du
		now += ln.at(float64(kvSum)/fn, kv0)
		batchSum += fn
		kvSum += n
	}
	sim.iterations += e - sim.epoch
	sim.epoch = e
	sim.now, sim.utilSum, sim.batchSum = now, utilSum, batchSum
}

// notePeaks raises the KV-byte and committed-page peaks to an
// iteration's values.
//
//optimus:hotpath
func (sim *simulator) notePeaks(kv float64, pages int) {
	if kv > sim.peakKV {
		sim.peakKV = kv
	}
	if pages > sim.peakPages {
		sim.peakPages = pages
	}
}

// complete walks the running set in admission order once an advance
// reaches nextDone: completed requests leave, free their KV, write their
// timeline into the ledger and give their slots back, and the survivors'
// earliest completion epoch becomes nextDone.
//
//optimus:hotpath
func (sim *simulator) complete() {
	alive := sim.running[:0]
	next := math.MaxInt
	for _, slot := range sim.running {
		r := &sim.reqs[slot]
		if done := r.gen - r.produced; done > sim.epoch {
			alive = append(alive, slot)
			next = min(next, done)
			continue
		}
		sim.kvBase -= r.prompt + r.produced
		r.produced += sim.epoch
		sim.pol.release(r)
		// pushShape wrote the entry's shape and arrival, and zeroed the
		// rest: write the timeline in place, with no temporary record to
		// copy.
		m := &sim.done[r.id]
		m.Admitted, m.FirstToken, m.Done = r.admitted, r.firstToken, sim.now
		m.Queue = r.admitted - m.Arrival
		m.TTFT = r.firstToken - m.Arrival
		m.E2E = sim.now - m.Arrival
		m.Preemptions, m.KVTransfers, m.KVTransferTime = r.preempts, r.transfers, r.transferTime
		if r.gen > 1 {
			m.TPOT = (sim.now - r.firstToken) / float64(r.gen-1)
		}
		sim.completed++
		r.id, sim.free = sim.free, int(slot)
		if sim.closed && len(sim.done) < sim.target {
			// pushShape takes the slot just freed; r and m are not
			// referenced past here.
			sim.pushShape(sim.env.Shape(len(sim.done)), sim.now)
		}
	}
	sim.running = alive
	sim.nextDone = next
}

// observe hands the test-only probe this iteration's KV accounting,
// sampled after admission (newbies of the running set were admitted this
// iteration) and before pricing.
func (sim *simulator) observe(kv float64, newbies int) {
	held := 0
	for _, slot := range sim.running {
		held += sim.reqs[slot].pages
	}
	_, totalPages := sim.pol.PageGeometry()
	ps := probeState{
		iteration: sim.iterations, running: len(sim.running), queued: sim.queue.len(),
		usedPages: sim.pol.usedPages(), totalPages: totalPages, runningPages: held,
		usedBytes: kv, budget: sim.budget,
	}
	if pp := sim.pp; pp != nil {
		ps.prefixPages = pp.residentPrefixPages()
		ps.hostPages, ps.hostTotal = pp.hostUsed, pp.hostTotal
		ps.prefillPages, ps.prefillTotal = pp.prefillUsed, pp.prefillTotal
		ps.decodePages, ps.decodeTotal = pp.used-pp.prefillUsed, pp.decodeTotal
		for _, slot := range sim.running {
			r := &sim.reqs[slot]
			if r.inDecode {
				ps.runningDecodePages += r.pages
			} else {
				ps.runningPrefillPages += r.pages
			}
		}
		for _, slot := range sim.running[:len(sim.running)-newbies] {
			if !sim.reqs[slot].inDecode {
				ps.decidersInPrefill++
			}
		}
	}
	sim.spec.probe(ps)
}

// finish assembles the Result over the request ledger. An instance that
// was never pushed a request reports a zero Result (no iterations to
// average).
func (sim *simulator) finish() Result {
	s := sim.spec
	sum := sim.sums.summarize(sim.done, sim.keep)
	pageTokens, totalPages := sim.pol.PageGeometry()
	preemptions, recomputed := sim.pol.counters()
	res := Result{
		Requests:         sum.Requests,
		SimTime:          sim.now,
		Iterations:       sim.iterations,
		PeakBatch:        sim.peakBatch,
		PeakKVBytes:      sim.peakKV,
		MaxBatch:         sim.batchCap,
		KVCapacity:       sim.budget,
		Policy:           s.Policy,
		PageTokens:       pageTokens,
		KVPagesTotal:     totalPages,
		PeakKVPages:      sim.peakPages,
		Preemptions:      preemptions,
		RecomputedTokens: recomputed,
		PerRequest:       sim.done,
	}
	if sim.iterations > 0 {
		res.MeanBatch = sim.batchSum / float64(sim.iterations)
		res.MeanKVUtil = sim.utilSum / float64(sim.iterations)
	}
	if pp := sim.pp; pp != nil {
		res.PrefixHits, res.PrefixSavedTokens = pp.prefixHits, pp.prefixSaved
		res.HostPagesTotal, res.PeakHostPages = pp.hostTotal, pp.peakHost
		res.KVSwapOuts, res.KVSwapIns, res.SwapTimeTotal = pp.swapOuts, pp.swapIns, pp.swapTotal
		res.KVTransfers, res.TransferTimeTotal = pp.transfers, pp.transferTotal
		if pp.split {
			c := s.canonical(sim.price.key.kv1)
			res.PrefillDevices, res.DecodeDevices = c.PrefillDevices, c.DecodeDevices
			res.PrefillPagesTotal, res.DecodePagesTotal = pp.prefillTotal, pp.decodeTotal
			res.PeakPrefillPages, res.PeakDecodePages = pp.peakPrefill, pp.peakDecode
		}
	}
	if sim.now > 0 {
		res.ThroughputRPS = float64(sum.Requests) / sim.now
		res.TokensPerSec = float64(sum.GenTokens) / sim.now
	}
	res.TTFT, res.TPOT, res.E2E, res.Queue = sum.TTFT, sum.TPOT, sum.E2E, sum.Queue
	res.PerTenant = sum.PerTenant
	return res
}

// Summary is the SLO surface of a completed request set — a simulator's
// request ledger or a fleet's merged one, in any order: the aggregate
// group summary over every request (its Tenant is empty), whose request
// count and generated tokens the throughputs divide, and one group
// summary per tenant, as Result reports them.
type Summary struct {
	TenantMetrics
	PerTenant []TenantMetrics
}

// SummarizeInstances summarizes the union of the instances' completed
// request sets exactly as Run summarizes their concatenation, without
// sorting a sample again: each instance's Result kept its tenants' sorted
// runs, and a tenant's runs from every instance merge into the tenant's
// fleet run. Every instance must have assembled its Result. The merge
// keeps its buffers, the Summary's PerTenant among them, on the first
// instance's simulator: a caller that summarizes the same pooled
// instances run after run, as a pooled cluster.Runner does, allocates
// nothing here in steady state, and the Summary's PerTenant is written
// over by the next merge that instance leads.
func SummarizeInstances(ins []*Instance) (Summary, error) {
	if len(ins) == 0 {
		return Summary{PerTenant: []TenantMetrics{}}, nil
	}
	fs := ins[0].sim.sums.fleet
	if fs == nil {
		fs = new(fleetScratch)
		ins[0].sim.sums.fleet = fs
	}
	// The instances' tenants, united in name order.
	per := fs.per[:0]
	for i, in := range ins {
		if in.tenants == nil {
			return Summary{}, fmt.Errorf("serve: instance %d: summary before its result", i)
		}
		for _, tm := range in.tenants {
			if u, found := slices.BinarySearchFunc(per, tm.Tenant, byTenant); !found {
				per = slices.Insert(per, u, TenantMetrics{Tenant: tm.Tenant})
			}
		}
	}
	if per == nil {
		per = []TenantMetrics{} // an empty breakdown is not nil, as summarize's
	}
	fs.per = per
	R := len(ins)
	s := Summary{PerTenant: per}
	// spans[u*R+r] delimits instance r's run of tenant u in each of its
	// planes; an instance without the tenant has an empty span.
	spans := slices.Grow(fs.spans[:0], len(per)*R)[:len(per)*R]
	clear(spans)
	fs.spans = spans
	for r, in := range ins {
		lo, u := 0, 0
		for _, tm := range in.tenants {
			for per[u].Tenant != tm.Tenant {
				u++
			}
			spans[u*R+r] = [2]int{lo, lo + tm.Requests}
			lo += tm.Requests
			per[u].Requests += tm.Requests
			per[u].GenTokens += tm.GenTokens
		}
	}
	for _, pt := range per {
		s.Requests += pt.Requests
		s.GenTokens += pt.GenTokens
	}
	m := &fs.merge
	fs.plane = reuse(fs.plane, s.Requests)[:s.Requests]
	plane := fs.plane
	for k := range numMetrics {
		lo := 0
		for u, pt := range per {
			runs := fs.runs[:0]
			for r, in := range ins {
				if sp := spans[u*R+r]; sp[1] > sp[0] {
					runs = append(runs, in.sim.sums.plane(k, len(in.sim.done))[sp[0]:sp[1]])
				}
			}
			fs.runs = runs
			m.merge(plane[lo:lo+pt.Requests], runs)
			lo += pt.Requests
		}
		m.fill(&s, plane, k)
	}
	return s, nil
}

// byTenant orders a breakdown by tenant name.
func byTenant(tm TenantMetrics, name string) int { return strings.Compare(tm.Tenant, name) }

// numMetrics counts the latency metrics a group summary reports: TTFT,
// TPOT, E2E and Queue, in that order.
const numMetrics = 4

// sample returns m's latency metric k.
func (m *RequestMetrics) sample(k int) float64 {
	return [numMetrics]float64{m.TTFT, m.TPOT, m.E2E, m.Queue}[k]
}

// metric returns g's summary of latency metric k.
func (g *TenantMetrics) metric(k int) *Percentiles {
	return [numMetrics]*Percentiles{&g.TTFT, &g.TPOT, &g.E2E, &g.Queue}[k]
}

// summaryScratch holds the buffers a summary pass reuses and, after a
// pass, the sorted samples it summarized. runs holds one plane of samples
// per metric after a kept pass — an Instance's, for SummarizeInstances to
// merge — and otherwise one plane the metrics take in turn. A plane holds
// the tenants' runs in name order, each sorted, so the pass's breakdown
// delimits them by request count.
type summaryScratch struct {
	runs []float64
	// per backs the pass's breakdown (Summary.PerTenant), so a pooled
	// Runner's Result refers to it as it does to the ledger.
	per []TenantMetrics
	// tenants holds the multi-tenant grouping buffers, made by the first
	// pass that groups.
	tenants *tenantScratch
	// fleet holds the buffers of the SummarizeInstances merges this
	// simulator's instance leads, made by the first such merge.
	fleet *fleetScratch
}

// fleetScratch holds a SummarizeInstances merge's buffers: the merged
// breakdown, each tenant's span in each instance's planes, the runs of
// one tenant's merge, the merged plane and the merge heap.
type fleetScratch struct {
	per   []TenantMetrics
	spans [][2]int
	runs  [][]float64
	plane []float64
	merge runMerger
}

// tenantScratch holds a multi-tenant pass's grouping: each request's
// position in a plane (pos), the tenants in first-seen order (names) and
// their slots by name (index); the slots' name order, each slot's rank in
// it and the run cursors (ints).
type tenantScratch struct {
	pos   []int32
	names []string
	index map[string]int32
	ints  []int
	merge runMerger
}

// plane returns the samples of metric k after an n-request pass: the
// metric's own plane after a kept pass, the shared one otherwise.
func (sc *summaryScratch) plane(k, n int) []float64 {
	if len(sc.runs) == n {
		return sc.runs
	}
	return sc.runs[k*n : (k+1)*n]
}

// summarize computes done's Summary, keeping a plane per metric if keep
// is set, and sorting each sample once: one bucketing pass gives each
// tenant its run of a plane, and runMerger.fill reads the sorted runs. In
// the ubiquitous single-tenant case the one run is the aggregate's and the
// tenant's summary is a copy of it (same samples, same math). An empty set
// yields a non-nil empty breakdown.
func (sc *summaryScratch) summarize(done []RequestMetrics, keep bool) Summary {
	n := len(done)
	if n == 0 {
		return Summary{PerTenant: []TenantMetrics{}}
	}
	planes := 1
	if keep {
		planes = numMetrics
	}
	sc.runs = slices.Grow(sc.runs[:0], planes*n)[:planes*n]
	single := true
	for i := 1; i < n && single; i++ {
		single = done[i].Tenant == done[0].Tenant
	}
	s := Summary{TenantMetrics: TenantMetrics{Requests: n}}
	if single {
		for i := range done {
			s.GenTokens += done[i].GenTokens
		}
		for k := range numMetrics {
			run := sc.plane(k, n)
			for i := range done {
				run[i] = done[i].sample(k)
			}
			*s.metric(k) = percentiles(run)
		}
		sc.per = append(sc.per[:0], s.TenantMetrics)
		sc.per[0].Tenant = done[0].Tenant
		s.PerTenant = sc.per
		return s
	}
	ts := sc.tenants
	if ts == nil {
		ts = new(tenantScratch)
		sc.tenants = ts
	}
	sc.per = ts.bucket(done, sc.per)
	s.PerTenant = sc.per
	for _, tm := range s.PerTenant {
		s.GenTokens += tm.GenTokens
	}
	for k := range numMetrics {
		plane := sc.plane(k, n)
		for i, j := range ts.pos {
			plane[j] = done[i].sample(k)
		}
		lo := 0
		for _, tm := range s.PerTenant {
			slices.Sort(plane[lo : lo+tm.Requests])
			lo += tm.Requests
		}
		ts.merge.fill(&s, plane, k)
	}
	return s
}

// bucket groups done by tenant in one pass over the requests, then
// renumbers the slots in name order. It leaves in ts.pos each request's
// position in a plane that holds the tenants' runs in name order, each in
// request order, and returns the breakdown with each tenant's name,
// request count and generated tokens, written over dst's memory.
func (ts *tenantScratch) bucket(done []RequestMetrics, dst []TenantMetrics) []TenantMetrics {
	if ts.index == nil {
		ts.index = make(map[string]int32)
	}
	clear(ts.index)
	ts.names = ts.names[:0]
	// pos holds each request's tenant slot, then the slot's rank, then
	// the request's plane position.
	pos := slices.Grow(ts.pos[:0], len(done))[:len(done)]
	t := int32(-1)
	for i := range done {
		// Consecutive requests often share a tenant: look up the changes.
		if name := done[i].Tenant; t < 0 || ts.names[t] != name {
			j, ok := ts.index[name]
			if !ok {
				j = int32(len(ts.names))
				ts.names = append(ts.names, name)
				ts.index[name] = j
			}
			t = j
		}
		pos[i] = t
	}
	T := len(ts.names)
	ts.ints = slices.Grow(ts.ints[:0], 3*T)[:3*T]
	order, rank, at := ts.ints[:T], ts.ints[T:2*T], ts.ints[2*T:]
	for j := range order {
		order[j] = j
	}
	slices.SortFunc(order, func(a, b int) int { return strings.Compare(ts.names[a], ts.names[b]) })
	tenants := slices.Grow(dst[:0], T)[:T]
	clear(tenants)
	for j, o := range order {
		rank[o] = j
		tenants[j].Tenant = ts.names[o]
	}
	for i := range pos {
		r := int32(rank[pos[i]])
		pos[i] = r
		tenants[r].Requests++
		tenants[r].GenTokens += done[i].GenTokens
	}
	lo := 0
	for r, tm := range tenants {
		at[r] = lo
		lo += tm.Requests
	}
	for i, r := range pos {
		pos[i] = int32(at[r])
		at[r]++
	}
	ts.pos = pos
	return tenants
}

// runMerger k-way merges sorted runs through a min-heap of their heads.
// A head caches its run's next sample and cursor, so the heap orders
// plain floats and a merge step writes no pointer.
type runMerger struct {
	heap []runHead
	segs [][]float64
}

// runHead is run's next unmerged sample v and the index after it.
type runHead struct {
	v         float64
	run, next int32
}

// fill sets metric k of s's aggregate and tenant summaries from plane,
// which holds the tenants' sorted runs in name order: each tenant reads
// its run, and the aggregate their merge (a lone tenant's run is the
// aggregate's).
func (m *runMerger) fill(s *Summary, plane []float64, k int) {
	if len(s.PerTenant) == 1 {
		*s.metric(k) = sortedPercentiles(plane)
		*s.PerTenant[0].metric(k) = *s.metric(k)
		return
	}
	m.segs = m.segs[:0]
	lo := 0
	for t := range s.PerTenant {
		run := plane[lo : lo+s.PerTenant[t].Requests]
		lo += len(run)
		*s.PerTenant[t].metric(k) = sortedPercentiles(run)
		m.segs = append(m.segs, run)
	}
	*s.metric(k) = m.percentiles(m.segs)
}

// load starts a merge of runs: the heap of the non-empty runs' heads, in
// heap order, and the runs' total length.
//
//optimus:hotpath
func (m *runMerger) load(runs [][]float64) ([]runHead, int) {
	h, n := m.heap[:0], 0
	for i, r := range runs {
		if len(r) > 0 {
			h = append(h, runHead{v: r[0], run: int32(i), next: 1})
			n += len(r)
		}
	}
	m.heap = h
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	return h, n
}

// pop advances the run at the heap's top past its head, dropping the run
// once it is spent, and returns the heap.
//
//optimus:hotpath
func pop(runs [][]float64, h []runHead) []runHead {
	top := &h[0]
	if r := runs[top.run]; int(top.next) < len(r) {
		top.v = r[top.next]
		top.next++
	} else {
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
	}
	siftDown(h, 0)
	return h
}

// merge writes the sorted runs' union into dst, which it fills.
//
//optimus:hotpath
func (m *runMerger) merge(dst []float64, runs [][]float64) {
	h, _ := m.load(runs)
	for j := range dst {
		dst[j] = h[0].v
		h = pop(runs, h)
	}
}

// percentiles returns the Percentiles of the sorted runs' union: exactly
// percentiles of their concatenation, since merging the runs yields the
// one sorted sequence sorting would (no latency is NaN or −0, so equal
// samples are equal bits), and Mean sums that sequence in the same order.
//
//optimus:hotpath
func (m *runMerger) percentiles(runs [][]float64) Percentiles {
	h, n := m.load(runs)
	switch len(h) {
	case 0:
		return Percentiles{}
	case 1:
		return sortedPercentiles(runs[h[0].run])
	}
	p50, p95, p99 := rankIndex(0.50, n), rankIndex(0.95, n), rankIndex(0.99, n)
	var p Percentiles
	var sum, v float64
	for j := range n {
		v = h[0].v
		h = pop(runs, h)
		sum += v
		if j == p50 {
			p.P50 = v
		}
		if j == p95 {
			p.P95 = v
		}
		if j == p99 {
			p.P99 = v
		}
	}
	p.Mean = sum / float64(n)
	p.Max = v
	return p
}

// siftDown restores the heap order below h[i].
//
//optimus:hotpath
func siftDown(h []runHead, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].v < h[c].v {
			c++
		}
		if !(h[c].v < h[i].v) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
