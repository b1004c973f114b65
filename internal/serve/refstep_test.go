package serve

import (
	"encoding/json"
	"math"
	"testing"

	"optimus/internal/arch"
	"optimus/internal/comm"
	"optimus/internal/tech"
	"optimus/internal/workload"
)

// This file freezes the event loop as it stood before the next-event
// bookkeeping (epochs, incremental KV sums, the next-completion epoch,
// the page-crossing ring, the idle-prefix bitset) replaced its
// per-sequence walks: refStep, the two policies' refBeginStep and
// refReclaimIdle are the earlier bodies, kept as the reference that
// FuzzStepMatchesReference runs the live loop against. Only the calls
// between the frozen functions are renamed, and refReclaimIdle also clears
// the idle bit that the shared admit path reads; they share admission,
// release, eviction and pricing with the live loop.
//
// The reference keeps each running sequence's produced as a plain count
// and never advances sim.epoch. At epoch 0 the live encoding (produced −
// epoch while running) is the count itself, so the shared admit and
// evict paths read the same values under both loops.

// FuzzStepMatchesReference is the differential harness behind the
// next-event loop: over generated workloads — two-tenant heavy-tailed
// mixes, shared prefixes, rate schedules, session cohorts and closed
// loops — under every admission policy, with page sizes, NoPreempt, a
// host KV tier and split pools, every spec Validate accepts must give
// byte-identical JSON Results under Run — probed, which steps every
// iteration, and unprobed, which coasts between events — and under
// refRun, and the live loop's next-event state must hold at every probed
// iteration (checkNextEvent). An open-loop input is also pushed into an
// Instance that is advanced to barriers between its arrivals, which must
// give the same bytes.
func FuzzStepMatchesReference(f *testing.F) {
	base := fuzzBase(f)
	// Two devices, so a split can give each pool a strict half.
	sys, err := arch.SystemOf(arch.A100(), 2, 8, tech.NVLink3, tech.IBNDR)
	if err != nil {
		f.Fatal(err)
	}
	base.System, base.TP = sys, 2

	// policy, prompt, gen, promptSigma, genSigma, second tenant, prefix,
	// turns, think, schedule, rate, requests, seed, maxBatch, kvGB,
	// pageTokens, noPreempt, hostGB, split, clients
	f.Add(uint8(0), 200, 200, 0.0, 0.0, false, 0, 0, 0.0, false, 2.0, 16, int64(1), 0, 0.0, 0, false, 0.0, false, 0)
	f.Add(uint8(0), 300, 150, 0.8, 0.6, true, 0, 0, 0.0, false, 4.0, 16, int64(2), 0, 0.0, 0, false, 0.0, false, 0)
	f.Add(uint8(0), 120, 60, 0.5, 0.5, true, 0, 0, 0.0, false, 0.0, 16, int64(3), 0, 0.0, 0, false, 0.0, false, 4)
	f.Add(uint8(1), 200, 100, 0.0, 0.0, false, 0, 0, 0.0, false, 8.0, 16, int64(4), 0, 0.3, 16, false, 0.0, false, 0)
	f.Add(uint8(1), 100, 50, 0.3, 0.3, true, 32, 0, 0.0, false, 8.0, 16, int64(5), 0, 1.4, 8, false, 0.0, false, 0)
	f.Add(uint8(1), 200, 100, 0.0, 0.3, false, 0, 3, 1.0, false, 6.0, 16, int64(6), 0, 1.5, 16, false, 0.0, false, 0)
	f.Add(uint8(1), 120, 40, 0.0, 0.0, true, 0, 2, 0.0, true, 16.0, 16, int64(7), 2, 0.45, 4, false, 0.0, false, 0)
	f.Add(uint8(1), 200, 100, 0.3, 0.3, false, 0, 0, 0.0, false, 16.0, 16, int64(8), 0, 1.0, 16, false, 0.3, false, 0)
	f.Add(uint8(1), 200, 100, 0.0, 0.0, true, 48, 0, 0.0, true, 6.0, 16, int64(9), 0, 0.6, 16, false, 0.2, false, 0)
	f.Add(uint8(1), 200, 100, 0.0, 0.0, false, 0, 3, 0.5, false, 6.0, 16, int64(10), 0, 1.5, 16, false, 0.5, false, 0)
	f.Add(uint8(1), 100, 50, 0.3, 0.3, true, 0, 0, 0.0, false, 16.0, 16, int64(11), 0, 1.4, 16, true, 0.0, false, 0)
	f.Add(uint8(1), 160, 80, 0.3, 0.3, false, 0, 0, 0.0, false, 0.0, 16, int64(12), 0, 0.85, 16, false, 0.0, false, 6)
	f.Add(uint8(2), 300, 150, 0.8, 0.6, true, 0, 0, 0.0, true, 2.0, 16, int64(13), 4, 0.0, 0, false, 0.0, false, 0)
	f.Add(uint8(2), 100, 50, 0.3, 0.3, true, 0, 0, 0.0, false, 16.0, 16, int64(14), 0, 3.0, 16, false, 0.0, true, 0)
	f.Add(uint8(2), 120, 60, 0.0, 0.0, false, 0, 0, 0.0, true, 8.0, 16, int64(15), 0, 0.3, 8, false, 0.0, true, 0)
	f.Add(uint8(2), 100, 50, 0.3, 0.3, true, 0, 0, 0.0, false, 0.0, 16, int64(16), 0, 3.0, 16, false, 0.0, true, 5)
	// Coasted page crossings: four lockstep clients whose crossers fill
	// the one pool exactly (used + crossers == totalPages), a split whose
	// decode pool binds at a crossing the coast reaches, and NoPreempt.
	f.Add(uint8(1), 200, 100, 0.0, 0.0, false, 0, 0, 0.0, false, 4.0, 16, int64(3), 0, 0.4, 16, false, 0.0, false, 4)
	f.Add(uint8(2), 100, 50, 0.3, 0.3, false, 0, 0, 0.0, false, 16.0, 16, int64(5), 0, 1.0, 16, false, 0.0, true, 0)
	f.Add(uint8(1), 200, 100, 0.3, 0.3, false, 0, 0, 0.0, false, 4.0, 16, int64(17), 0, 1.4, 16, true, 0.0, false, 4)
	// The serve-reserve-closed benchmark's shape at the harness's request
	// cap: full reservation, one tenant of 200+200 tokens and a closed
	// loop of 16 clients, whose lockstep decoders coast from each wave of
	// completions to the next.
	f.Add(uint8(0), 200, 200, 0.0, 0.0, false, 0, 0, 0.0, false, 0.0, 24, int64(18), 0, 0.0, 0, false, 0.0, false, 16)

	f.Fuzz(func(t *testing.T, policy uint8, prompt, gen int, promptSigma, genSigma float64, second bool,
		prefix, turns int, think float64, schedule bool, rate float64, requests int, seed int64, maxBatch int,
		kvGB float64, pageTokens int, noPreempt bool, hostGB float64, split bool, clients int) {
		if prompt > 2048 || gen > 256 || requests > 24 || promptSigma > 1.5 || genSigma > 1.5 {
			return // accepted, perhaps, but too long a simulation per fuzz input
		}
		w := workload.Spec{
			Mix: []workload.TenantLoad{{Tenant: "chat", Share: 0.7, PromptTokens: prompt, GenTokens: gen,
				PromptSigma: promptSigma, GenSigma: genSigma}},
			Turns: turns, Think: think, Requests: requests, Seed: seed, Rate: rate,
		}
		if prefix != 0 {
			w.Mix[0].PrefixID, w.Mix[0].PrefixTokens = "sys", prefix
		}
		if second {
			w.Mix = append(w.Mix, workload.TenantLoad{Tenant: "batch", Share: 0.3, PromptTokens: 4 * prompt, GenTokens: gen / 2,
				PromptSigma: promptSigma / 2})
		}
		if schedule {
			w.Rate = 0
			w.Schedule = workload.Schedule{{Start: 0, End: 2, Rate: rate}, {Start: 2, End: 4, Rate: 4 * rate}}
		}
		if clients != 0 {
			w.Rate, w.Schedule, w.Closed, w.Clients = 0, nil, true, clients
		}
		s := base
		s.Policy = Policy(policy % 3)
		s.MaxBatch = maxBatch
		s.KVCapacity = kvGB * 1e9
		s.PageTokens = pageTokens
		s.NoPreempt = noPreempt
		s.HostKVBytes = hostGB * 1e9
		if split {
			s.PrefillDevices, s.DecodeDevices = 1, 1
		}
		s.SetWorkload(w)
		if s.Validate() != nil {
			return
		}
		want, err := refRun(s)
		if err != nil {
			t.Fatalf("validated spec rejected by the reference loop: %v", err)
		}
		jw, _ := json.Marshal(want)
		// The probed run steps every iteration and checks the next-event
		// state at each; the unprobed one coasts between events.
		var rn Runner
		for _, probed := range []bool{true, false} {
			s.probe = nil
			if probed {
				peak := 0
				s.probe = func(probeState) { checkNextEvent(t, &rn.sim, &peak) }
			}
			got, err := rn.Run(s)
			if err != nil {
				t.Fatalf("validated spec rejected by Run: %v", err)
			}
			if jg, _ := json.Marshal(got); string(jw) != string(jg) {
				t.Fatalf("Run (probed %v) diverges from the reference loop: E2E p95 %g vs %g, %d vs %d iterations, %d vs %d preemptions",
					probed, got.E2E.P95, want.E2E.P95, got.Iterations, want.Iterations, got.Preemptions, want.Preemptions)
			}
		}
		if clients != 0 {
			return // a closed loop issues on completion: there is no stream to push
		}
		// Barrier cuts: an Instance armed on the drawn stream is advanced
		// to three evenly spaced times in each gap before its push, as a
		// load-aware router's barrier advances a replica that nothing is
		// pushed to. A cut is not an event, so the drained Result is the
		// reference's.
		capSpec, times, shapes := capacityOf(t, s)
		var env Envelope
		if err := env.Set(shapes); err != nil {
			t.Fatal(err)
		}
		in, err := rn.Instance(capSpec, &env)
		if err != nil {
			t.Fatalf("validated spec rejected as an instance: %v", err)
		}
		prev := 0.0
		for i, at := range times {
			for k := 1.0; k <= 3; k++ {
				in.AdvanceTo(prev + (at-prev)*k/4)
			}
			if err := in.Push(shapes[i], at); err != nil {
				t.Fatalf("push %d: %v", i, err)
			}
			prev = at
		}
		in.Drain()
		got, err := in.Result()
		if err != nil {
			t.Fatal(err)
		}
		if jg, _ := json.Marshal(got); string(jw) != string(jg) {
			t.Fatalf("an instance cut at barriers diverges from the reference loop: E2E p95 %g vs %g, %d vs %d iterations, %d vs %d preemptions",
				got.E2E.P95, want.E2E.P95, got.Iterations, want.Iterations, got.Preemptions, want.Preemptions)
		}
	})
}

// checkNextEvent asserts the live loop's next-event state against the
// running set it summarizes, between admission and pricing: kvBase is the
// sum of its terms, nextDone bounds every sequence's completion epoch,
// every sequence's next page crossing lies in the next iteration's
// pageTokens-epoch window and the crossing ring's counts are a recount of
// them, prefill-held sequences form the running set's tail, a referenced
// prefix is resident, and the idle bitset names exactly the resident
// unreferenced prefixes. Some of these (a ring count under NoPreempt, a
// stale idle bit on a referenced prefix) can be wrong without changing a
// Result until much later, if ever. It also checks the request slab
// (checkSlots); peak carries the in-flight peak from call to call.
func checkNextEvent(t *testing.T, sim *simulator, peak *int) {
	t.Helper()
	checkSlots(t, sim, peak)
	kv, prefillHeld := 0, false
	var cross []int32
	if pp := sim.pp; pp != nil {
		cross = make([]int32, pp.pageTokens)
	}
	for _, id := range sim.running {
		r := &sim.reqs[id]
		kv += r.prompt + r.produced
		if done := r.gen - r.produced; done < sim.nextDone {
			t.Fatalf("epoch %d: request %d completes at epoch %d, before nextDone %d", sim.epoch, r.id, done, sim.nextDone)
		}
		if pp := sim.pp; pp != nil {
			// The epoch at which r's next token spills past its held
			// pages: this iteration's token has room, so it lies in
			// [epoch+1, epoch+pageTokens], the next iteration's window.
			spill := r.pages*pp.pageTokens - (r.prompt - r.prefix + r.produced)
			if spill <= sim.epoch || spill > sim.epoch+pp.pageTokens {
				t.Fatalf("epoch %d: request %d next crosses a %d-token page at epoch %d", sim.epoch, r.id, pp.pageTokens, spill)
			}
			cross[spill%pp.pageTokens]++
			if prefillHeld && r.inDecode {
				t.Fatalf("epoch %d: decode resident %d follows a prefill-held sequence", sim.epoch, r.id)
			}
			prefillHeld = prefillHeld || !r.inDecode
		}
	}
	if kv != sim.kvBase {
		t.Fatalf("epoch %d: kvBase %d, running set sums to %d", sim.epoch, sim.kvBase, kv)
	}
	if pp := sim.pp; pp != nil {
		for c := range cross {
			if sim.cross[c] != cross[c] {
				t.Fatalf("epoch %d: crossing ring slot %d counts %d, the running set %d", sim.epoch, c, sim.cross[c], cross[c])
			}
		}
		for i, e := range pp.prefixes {
			if e.refs > 0 && !e.resident {
				t.Fatalf("epoch %d: prefix slot %d has %d refs but is not resident", sim.epoch, i, e.refs)
			}
			if idle := pp.idle[i/64]>>(i%64)&1 == 1; idle != (e.resident && e.refs == 0) {
				t.Fatalf("epoch %d: prefix slot %d has idle bit %v, resident %v with %d refs", sim.epoch, i, idle, e.resident, e.refs)
			}
		}
	}
}

// checkSlots asserts the request slab between admission and pricing,
// when every request in flight is queued or running: no slot is on two
// of the free list, the queue and the running set (a freed slot that a
// request still holds would be written over by the next push), every slot
// is on one of them, every pushed request that has not completed holds a
// slot, and the slab holds no more slots than the peak in-flight count
// seen so far. Every push is seen by the next call before any
// completion, so *peak is the true peak.
func checkSlots(t *testing.T, sim *simulator, peak *int) {
	t.Helper()
	const (
		free = iota + 1
		queued
		running
	)
	state := make([]uint8, len(sim.reqs))
	mark := func(slot int, s uint8) {
		if slot < 0 || slot >= len(state) {
			t.Fatalf("epoch %d: slot %d outside the %d-slot slab", sim.epoch, slot, len(state))
		}
		if state[slot] != 0 {
			t.Fatalf("epoch %d: slot %d is both %v and %v (1 free, 2 queued, 3 running)", sim.epoch, slot, state[slot], s)
		}
		state[slot] = s
	}
	// A cycle in the free list revisits a slot, which mark reports.
	for f := sim.free; f >= 0; f = sim.reqs[f].id {
		mark(f, free)
	}
	q := sim.queue
	for i := range q.n {
		mark(int(q.buf[(q.head+i)&(len(q.buf)-1)]), queued)
	}
	for _, slot := range sim.running {
		mark(int(slot), running)
	}
	for slot, s := range state {
		if s == 0 {
			t.Fatalf("epoch %d: slot %d is neither free, queued nor running", sim.epoch, slot)
		}
	}
	inFlight := len(sim.done) - sim.completed
	if held := q.n + len(sim.running); held != inFlight {
		t.Fatalf("epoch %d: %d requests in flight, but %d slots queued or running", sim.epoch, inFlight, held)
	}
	*peak = max(*peak, inFlight)
	if len(sim.reqs) > *peak {
		t.Fatalf("epoch %d: the slab holds %d slots, beyond the in-flight peak %d", sim.epoch, len(sim.reqs), *peak)
	}
}

// refRun is Runner.Run driven by refStep: the same resolve, stream,
// envelope and arming, and Instance's push and advance rules inlined.
func refRun(s Spec) (Result, error) {
	var rn Runner
	s, err := s.resolve(&rn.sim.ps)
	if err != nil {
		return Result{}, err
	}
	w := s.Workload()
	var drawn Envelope
	arrivals := drawn.Draw(w)
	s.SetWorkload(workload.Spec{})
	sim := &rn.sim
	if err := sim.arm(s, &drawn, 0, 0); err != nil {
		return Result{}, err
	}
	advance := func(t float64) {
		for !sim.idle() && sim.now < t {
			sim.refStep()
		}
	}
	if w.Closed {
		sim.closed, sim.target = true, w.Requests
		for i := range min(w.Clients, w.Requests) {
			sim.pushShape(drawn.Shape(i), 0)
		}
	} else {
		for i, t := range arrivals {
			advance(t)
			if sim.idle() && sim.now < t {
				sim.now = t
			}
			sim.pushShape(drawn.Shape(i), t)
		}
	}
	advance(math.Inf(1))
	return sim.finish(), nil
}

// refBeginStep dispatches to the frozen beginStep of the armed policy.
func refBeginStep(pol admissionPolicy, pool []request, running, victims []int32) ([]int32, []int32) {
	switch p := pol.(type) {
	case *pagedPolicy:
		return p.refBeginStep(pool, running, victims)
	case *reservePolicy:
		return p.refBeginStep(pool, running, victims)
	}
	panic("refBeginStep: unknown policy")
}

// refStep is the earlier simulator.step.
func (sim *simulator) refStep() {
	// Let the policy make room for every established sequence's next
	// token; under the paged policy this is where victims are chosen
	// (LIFO) and sent back to the head of the queue for a recompute
	// readmission.
	kept, victims := refBeginStep(sim.pol, sim.reqs, sim.running, sim.victims[:0])
	sim.running = kept
	sim.victims = victims
	// Victims were collected youngest-first; pushing each to the queue
	// head in that order leaves the longest-running (most to rebuild)
	// victim at the head for readmission. A victim keeps its produced
	// count: readmission prices one prefill pass that rebuilds the
	// discarded KV — vLLM's recompute preemption, where already-generated
	// tokens are recovered as context by the recompute prefill, not
	// decoded again — and the sequence resumes from where it was evicted.
	for _, vi := range victims {
		sim.reqs[vi].preempts++
		sim.queue.pushFront(vi)
	}

	// Admit waiting requests up to the batch cap and the policy's KV
	// capacity. An iteration that just preempted skips admission — the
	// pool is under pressure, and admitting would thrash the victim
	// straight back in.
	newbies, prefillTokens := 0, 0
	if len(victims) == 0 {
		for sim.queue.len() > 0 && len(sim.running) < sim.batchCap && sim.pol.admit(&sim.reqs[sim.queue.front()]) {
			id := sim.queue.popFront()
			r := &sim.reqs[id]
			if r.admissions == 0 {
				r.admitted = sim.now
			}
			r.admissions++
			sim.running = append(sim.running, id)
			newbies++
			// The pass prefills this request's own prompt; a resumed
			// victim's recompute prefill spans its generated tokens
			// too — bill the true token count below. Tokens the policy
			// restored for free (a resident prefix's span, a host-tier
			// swap-in's) drop out of the bill; the swap itself is priced
			// separately on the link via drainLinks.
			prefillTokens += r.prompt + r.produced - r.prefillFree
		}
	}
	kv := sim.pol.usedBytes()
	if kv > sim.peakKV {
		sim.peakKV = kv
	}
	if up := sim.pol.usedPages(); up > sim.peakPages {
		sim.peakPages = up
	}
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
	deciders := sim.running[:len(sim.running)-newbies]
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
	if len(deciders) > 0 {
		kvSum := 0
		for _, id := range deciders {
			// The step generating token produced+1 attends over the
			// request's own prompt plus every generated token including
			// the new one.
			r := &sim.reqs[id]
			kvSum += r.prompt + r.produced + 1
		}
		p := sim.price
		iterTime += p.line(len(deciders)).at(float64(kvSum)/float64(len(deciders)), float64(p.key.kv0))
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

	// Advance sequences: prefill emits the first token, decode steps
	// one more each; completed requests leave and free their KV. The
	// firstToken guard keeps the first emission across preemptions
	// (every iteration has positive duration, so 0 means unset).
	alive := sim.running[:0]
	for _, id := range sim.running {
		r := &sim.reqs[id]
		r.produced++
		if r.produced == 1 && r.firstToken == 0 {
			r.firstToken = sim.now
		}
		if r.produced < r.gen {
			alive = append(alive, id)
			continue
		}
		sim.pol.release(r)
		// The ledger entry holds the shape and arrival pushShape wrote.
		m := sim.done[r.id]
		m.Admitted, m.FirstToken, m.Done = r.admitted, r.firstToken, sim.now
		m.Queue = r.admitted - m.Arrival
		m.TTFT = r.firstToken - m.Arrival
		m.E2E = sim.now - m.Arrival
		m.Preemptions, m.KVTransfers, m.KVTransferTime = r.preempts, r.transfers, r.transferTime
		if r.gen > 1 {
			m.TPOT = (sim.now - r.firstToken) / float64(r.gen-1)
		}
		sim.done[r.id] = m
		sim.completed++
		// The slot goes back to the free list; r is not referenced past
		// here.
		r.id, sim.free = sim.free, int(id)
		if sim.closed && len(sim.done) < sim.target {
			sim.pushShape(sim.env.Shape(len(sim.done)), sim.now)
		}
	}
	sim.running = alive
}

// refBeginStep is the earlier reservePolicy.beginStep.
func (p *reservePolicy) refBeginStep(pool []request, running, victims []int32) ([]int32, []int32) {
	if p.minContext == p.maxContext {
		// Multiply-by-count, not a sum: the original float path,
		// preserved bit for bit for the degenerate-equivalence guarantee.
		p.kvUsed = p.perRequest * float64(len(running))
		return running, victims
	}
	kv := 0.0
	for _, id := range running {
		r := &pool[id]
		kv += p.contextBytes(r.prompt + r.gen)
	}
	p.kvUsed = kv
	return running, victims
}

// refReclaimIdle is the earlier pagedPolicy.reclaimIdle: a linear scan of
// the registry for the lowest idle resident slot. The one added line
// clears the slot's idle bit, which the shared admit path reads.
func (p *pagedPolicy) refReclaimIdle() bool {
	for i := range p.prefixes {
		e := &p.prefixes[i]
		if e.resident && e.refs == 0 {
			e.resident = false
			p.used -= e.pages
			p.idle[i/64] &^= 1 << (i % 64)
			return true
		}
	}
	return false
}

// refBeginStep is the earlier pagedPolicy.beginStep.
func (p *pagedPolicy) refBeginStep(pool []request, running, victims []int32) (kept, outVictims []int32) {
	kept, outVictims = running, victims
scan:
	for i := 0; i < len(kept); i++ {
		id := kept[i]
		r := &pool[id]
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
		if r.prompt-r.prefix+r.produced+1 <= r.pages*p.pageTokens {
			continue
		}
		need := p.pagesFor(r.prompt - r.prefix + r.produced + 1)
		extra := need - r.pages
		for p.used-p.prefillUsed+extra > p.decodeTotal || p.used+extra > p.totalPages {
			if p.refReclaimIdle() {
				continue
			}
			// Only the decode pool binds when the shared budget has room —
			// unreachable with one pool, where both limits coincide.
			kept, outVictims = p.evictYoungest(pool, kept, outVictims, p.used+extra <= p.totalPages)
			if outVictims[len(outVictims)-1] == id {
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
