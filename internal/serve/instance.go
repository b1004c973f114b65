package serve

import (
	"fmt"
	"math"

	"optimus/internal/workload"
)

// Load is one replica's router-visible load snapshot, sampled at an
// iteration boundary. It is the observability hook cluster routing
// policies rank replicas by; it reads the sealed admission policy's
// accounting without widening the policy interface.
type Load struct {
	// Now is the replica's local clock (simulated seconds).
	Now float64
	// Queued and Running count requests waiting for admission and
	// sequences in the current batch.
	Queued  int
	Running int
	// Done counts completed requests.
	Done int
	// KVPages is the policy's committed page count (zero under
	// ReserveFull); KVBytes the committed KV bytes — the policy-agnostic
	// load measure (reservations under ReserveFull, held pages otherwise).
	KVPages int
	KVBytes float64
}

// InFlight is the total admission-relevant occupancy: queued plus running.
func (l Load) InFlight() int { return l.Queued + l.Running }

// Instance is one steppable serving simulation: the event loop Run
// drives, exposed request by request so a cluster router can feed R
// replicas from one split arrival stream and observe per-iteration load.
//
// The driving contract: Push requests in non-decreasing arrival-time
// order; each Push first advances the clock to the arrival (so a request
// can never be admitted before it exists, and explicit AdvanceTo calls are
// purely observational — their granularity never changes the outcome: a
// replica's result depends only on its Push sequence). A cut is not an
// event: an AdvanceTo that nothing follows but another AdvanceTo costs no
// iteration that the next would not run anyway. Drain runs the loop to
// completion; Result then assembles exactly what Run returns for the same
// request sequence on the same envelope.
type Instance struct {
	sim     *simulator
	lastT   float64
	drained bool
	// tenants is the breakdown of the assembled Result, nil until then:
	// it delimits the sorted runs SummarizeInstances merges.
	tenants []TenantMetrics
}

// Envelope is the drawn workload: the stream Run or a fleet draws into
// it (Draw), or shapes a caller sets (Set; duplicates are fine), which
// size the simulations armed on it. A uniform workload's draw holds its
// arrival times and one shape that every request shares, whatever the
// count; any other holds a shape per request, which Shape reads either
// way. The step coster, KV geometry and batch caps read its bounds, and a
// prefixed envelope's page units each shape's prefix split; both are
// folded once, over the shapes it holds, when the contents are drawn or
// set, which invalidates the instances built on the previous contents.
// Only the pre-draw rules read a workload's possible shapes.
//
// The Envelope owns the pricing tables its instances price through, one
// per step-cost key: instances of equal keys share one — a fleet of
// identical replicas prices each step shape once — so they must be
// driven from one goroutine. The tables outlive the contents, so a Runner
// or a fleet re-run under an unchanged key prices warm.
type Envelope struct {
	// shapes are the contents, a shape per request or a uniform draw's
	// one shape for all of them, and times the arrival times Draw drew
	// with them (none for a closed loop).
	times  []float64
	shapes []workload.Request
	// work's possible extremes stand in for shapes in a pre-draw
	// envelope, which possible marks.
	work workload.Spec
	// tables[:live] are the tables in use on the contents, one per key;
	// the rest priced the previous contents.
	tables   []*pricing
	live     int
	bounds   workload.Bounds
	possible bool
	prefixed bool
}

// Draw draws the validated, defaulted workload w (workload.Spec.Draw)
// and makes its w.Requests requests the envelope's contents, a uniform
// workload's as one shape. It returns their arrival times (none for a
// closed loop), the envelope's buffer, written over by its next Draw or
// Set; Shape reads their shapes.
func (e *Envelope) Draw(w workload.Spec) []float64 {
	e.times, e.shapes = w.Draw(e.times[:0], e.shapes[:0])
	*e = e.folded()
	return e.times
}

// Shape returns the shape of request i of the contents.
func (e *Envelope) Shape(i int) workload.Request {
	if len(e.shapes) == 1 {
		return e.shapes[0]
	}
	return e.shapes[i]
}

// Set validates shapes and makes a copy of them the envelope's contents.
func (e *Envelope) Set(shapes []workload.Request) error {
	e.shapes = e.shapes[:0] // empty, and so unusable, until the shapes validate
	if len(shapes) == 0 {
		return fmt.Errorf("serve: an instance needs a non-empty shape envelope")
	}
	for i := range shapes {
		if err := shapes[i].Validate(); err != nil {
			return fmt.Errorf("serve: envelope shape %d: %w", i, err)
		}
	}
	e.shapes = append(e.shapes, shapes...)
	*e = e.folded()
	return nil
}

// table returns the pricing table for key k on the envelope's contents:
// the one in use under k, else one the previous contents priced through —
// under k if any, still warm, else rekeyed — else a new one. A table in
// use on the contents is never rekeyed.
func (e *Envelope) table(k pricingKey) (*pricing, error) {
	i := e.live
	for j, p := range e.tables { // no two tables share a key
		if p.key == k {
			if j < e.live {
				return p, nil
			}
			i = j
		}
	}
	if i == len(e.tables) {
		e.tables = append(e.tables, new(pricing))
	}
	p := e.tables[i]
	if err := p.rekey(k); err != nil {
		return nil, err
	}
	e.tables[e.live], e.tables[i] = p, e.tables[e.live]
	e.live++
	return p, nil
}

// possibleEnvelope is the pre-draw envelope of w: its possible extremes.
func possibleEnvelope(w workload.Spec) Envelope { return Envelope{possible: true, work: w}.folded() }

// each calls f with every shape, as workload.Spec.Extremes does.
func (e *Envelope) each(f func(first bool, prompt, gen, prefix int)) {
	if e.possible {
		e.work.Extremes(f)
		return
	}
	for i, sh := range e.shapes {
		f(i == 0, sh.PromptTokens, sh.GenTokens, sh.PrefixTokens)
	}
}

// folded returns e with the bounds of its new contents derived and
// whether any shape carries a prefix; no instance prices through a table
// on them yet.
func (e Envelope) folded() Envelope {
	b := &e.bounds
	e.prefixed, e.live = false, 0
	e.each(func(first bool, prompt, gen, prefix int) {
		c := prompt + gen
		if first {
			*b = workload.Bounds{MinPrompt: prompt, MaxPrompt: prompt, MaxGen: gen, MinContext: c, MaxContext: c}
		}
		b.MinPrompt, b.MaxPrompt = min(b.MinPrompt, prompt), max(b.MaxPrompt, prompt)
		b.MaxGen = max(b.MaxGen, gen)
		b.MinContext, b.MaxContext = min(b.MinContext, c), max(b.MaxContext, c)
		e.prefixed = e.prefixed || prefix > 0
	})
	return e
}

// NewInstance builds a steppable replica from a capacity spec and the
// shapes of a fresh Envelope; see Runner.Instance.
func NewInstance(s Spec, envelope []workload.Request) (*Instance, error) {
	env := new(Envelope)
	if err := env.Set(envelope); err != nil {
		return nil, err
	}
	return new(Runner).Instance(s, env)
}

// Instance re-arms the Runner's pooled simulator as a steppable replica.
// The spec carries capacity only — model/system/precision, batching and
// KV limits, and the admission policy; its workload and arrival fields
// must be zero (the router owns the stream). It is armed on env as Run
// arms on its drawn stream, while its ledger grows with the pushes and
// its request slab only to its own peak of requests in flight — a replica
// holding a fraction of its envelope pays for that fraction. It prices
// through env's table for its step-cost key, shared with every instance
// built on env's contents under an equal key, and so exactly as a lone
// Run. Its Result keeps its sorted latency samples for SummarizeInstances.
// The Runner's single-live-simulation contract applies: the Instance
// returned is the Runner's own, so building a new one (or calling Run)
// invalidates the previous one, and the Instance's Result refers to the
// Runner's ledger as a Run's does.
func (rn *Runner) Instance(s Spec, env *Envelope) (*Instance, error) {
	if err := s.capacityOnly(); err != nil {
		return nil, err
	}
	if len(env.shapes) == 0 {
		return nil, fmt.Errorf("serve: an instance needs a non-empty shape envelope")
	}
	if err := s.validateCapacity(env); err != nil {
		return nil, err
	}
	if err := rn.sim.arm(s, env, 0, 0); err != nil {
		return nil, err
	}
	rn.sim.keep = true
	rn.in = Instance{sim: &rn.sim}
	return &rn.in, nil
}

// Push hands the instance one request arriving at time t. Requests must
// arrive in non-decreasing t order and fit the envelope's largest request
// (the KV geometry was sized to it): its context, and under the paged
// policy its prefix and private pages together. Push first advances the
// clock to t (running any pending iterations, exactly as Run does before
// the arrival joins the queue); pushing into an instance left idle before
// t jumps the clock to t.
func (in *Instance) Push(r workload.Request, t float64) error {
	if err := in.inOrder(t); err != nil {
		return err
	}
	if err := r.Validate(); err != nil {
		return fmt.Errorf("serve: push: %w", err)
	}
	if c := r.Context(); c > in.sim.price.key.kv1 {
		return fmt.Errorf("serve: pushed request spans %d tokens, beyond the instance envelope's largest context %d", c, in.sim.price.key.kv1)
	}
	if r.PrefixTokens > 0 {
		if !in.sim.spec.cachesPrefixes() {
			return fmt.Errorf("serve: a prefixed push needs the paged policy with preemption enabled (Policy: Paged, NoPreempt unset)")
		}
		// Session rows grow their prefix turn over turn (the session's
		// accumulated context), so only their shrinking is an error;
		// independent shapes must agree exactly.
		if prev, ok := in.sim.pp.internedPrefixTokens(r.PrefixID); ok {
			if r.Session > 0 {
				if r.PrefixTokens < prev {
					return fmt.Errorf("serve: push: session prefix %q shrank from %d to %d tokens — a session's context only grows", r.PrefixID, prev, r.PrefixTokens)
				}
			} else if prev != r.PrefixTokens {
				return fmt.Errorf("serve: push: prefix %q spans %d tokens here and %d in an earlier push — a shared prefix has one length", r.PrefixID, r.PrefixTokens, prev)
			}
		}
		// Prefix and private pages round up separately, so the split can
		// need a page more than the context.
		if need := in.sim.pp.fullNeed(r.PromptTokens, r.GenTokens, r.PrefixTokens); need > in.sim.pp.fullPages {
			return fmt.Errorf("serve: pushed request needs %d KV pages with its %d-token prefix, beyond the instance envelope's largest request of %d pages",
				need, r.PrefixTokens, in.sim.pp.fullPages)
		}
	}
	in.push(r, t)
	return nil
}

// PushDrawn pushes request i of the open-loop stream drawn into the
// instance's envelope (Envelope.Draw) at its arrival time, as a fleet
// pushes its own stream. The draw came from a validated workload and the
// envelope's bounds were folded from it, so PushDrawn checks only that i
// is a drawn arrival and that arrivals stay in order; Push checks a
// request of the caller's own.
func (in *Instance) PushDrawn(i int) error {
	env := in.sim.env
	if i < 0 || i >= len(env.times) {
		return fmt.Errorf("serve: push of arrival %d, outside the envelope's %d drawn arrivals", i, len(env.times))
	}
	t := env.times[i]
	if err := in.inOrder(t); err != nil {
		return err
	}
	in.push(env.Shape(i), t)
	return nil
}

// inOrder checks that an arrival at t may be pushed: before the drain,
// and finite and no earlier than the previous push.
func (in *Instance) inOrder(t float64) error {
	if in.drained {
		return fmt.Errorf("serve: push after drain")
	}
	if !(t >= in.lastT) || math.IsInf(t, 0) {
		return fmt.Errorf("serve: push at %g not finite and non-decreasing (previous %g)", t, in.lastT)
	}
	return nil
}

// push is Push after its checks, the path Run's validated stream takes.
func (in *Instance) push(r workload.Request, t float64) {
	in.lastT = t
	in.AdvanceTo(t)
	sim := in.sim
	if sim.idle() && sim.now < t {
		sim.now = t
	}
	sim.pushShape(r, t)
}

// AdvanceTo runs batching iterations until the instance's clock reaches t
// or it runs out of work. Iterations are atomic, so the clock may
// overshoot t: an arrival landing mid-iteration waits for the next
// boundary. Each pass coasts first, through the decode-only iterations
// and the KV page crossings that fit (simulator.coast), and steps only
// where coast stopped short of t, at an event. So a cut at t is not an
// event: the next advance resumes the stretch the cut stopped, with no
// step and no settle between. Whatever it coasted, the Load it returns
// to is the one stepping every iteration would show.
func (in *Instance) AdvanceTo(t float64) {
	sim := in.sim
	for !sim.idle() && sim.now < t {
		if sim.coast(t); !(sim.now < t) {
			return
		}
		sim.step()
	}
}

// Drain runs the instance to completion: every pushed request finishes.
// Further pushes are rejected.
func (in *Instance) Drain() {
	in.drained = true
	in.AdvanceTo(math.Inf(1))
}

// Pushed returns the number of requests routed to this instance so far.
func (in *Instance) Pushed() int { return len(in.sim.done) }

// Load samples the instance's current load. Between a router's barrier
// advances the snapshot is deterministic: it depends only on the push
// sequence and the advance target, never on goroutine scheduling.
func (in *Instance) Load() Load {
	sim := in.sim
	return Load{
		Now:     sim.now,
		Queued:  sim.queue.len(),
		Running: len(sim.running),
		Done:    sim.completed,
		KVPages: sim.pol.usedPages(),
		KVBytes: sim.pol.usedBytes(),
	}
}

// Result assembles the completed simulation's metrics; the instance must
// be drained first. Request IDs are local push indices (0-based, in push
// order) — a router merging replicas remaps them to its global arrival
// indices.
func (in *Instance) Result() (Result, error) {
	if !in.drained {
		return Result{}, fmt.Errorf("serve: result before drain (%d requests still in flight)", len(in.sim.done)-in.sim.completed)
	}
	res := in.sim.finish()
	in.tenants = res.PerTenant
	return res, nil
}
