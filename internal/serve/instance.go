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
// replica's result depends only on its Push sequence). Drain runs the loop
// to completion; Result then assembles exactly what Run returns for the
// same request sequence on the same envelope.
type Instance struct {
	sim     *simulator
	lastT   float64
	drained bool
	// tenants is the breakdown of the assembled Result, nil until then:
	// it delimits the sorted runs SummarizeInstances merges.
	tenants []TenantMetrics
}

// Envelope is the set of request shapes a simulation is sized from
// (duplicates are fine): the step coster, KV geometry and batch caps read
// its bounds, and a prefixed envelope's page units each shape's prefix
// split. Run arms on the stream it draws and a fleet every replica on the
// fleet's stream; only the pre-draw rules read a workload's possible
// shapes. The bounds and the prefixed bit are folded once, when the
// envelope is set; Set re-arms it in place, invalidating the instances
// built on its previous contents.
//
// The instances built on one envelope share a pricing table wherever
// their step-cost keys are equal — a fleet of identical replicas prices
// each step shape once — so they must be driven from one goroutine.
type Envelope struct {
	shapes []workload.Request
	// work's possible extremes stand in for shapes in a pre-draw
	// envelope, which possible marks.
	work workload.Spec
	// tables are the pricing tables of the instances built on the
	// envelope's contents, one per key.
	tables   []*pricing
	bounds   workload.Bounds
	possible bool
	prefixed bool
}

// Set validates shapes and makes them the envelope, by reference: they
// must stay unchanged while an instance built on it is live.
func (e *Envelope) Set(shapes []workload.Request) error {
	// The instances built on the previous contents are dead, so their
	// tables go back to their owners.
	for _, p := range e.tables {
		p.env = nil
	}
	tables := e.tables[:0]
	*e = Envelope{tables: tables} // empty, and so unusable, until the shapes validate
	if len(shapes) == 0 {
		return fmt.Errorf("serve: an instance needs a non-empty shape envelope")
	}
	for i := range shapes {
		if err := shapes[i].Validate(); err != nil {
			return fmt.Errorf("serve: envelope shape %d: %w", i, err)
		}
	}
	*e = Envelope{shapes: shapes, tables: tables}.folded()
	return nil
}

// table returns the pricing table shared on the envelope under key k, or
// nil.
func (e *Envelope) table(k pricingKey) *pricing {
	for _, p := range e.tables {
		if p.key == k {
			return p
		}
	}
	return nil
}

// share offers p to the instances built on the envelope after it.
func (e *Envelope) share(p *pricing) {
	if p.env != e {
		p.env = e
		e.tables = append(e.tables, p)
	}
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

// folded returns e with its bounds derived and whether any shape carries
// a prefix.
func (e Envelope) folded() Envelope {
	b := &e.bounds
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
// holding a fraction of its envelope pays for that fraction.
// It prices through the table of an instance built on env before it under
// an equal step-cost key, or shares its own with those built after it;
// either way it prices exactly as a lone Run. Its Result keeps its sorted
// latency samples for SummarizeInstances. The Runner's
// single-live-simulation contract applies: building a new Instance (or
// calling Run) invalidates the previous one, and the Instance's Result
// refers to the Runner's ledger as a Run's does.
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
	if err := rn.sim.arm(s, env, 0, 0, new(policyStore)); err != nil {
		return nil, err
	}
	env.share(rn.sim.price)
	rn.sim.keep = true
	return &Instance{sim: &rn.sim}, nil
}

// Push hands the instance one request arriving at time t. Requests must
// arrive in non-decreasing t order and fit the envelope's largest request
// (the KV geometry was sized to it): its context, and under the paged
// policy its prefix and private pages together. Push first advances the
// clock to t (running any pending iterations, exactly as Run does before
// the arrival joins the queue); pushing into an instance left idle before
// t jumps the clock to t.
func (in *Instance) Push(r workload.Request, t float64) error {
	if in.drained {
		return fmt.Errorf("serve: push after drain")
	}
	if !(t >= in.lastT) || math.IsInf(t, 0) {
		return fmt.Errorf("serve: push at %g not finite and non-decreasing (previous %g)", t, in.lastT)
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
// boundary. Between events the instance coasts, through the KV page
// crossings that fit too: see simulator.coast. Whatever it coasted, the
// Load it returns to is the one stepping every iteration would show.
func (in *Instance) AdvanceTo(t float64) {
	sim := in.sim
	for !sim.idle() && sim.now < t {
		sim.step()
		sim.coast(t)
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
