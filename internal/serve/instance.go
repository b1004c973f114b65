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

// Instance is one steppable serving simulation: the exact event loop
// behind Run, exposed request by request so a cluster router can feed R
// replicas from one split arrival stream and observe per-iteration load.
//
// The driving contract: Push requests in non-decreasing arrival-time
// order; each Push first advances the clock to the arrival (so a request
// can never be admitted before it exists, and explicit AdvanceTo calls are
// purely observational — their granularity never changes the outcome: a
// replica's result depends only on its Push sequence). Drain runs the loop
// to completion; Result then assembles exactly what Run would have
// returned for the same request sequence.
type Instance struct {
	sim     *simulator
	pushed  int
	lastT   float64
	drained bool
}

// Envelope is the set of request shapes a router may push into an
// instance (duplicates are fine), validated once and posed as a zero-time
// trace: every geometry path (shape bounds, KV budget, policy
// construction, step-coster configuration) then sees exactly the workload
// Run would see, with no second derivation to drift. An instance fed a
// workload's requests on that workload's envelope prices them
// byte-identically to Run. Every replica of a fleet reads one Envelope;
// Set re-arms it in place, reusing its storage, and invalidates the
// instances built on its previous contents.
type Envelope struct {
	trace []workload.TraceEvent
}

// Set validates shapes and makes them the envelope.
func (e *Envelope) Set(shapes []workload.Request) error {
	trace := e.trace[:0]
	for _, sh := range shapes {
		trace = append(trace, workload.TraceEvent{Request: sh})
	}
	// Empty until the shapes validate: no instance can be built on a
	// failed Set.
	e.trace = trace[:0]
	if len(trace) == 0 {
		return fmt.Errorf("serve: an instance needs a non-empty shape envelope")
	}
	if err := workload.ValidateTrace(trace); err != nil {
		return err
	}
	e.trace = trace
	return nil
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
// must be zero (the router owns the stream). The KV geometry, step-cost
// samples and batch caps are derived from the envelope's bounds exactly
// as Run derives them from a workload, while the request slabs grow with
// the pushes — a replica holding a fraction of its envelope pays for that
// fraction. The Runner's single-live-simulation contract applies:
// building a new Instance (or calling Run) invalidates the previous one.
func (rn *Runner) Instance(s Spec, env *Envelope) (*Instance, error) {
	if err := s.capacityOnly(); err != nil {
		return nil, err
	}
	if len(env.trace) == 0 {
		return nil, fmt.Errorf("serve: an instance needs a non-empty shape envelope")
	}
	s.Trace = env.trace
	if err := s.validateCapacity(); err != nil {
		return nil, err
	}
	// Requests stays zero: it pre-sizes Run's slabs and sets its
	// completion target, and an instance's requests arrive by Push.
	if err := rn.sim.reset(s); err != nil {
		return nil, err
	}
	return &Instance{sim: &rn.sim}, nil
}

// Push hands the instance one request arriving at time t. Requests must
// arrive in non-decreasing t order and fit the envelope's largest context
// (the KV geometry was sized to it). Push first advances the clock to t
// (running any pending iterations, exactly as Run's loop would before the
// arrival joins the queue); pushing into an instance left idle before t
// jumps the clock to t — Run's idle jump to its next pre-generated
// arrival.
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
	if c := r.Context(); c > in.sim.kv1 {
		return fmt.Errorf("serve: pushed request spans %d tokens, beyond the instance envelope's largest context %d", c, in.sim.kv1)
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
	}
	in.lastT = t
	in.AdvanceTo(t)
	sim := in.sim
	if sim.idle() && sim.now < t {
		sim.now = t
	}
	sim.pushShape(in.pushed, r, t)
	in.pushed++
	sim.target++
	return nil
}

// AdvanceTo runs batching iterations until the instance's clock reaches t
// or it runs out of work. Iterations are atomic: the clock may overshoot
// t, exactly as Run's loop overshoots an arrival landing mid-iteration.
func (in *Instance) AdvanceTo(t float64) {
	sim := in.sim
	for !sim.idle() && sim.now < t {
		sim.step()
	}
}

// Drain runs the instance to completion: every pushed request finishes.
// Further pushes are rejected.
func (in *Instance) Drain() {
	in.drained = true
	sim := in.sim
	for !sim.idle() {
		sim.step()
	}
}

// Pushed returns the number of requests routed to this instance so far.
func (in *Instance) Pushed() int { return in.pushed }

// Load samples the instance's current load. Between a router's barrier
// advances the snapshot is deterministic: it depends only on the push
// sequence and the advance target, never on goroutine scheduling.
func (in *Instance) Load() Load {
	sim := in.sim
	return Load{
		Now:     sim.now,
		Queued:  sim.queue.len(),
		Running: len(sim.running),
		Done:    len(sim.done),
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
		return Result{}, fmt.Errorf("serve: result before drain (%d requests still in flight)", in.sim.target-len(in.sim.done))
	}
	return in.sim.finish(), nil
}
