package workload

import (
	"cmp"
	"fmt"
	"math"
	"strings"
)

// DefaultRequests is the request count of a generated workload that
// leaves Spec.Requests zero.
const DefaultRequests = 256

// MaxContextTokens bounds the context of any request a workload
// describes: far beyond every model's, and small enough that the shape
// arithmetic (heavy-tail caps, session growth, page counts) cannot
// overflow an int, even a 32-bit one.
const MaxContextTokens = 1 << 26

// Spec is one serving workload: the request shapes and the process that
// issues them, read by every layer (see the package doc).
type Spec struct {
	// PromptTokens, GenTokens and PrefixTokens shape the degenerate
	// single-tenant workload: a one-entry Mix under DefaultTenant, its
	// prefix named DefaultTenant too. Mix generates a multi-tenant
	// workload instead; Trace replays a fixed timeline (a non-nil Trace
	// is a replay), which fixes the arrival process and request count.
	PromptTokens int
	GenTokens    int
	PrefixTokens int
	Mix          []TenantLoad
	Trace        []TraceEvent

	// Rate, Schedule, Turns, Think and Seed are the open-loop
	// ArrivalProcess; Requests the request count (zero means
	// DefaultRequests, or the trace's length). Closed replaces the open
	// loop with Clients clients, each issuing its next request when its
	// last completes.
	Rate     float64
	Schedule Schedule
	Turns    int
	Think    float64
	Requests int
	Seed     int64
	Closed   bool
	Clients  int
}

// Field names a workload field for Check, shape fields first.
// FieldMixPrefix (a Mix entry carrying a shared prefix) and FieldSessions
// (a Turns value above 1) are the derived settings the session rules
// read; callers spell them as the Mix and Turns fields they derive from.
type Field int

// The workload fields, in Check's reporting order.
const (
	FieldPromptTokens Field = iota
	FieldGenTokens
	FieldPrefixTokens
	FieldMix
	FieldMixPrefix
	FieldTrace
	FieldRate
	FieldSchedule
	FieldTurns
	FieldSessions
	FieldThink
	FieldRequests
	FieldSeed
	FieldClosed
	FieldClients
	NumFields
)

var fieldNames = [NumFields]string{"PromptTokens", "GenTokens", "PrefixTokens", "Mix", "Mix", "Trace",
	"Rate", "Schedule", "Turns", "Turns", "Think", "Requests", "Seed", "Arrival", "Clients"}

// String is the field's name in serve.Spec and cluster.Spec.
func (f Field) String() string { return fieldNames[f] }

// traceFixed are the arrival fields a replay fixes, in the order its
// rejection lists them.
var traceFixed = [...]Field{FieldClosed, FieldRate, FieldClients, FieldSeed, FieldSchedule, FieldTurns, FieldThink}

// Check applies the exclusivity and session rules to the fields a
// caller's user set, naming them as the caller spells them (a Spec
// field, a sweep axis, a CLI flag; "" for none): Mix and Trace exclude
// each other and the single-tenant shape; a trace fixes the arrivals and
// their count; closed-loop clients exclude the open-loop fields; a
// Schedule excludes the Rate; sessions own the shared prefix; and Think
// needs sessions. The value checks are Spec.Validate's.
func Check(set [NumFields]bool, name func(Field) string) error {
	replay := set[FieldTrace]
	if replay && set[FieldMix] {
		return fmt.Errorf("%s and %s are mutually exclusive", name(FieldMix), name(FieldTrace))
	}
	if src := FieldMix; replay || set[src] {
		if replay {
			src = FieldTrace
		}
		for _, f := range [...]Field{FieldPromptTokens, FieldGenTokens, FieldPrefixTokens} {
			if set[f] {
				return fmt.Errorf("%s shapes the single-tenant workload — %s carries its own request shapes, so leave them zero (%s, %s, %s)",
					name(f), name(src), name(FieldPromptTokens), name(FieldGenTokens), name(FieldPrefixTokens))
			}
		}
	}
	for _, f := range traceFixed {
		if replay && set[f] {
			var fixed []string
			for _, g := range traceFixed {
				if n := name(g); n != "" {
					fixed = append(fixed, n)
				}
			}
			return fmt.Errorf("%s does not apply to a replayed %s — a trace fixes the arrival process; leave %s unset",
				name(f), name(FieldTrace), strings.Join(fixed, "/"))
		}
	}
	closed := set[FieldClosed]
	switch {
	case replay && set[FieldRequests]:
		return fmt.Errorf("%s does not apply to a replayed %s — the trace fixes the request count; leave it zero",
			name(FieldRequests), name(FieldTrace))
	case set[FieldClients] && !closed:
		return fmt.Errorf("%s applies to closed-loop arrivals only — set %s to closed-loop with it", name(FieldClients), name(FieldClosed))
	}
	for _, f := range [...]Field{FieldRate, FieldSchedule, FieldTurns, FieldThink} {
		if closed && set[f] {
			return fmt.Errorf("%s applies to open-loop Poisson arrivals only — %s selects closed-loop clients", name(f), name(FieldClosed))
		}
	}
	sessions := set[FieldSessions]
	switch {
	case set[FieldSchedule] && set[FieldRate]:
		return fmt.Errorf("%s fixes the arrival-rate timeline — leave %s unset with it", name(FieldSchedule), name(FieldRate))
	case sessions && set[FieldPrefixTokens]:
		return fmt.Errorf("session cohorts (%s above 1) own the shared prefix — leave %s unset with them", name(FieldSessions), name(FieldPrefixTokens))
	case sessions && set[FieldMixPrefix]:
		return fmt.Errorf("session cohorts (%s above 1) own the shared prefix — drop the per-entry prefixes from %s", name(FieldSessions), name(FieldMixPrefix))
	case set[FieldThink] && !sessions:
		return fmt.Errorf("%s is the pause between session turns — set %s above 1 with it", name(FieldThink), name(FieldSessions))
	}
	return nil
}

// SetFields reports which fields the spec sets: the non-zero ones,
// except that a Requests equal to the trace's length restates the
// derived count, and that a non-nil Trace is set even when empty (an
// empty replay is an error, not a generated workload).
func (s Spec) SetFields() [NumFields]bool {
	return [NumFields]bool{
		s.PromptTokens != 0, s.GenTokens != 0, s.PrefixTokens != 0,
		len(s.Mix) > 0, MixPrefixed(s.Mix), s.Trace != nil,
		s.Rate != 0, len(s.Schedule) > 0, s.Turns != 0, s.Turns > 1, s.Think != 0, // NaN != 0: NaN is set
		s.Requests != 0 && (s.Trace == nil || s.Requests != len(s.Trace)), s.Seed != 0,
		s.Closed, s.Clients != 0,
	}
}

// MixPrefixed reports whether any mix entry carries a shared prefix.
func MixPrefixed(mix []TenantLoad) bool {
	for _, t := range mix {
		if t.PrefixTokens > 0 {
			return true
		}
	}
	return false
}

// Prefixed reports whether any request the workload issues can carry a
// shared prefix: the spec-wide one, a mix or trace entry's, or a session
// cohort's growing context.
func (s Spec) Prefixed() bool {
	if s.PrefixTokens != 0 || s.Turns > 1 || MixPrefixed(s.Mix) {
		return true
	}
	for _, ev := range s.Trace {
		if ev.PrefixTokens > 0 {
			return true
		}
	}
	return false
}

// ValidateRate checks a constant Poisson arrival rate: positive and
// finite (the negated form rejects NaN, whose arrival times would stall
// every event loop).
func ValidateRate(rate float64) error {
	if !(rate > 0) || math.IsInf(rate, 0) {
		return fmt.Errorf("workload: Poisson arrivals need a positive finite rate, got %g", rate)
	}
	return nil
}

// Validate checks the workload: Check over its own fields, then the
// values — counts, think time and clients, the trace or the (defaulted)
// mix, the largest request's extent, and the rate or schedule.
func (s Spec) Validate() error {
	if s.Trace != nil && len(s.Trace) == 0 {
		return ValidateTrace(s.Trace) // named as empty, not as a conflict with the fields left set
	}
	if err := Check(s.SetFields(), Field.String); err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	switch {
	case s.Requests < 0:
		return fmt.Errorf("workload: negative request count %d", s.Requests)
	case s.Turns < 0:
		return fmt.Errorf("workload: negative session turns %d", s.Turns)
	case !(s.Think >= 0) || math.IsInf(s.Think, 0):
		return fmt.Errorf("workload: think time %g not finite and non-negative", s.Think)
	case s.Closed && s.Clients <= 0:
		return fmt.Errorf("workload: closed-loop arrivals need positive Clients, got %d", s.Clients)
	}
	// The extent is summed in float64, so absurd lengths are rejected
	// before any int arithmetic on them can overflow.
	var err error
	extent := 0.0
	if s.Trace != nil {
		err = ValidateTrace(s.Trace)
		for _, ev := range s.Trace {
			extent = max(extent, float64(ev.PromptTokens)+float64(ev.GenTokens))
		}
	} else {
		var one [1]TenantLoad
		mix := s.mix(&one)
		err = ValidateMix(mix)
		for _, t := range mix {
			extent = max(extent, float64(max(s.Turns, 1))*(lengthExtent(t.PromptTokens, t.PromptSigma)+lengthExtent(t.GenTokens, t.GenSigma)))
		}
	}
	switch {
	case err != nil:
		return err
	case extent > MaxContextTokens:
		return fmt.Errorf("workload: the largest request can span %g tokens, beyond the %d-token limit", extent, MaxContextTokens)
	case s.Trace != nil || s.Closed:
		return nil
	case len(s.Schedule) > 0:
		return s.Schedule.Validate()
	}
	return ValidateRate(s.Rate)
}

// lengthExtent is the largest length a mix entry's draw can reach.
func lengthExtent(median int, sigma float64) float64 {
	if sigma != 0 {
		return HeavyTailCap * float64(median)
	}
	return float64(median)
}

// WithDefaults fills the derivable field, the request count: a replay's
// trace length, or DefaultRequests. It leaves a spec-wide shape as it is,
// so a defaulted spec still validates.
func (s Spec) WithDefaults() Spec {
	n := DefaultRequests
	if len(s.Trace) > 0 {
		n = len(s.Trace)
	}
	s.Requests = cmp.Or(s.Requests, n)
	return s
}

// mix returns the generated workload's tenants: Mix, or the spec-wide
// shape as a one-entry mix under DefaultTenant, its prefix named
// DefaultTenant too, written into one so that no call allocates it.
func (s Spec) mix(one *[1]TenantLoad) []TenantLoad {
	if len(s.Mix) > 0 {
		return s.Mix
	}
	one[0] = TenantLoad{Tenant: DefaultTenant, Share: 1, PromptTokens: s.PromptTokens, GenTokens: s.GenTokens, PrefixTokens: s.PrefixTokens}
	if s.PrefixTokens > 0 {
		one[0].PrefixID = DefaultTenant
	}
	return one[:]
}

// Stream appends a defaulted, validated workload's requests to the given
// buffers (pass length-zero slices): the trace's timeline when replaying,
// the ArrivalProcess's draw otherwise. Closed-loop clients issue their
// requests on completion, so only the shapes are drawn, in arrival-index
// order.
func (s Spec) Stream(arrivals []float64, shapes []Request) ([]float64, []Request) {
	if len(s.Trace) > 0 {
		for _, ev := range s.Trace {
			arrivals = append(arrivals, ev.Arrival)
			shapes = append(shapes, ev.Request)
		}
		return arrivals, shapes
	}
	var one [1]TenantLoad
	mix := s.mix(&one)
	if s.Closed {
		return arrivals, AppendMixShapes(shapes, mix, s.Requests, s.Seed)
	}
	proc := ArrivalProcess{Rate: s.Rate, Schedule: s.Schedule, Turns: s.Turns, Think: s.Think, Seed: s.Seed}
	return proc.Generate(mix, s.Requests, arrivals, shapes)
}

// Bounds are the extreme shapes of a set of requests: a simulator
// configures its step-cost engine at the largest prompt and generation,
// its KV geometry at the largest context, and its derived batch caps at
// the smallest.
type Bounds struct {
	MinPrompt, MaxPrompt   int
	MaxGen                 int
	MinContext, MaxContext int
}

// Extremes calls f with the extreme request shapes (prompt, generation
// and prefix tokens; first on the first call) the workload can emit:
// every trace event; or per mix entry (the spec-wide shape is a one-entry
// mix) the smallest draw and the largest draw's last session turn, which
// carries (turns-1)·(P+G) prior context as its prefix. HeavyTailCap
// bounds every draw, so every shape Stream emits lies between them.
func (s Spec) Extremes(f func(first bool, prompt, gen, prefix int)) {
	if len(s.Trace) > 0 {
		for i, ev := range s.Trace {
			f(i == 0, ev.PromptTokens, ev.GenTokens, ev.PrefixTokens)
		}
		return
	}
	var one [1]TenantLoad
	for i, t := range s.mix(&one) {
		pmin, pmax := t.PromptBounds()
		gmin, gmax := t.GenBounds()
		if s.Turns <= 1 {
			f(i == 0, pmin, gmin, t.PrefixTokens)
			f(false, pmax, gmax, t.PrefixTokens)
			continue
		}
		// A session's first turn carries no prefix yet.
		ctx := (s.Turns - 1) * (pmax + gmax)
		f(i == 0, pmin, gmin, 0)
		f(false, ctx+pmax, gmax, ctx)
	}
}

// Draw appends a defaulted, validated workload's stream to the given
// buffers as Stream does, but a uniform workload keeps one shape: with no
// trace, at most one turn, and one mix entry (the spec-wide shape, its
// prefix included, or an explicit one) with zero sigmas, every request
// has that entry's shape, and Draw appends it once, whatever the count.
// The arrival times are Stream's, bit for bit, and the shape stream is
// not drawn, as it never is for such a mix. So the shapes Draw appends
// are either one per request or one that all s.Requests share.
func (s Spec) Draw(arrivals []float64, shapes []Request) ([]float64, []Request) {
	var one [1]TenantLoad
	mix := s.mix(&one)
	if len(s.Trace) > 0 || s.Turns > 1 || len(mix) > 1 || mix[0].PromptSigma != 0 || mix[0].GenSigma != 0 {
		return s.Stream(arrivals, shapes)
	}
	if !s.Closed {
		arrivals = ArrivalProcess{Rate: s.Rate, Schedule: s.Schedule, Seed: s.Seed}.appendArrivals(arrivals, s.Requests)
	}
	return arrivals, append(shapes, mix[0].Shape())
}
