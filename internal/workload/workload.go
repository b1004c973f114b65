// Package workload describes serving workloads: request shapes,
// multi-tenant mixes, replay traces, piecewise arrival-rate schedules,
// heavy-tailed length draws and multi-turn session cohorts. Spec is the
// one description, and it owns the one rule: its defaults, its possible
// extreme shapes (which the pre-draw rules of every layer read), its
// request stream (trace replay or ArrivalProcess.Generate) and Check, the
// exclusivity and session rules. The serving simulator (internal/serve)
// and the fleet router (internal/cluster) validate and stream their
// workload fields through it, the sweep engine
// (internal/sweep) checks its axes and builds each candidate's Spec, and
// optimus serve, cluster and sweep check their flags with Check. So a
// workload behaves, and is rejected, identically at every layer. Every
// draw is seeded and deterministic.
//
// Degenerate corners are load-bearing: a constant (or empty) Schedule
// reproduces the plain Poisson stream byte-identically, zero length
// sigmas consume no randomness, and a one-turn cohort is exactly the
// flat mix — the serve-level equivalence tests pin all three.
package workload

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// DefaultTenant names the tenant of the degenerate single-tenant workload
// the spec-wide PromptTokens/GenTokens fields describe. Trace rows with an
// empty tenant column parse to it too, so a length-only trace and the
// spec-wide fields land in the same per-tenant bucket.
const DefaultTenant = "default"

// HeavyTailCap bounds heavy-tailed length draws: a lognormal draw is
// clamped to HeavyTailCap times its median, so the pre-draw rules — a
// serving spec's validation and feasibility verdict, a sweep candidate's
// canonical page size — judge the spec alone (the extremes are known
// without generating the workload).
const HeavyTailCap = 8

// Request is one serving request's shape: who issued it and how many
// prompt and generation tokens it carries. The simulator prices every
// admission, decode step and KV allocation off these per-request fields.
type Request struct {
	Tenant       string
	PromptTokens int
	GenTokens    int

	// PrefixID names a shared prompt prefix: requests carrying the same id
	// share their leading PrefixTokens prompt tokens (a common system
	// prompt), and the paged admission policy caches that prefix's KV so a
	// hit charges pages and prefill for the non-shared suffix only.
	// PrefixTokens must leave at least one non-shared prompt token; zero
	// PrefixTokens (with or without an id) is the degenerate no-prefix
	// request, byte-identical to the pre-prefix behavior.
	PrefixID     string
	PrefixTokens int

	// Session and Turn mark a multi-turn cohort row: Session is the
	// 1-based session number and Turn the 1-based turn within it. Turn
	// n+1's prompt includes the session's prior context, so PrefixTokens
	// grows turn over turn and the shared-prefix cache is exercised the
	// way production sessions exercise it. Both zero is the ordinary
	// single-turn request; a session row allows its prefix to grow across
	// occurrences of one PrefixID where independent shapes must agree.
	Session int
	Turn    int
}

// Context is the request's full KV span.
func (r Request) Context() int { return r.PromptTokens + r.GenTokens }

// Validate checks one request shape: a tenant name that survives the
// renderings (validateTenantName), at least one prompt and one generated
// token, and a well-formed shared prefix (validatePrefix). Mix entries,
// trace events and every pushed request pass through it.
func (r Request) Validate() error {
	if err := validateTenantName(r.Tenant); err != nil {
		return err
	}
	switch {
	case r.PromptTokens < 1:
		return fmt.Errorf("needs a positive prompt length, got %d", r.PromptTokens)
	case r.GenTokens < 1:
		return fmt.Errorf("needs at least one generated token, got %d", r.GenTokens)
	}
	return validatePrefix(r.PrefixID, r.PrefixTokens, r.PromptTokens)
}

// TenantLoad is one tenant's contribution to a generated workload mix: a
// relative share of the arrival rate (shares are weights — they need not
// sum to 1) and the prompt/generation shape of its requests.
type TenantLoad struct {
	Tenant       string
	Share        float64
	PromptTokens int
	GenTokens    int

	// PrefixID/PrefixTokens mark the leading PrefixTokens prompt tokens of
	// every request this entry generates as a shared prefix (see
	// Request.PrefixID). Distinct entries may share one PrefixID — with one
	// consistent PrefixTokens — to model tenants issuing the same system
	// prompt.
	PrefixID     string
	PrefixTokens int

	// PromptSigma/GenSigma make the entry's lengths heavy-tailed: when
	// non-zero, each generated request draws its prompt/generation length
	// from a seeded lognormal whose median is PromptTokens/GenTokens and
	// whose log-space standard deviation is the sigma, clamped to
	// [max(1, PrefixTokens+1), HeavyTailCap·median]. Zero sigmas draw
	// nothing and consume no randomness — the constant-length mix is
	// byte-identical to the pre-sigma behavior.
	PromptSigma float64
	GenSigma    float64
}

// Shape converts the load entry to the (median) shape its requests carry.
func (t TenantLoad) Shape() Request {
	return Request{
		Tenant: t.Tenant, PromptTokens: t.PromptTokens, GenTokens: t.GenTokens,
		PrefixID: t.PrefixID, PrefixTokens: t.PrefixTokens,
	}
}

// PromptBounds returns the smallest and largest prompt length the entry
// can generate: the fixed length when PromptSigma is zero, the lognormal
// clamp bounds otherwise.
func (t TenantLoad) PromptBounds() (min, max int) {
	if t.PromptSigma == 0 {
		return t.PromptTokens, t.PromptTokens
	}
	lo := t.PrefixTokens + 1
	if lo < 1 {
		lo = 1
	}
	return lo, HeavyTailCap * t.PromptTokens
}

// GenBounds returns the smallest and largest generation length the entry
// can generate (see PromptBounds).
func (t TenantLoad) GenBounds() (min, max int) {
	if t.GenSigma == 0 {
		return t.GenTokens, t.GenTokens
	}
	return 1, HeavyTailCap * t.GenTokens
}

// TraceEvent is one replayed request: an absolute arrival time plus its
// shape. A trace fixes the whole arrival process, so specs carrying one
// leave Arrival/Rate/Clients unset.
type TraceEvent struct {
	Arrival float64
	Request
}

// validateTenantName rejects names that would corrupt rendered workload
// artifacts: FormatMix joins entries with ',' and fields with ':'
// unescaped, so a tenant name carrying either separator lets two distinct
// workloads render to one identical token — the sweep's CSV mix column
// and memoized workload fingerprints would then silently alias the wrong
// cached result. Leading/trailing whitespace is rejected too: ParseMix
// trims it, so such a name can never round-trip through its own
// rendering.
func validateTenantName(name string) error {
	if name == "" {
		return fmt.Errorf("empty tenant name")
	}
	// Two IndexByte scans, not ContainsAny: this runs on every
	// Instance.Push, and ContainsAny's rune machinery is measurable there.
	if strings.IndexByte(name, ':') >= 0 || strings.IndexByte(name, ',') >= 0 {
		return fmt.Errorf("tenant name %q contains a mix separator (':' and ',' are reserved)", name)
	}
	if name != strings.TrimSpace(name) {
		return fmt.Errorf("tenant name %q carries leading or trailing whitespace", name)
	}
	return nil
}

// validatePrefix checks one request shape's shared-prefix fields: a
// non-negative prefix that leaves at least one non-shared prompt token (the
// prefill pass must always have a suffix to price), a PrefixID whenever the
// prefix is non-empty, and an id that survives the mix/trace renderings
// (validateTenantName's separator rules). A zero-token prefix with an id is
// legal — it is the degenerate no-prefix request the equivalence tests pin.
func validatePrefix(prefixID string, prefixTokens, promptTokens int) error {
	if prefixTokens < 0 {
		return fmt.Errorf("negative prefix length %d", prefixTokens)
	}
	if prefixTokens > 0 && prefixTokens >= promptTokens {
		return fmt.Errorf("prefix of %d tokens must leave at least one non-shared prompt token (prompt is %d)",
			prefixTokens, promptTokens)
	}
	if prefixTokens > 0 && prefixID == "" {
		return fmt.Errorf("a %d-token prefix needs a PrefixID", prefixTokens)
	}
	if prefixID != "" {
		if err := validateTenantName(prefixID); err != nil {
			return fmt.Errorf("prefix id: %w", err)
		}
	}
	return nil
}

// prefixLengths is the id→length record shared by ValidateMix and
// ValidateTrace: a PrefixID names one concrete token sequence, so every
// shape carrying it must agree on its length — except session rows,
// whose per-turn prefix is the session's growing context and may only
// extend (never shrink) across occurrences. The first id seen is kept in
// place; a map is built only once a second distinct id appears.
type prefixLengths struct {
	id     string
	tokens int
	more   map[string]int
}

// check folds one shape's prefix into the record.
func (p *prefixLengths) check(prefixID string, prefixTokens int, session bool) error {
	if prefixID == "" {
		return nil
	}
	var prev int
	var ok bool
	switch {
	case p.id == "":
		p.id, p.tokens = prefixID, prefixTokens
		return nil
	case p.id == prefixID:
		prev, ok = p.tokens, true
	default:
		prev, ok = p.more[prefixID]
	}
	switch {
	case !ok:
	case session:
		if prefixTokens < prev {
			return fmt.Errorf("session prefix %q shrank from %d to %d tokens — a session's context only grows",
				prefixID, prev, prefixTokens)
		}
	case prev != prefixTokens:
		return fmt.Errorf("prefix %q spans %d tokens in one shape and %d in another — a shared prefix has one length",
			prefixID, prev, prefixTokens)
	}
	if p.id == prefixID {
		p.tokens = prefixTokens
		return nil
	}
	if p.more == nil {
		p.more = make(map[string]int, 4)
	}
	p.more[prefixID] = prefixTokens
	return nil
}

// validateSigma checks one heavy-tail sigma: finite and non-negative
// (NaN fails the negated comparison).
func validateSigma(sigma float64, field string) error {
	if !(sigma >= 0) || math.IsInf(sigma, 0) {
		return fmt.Errorf("%s sigma %g not finite and non-negative", field, sigma)
	}
	return nil
}

// ValidateMix checks a workload mix: non-empty, unique separator-free
// tenant names, positive finite shares, at least one prompt and one
// generated token per tenant, and finite non-negative length sigmas.
// Shared by serve.Spec and the sweep grid validation.
func ValidateMix(mix []TenantLoad) error {
	if len(mix) == 0 {
		return fmt.Errorf("workload: empty mix")
	}
	seen := make(map[string]bool, len(mix))
	var prefixes prefixLengths
	for _, t := range mix {
		err := t.Shape().Validate()
		if err == nil {
			err = validateSigma(t.PromptSigma, "prompt")
		}
		if err == nil {
			err = validateSigma(t.GenSigma, "generation")
		}
		if err != nil {
			return fmt.Errorf("workload: tenant %q: %w", t.Tenant, err)
		}
		if seen[t.Tenant] {
			return fmt.Errorf("workload: duplicate mix tenant %q", t.Tenant)
		}
		seen[t.Tenant] = true
		if !(t.Share > 0) || math.IsInf(t.Share, 0) {
			return fmt.Errorf("workload: tenant %q needs a positive finite share, got %g", t.Tenant, t.Share)
		}
		// A heavy-tailed prompt with a shared prefix stays legal only
		// because the draw clamps to PrefixTokens+1; the median itself must
		// still clear the prefix (validatePrefix above uses the median).
		if err := prefixes.check(t.PrefixID, t.PrefixTokens, false); err != nil {
			return fmt.Errorf("workload: %w", err)
		}
	}
	return nil
}

// ValidateTrace checks a replay trace: non-empty, finite non-negative
// arrival times in non-decreasing order, a well-formed shape per event,
// and coherent session columns (Session and Turn are set together, and a
// session prefix only grows). Shared by serve.Spec and the sweep grid
// validation.
func ValidateTrace(trace []TraceEvent) error {
	if len(trace) == 0 {
		return fmt.Errorf("workload: empty trace — a replay needs at least one event (leave Trace nil to generate a workload)")
	}
	prev := 0.0
	var prefixes prefixLengths
	for i, ev := range trace {
		if !(ev.Arrival >= prev) || math.IsInf(ev.Arrival, 0) {
			return fmt.Errorf("workload: trace event %d: arrival %g not finite and non-decreasing (previous %g)",
				i, ev.Arrival, prev)
		}
		prev = ev.Arrival
		if err := ev.Request.Validate(); err != nil {
			return fmt.Errorf("workload: trace event %d: %w", i, err)
		}
		if ev.Session < 0 || ev.Turn < 0 {
			return fmt.Errorf("workload: trace event %d: negative session fields (session %d, turn %d)", i, ev.Session, ev.Turn)
		}
		if (ev.Session > 0) != (ev.Turn > 0) {
			return fmt.Errorf("workload: trace event %d: Session and Turn mark a cohort row together (session %d, turn %d)",
				i, ev.Session, ev.Turn)
		}
		if err := prefixes.check(ev.PrefixID, ev.PrefixTokens, ev.Session > 0); err != nil {
			return fmt.Errorf("workload: trace event %d: %w", i, err)
		}
	}
	return nil
}

// parseLength parses one mix length field: a plain integer median, or
// "median~sigma" for a heavy-tailed lognormal draw.
func parseLength(field string) (median int, sigma float64, err error) {
	base, sig, ok := strings.Cut(field, "~")
	median, err = strconv.Atoi(base)
	if err != nil {
		return 0, 0, err
	}
	if ok {
		sigma, err = strconv.ParseFloat(sig, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("bad sigma: %w", err)
		}
	}
	return median, sigma, nil
}

// formatLength renders one mix length field back into parseLength's form.
func formatLength(median int, sigma float64) string {
	if sigma == 0 {
		return strconv.Itoa(median)
	}
	return strconv.Itoa(median) + "~" + strconv.FormatFloat(sigma, 'g', -1, 64)
}

// ParseMix parses the CLI mix syntax: comma-separated
// "tenant:share:prompt:gen" entries, e.g.
// "chat:0.7:200:200,batch:0.3:2000:100". A fifth field marks the entry's
// leading prompt tokens as a shared prefix ("chat:0.7:200:200:120" — the
// prefix id defaults to the tenant name), and a sixth names the prefix id
// explicitly so distinct tenants can share one prefix
// ("a:1:200:200:120:sys,b:1:300:100:120:sys"). The prompt and gen fields
// accept a "median~sigma" suffix for heavy-tailed lognormal lengths
// ("chat:1:200~1.2:200" draws prompts around a 200-token median).
func ParseMix(s string) ([]TenantLoad, error) {
	var out []TenantLoad
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		parts := strings.Split(tok, ":")
		if len(parts) < 4 || len(parts) > 6 {
			return nil, fmt.Errorf("workload: mix entry %q: want tenant:share:prompt[~sigma]:gen[~sigma][:prefix[:prefix-id]]", tok)
		}
		share, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return nil, fmt.Errorf("workload: mix entry %q: bad share: %w", tok, err)
		}
		prompt, psigma, err := parseLength(parts[2])
		if err != nil {
			return nil, fmt.Errorf("workload: mix entry %q: bad prompt length: %w", tok, err)
		}
		gen, gsigma, err := parseLength(parts[3])
		if err != nil {
			return nil, fmt.Errorf("workload: mix entry %q: bad generation length: %w", tok, err)
		}
		t := TenantLoad{
			Tenant: parts[0], Share: share,
			PromptTokens: prompt, GenTokens: gen,
			PromptSigma: psigma, GenSigma: gsigma,
		}
		if len(parts) >= 5 {
			t.PrefixTokens, err = strconv.Atoi(parts[4])
			if err != nil {
				return nil, fmt.Errorf("workload: mix entry %q: bad prefix length: %w", tok, err)
			}
			if t.PrefixTokens > 0 {
				t.PrefixID = t.Tenant
			}
			if len(parts) == 6 {
				t.PrefixID = parts[5]
			}
		}
		out = append(out, t)
	}
	if err := ValidateMix(out); err != nil {
		return nil, err
	}
	return out, nil
}

// FormatMix renders a mix back into the ParseMix syntax — the canonical
// one-token rendering the sweep writers use. Prefix-free constant-length
// entries keep the four-field form, so every pre-prefix rendering (and
// the fingerprints derived from it) is unchanged.
func FormatMix(mix []TenantLoad) string {
	parts := make([]string, len(mix))
	for i, t := range mix {
		prompt := formatLength(t.PromptTokens, t.PromptSigma)
		gen := formatLength(t.GenTokens, t.GenSigma)
		switch {
		case t.PrefixID == "" && t.PrefixTokens == 0:
			parts[i] = fmt.Sprintf("%s:%g:%s:%s", t.Tenant, t.Share, prompt, gen)
		case t.PrefixID == t.Tenant && t.PrefixTokens > 0:
			parts[i] = fmt.Sprintf("%s:%g:%s:%s:%d", t.Tenant, t.Share, prompt, gen, t.PrefixTokens)
		default:
			parts[i] = fmt.Sprintf("%s:%g:%s:%s:%d:%s", t.Tenant, t.Share, prompt, gen, t.PrefixTokens, t.PrefixID)
		}
	}
	return strings.Join(parts, ",")
}
