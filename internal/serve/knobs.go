package serve

import (
	"fmt"
	"slices"
	"strings"
)

// Knob is one policy-specific capacity knob of Spec. The Knobs table is
// the one statement of which knob applies to which policy: Spec
// validation, the sweep's axis validation, the CLI's flag checks and the
// canonical rule (Spec.Canonical) all read it, so a new knob costs a Spec
// field, one row and the simulator code that reads it.
type Knob struct {
	// Field names the Spec field; Flag the optimus serve/cluster/sweep
	// flag that sets it, without the dash.
	Field, Flag string
	// Policies are the admission policies that read the knob.
	Policies []Policy
	// Preempts marks a knob that lives on preemption: NoPreempt, which
	// never evicts, leaves it nothing to act on.
	Preempts bool
	// Partner is the Field of a knob that must be set with this one.
	Partner string
	// set reports whether a spec sets the knob. The spec is passed by
	// value so validation keeps it off the heap.
	set func(Spec) bool
}

// Row indices of Knobs, for the package's own rules.
const (
	knobPageTokens = iota
	knobNoPreempt
	knobPrefillDevices
	knobDecodeDevices
	knobTransferGBps
	knobPrefixTokens
	knobHostKVBytes
	knobSwapGBps
)

// Knobs is the policy-knob table, in the order misuse is reported.
var Knobs = [...]Knob{
	knobPageTokens: {Field: "PageTokens", Flag: "page-tokens", Policies: []Policy{Paged, Disaggregated},
		set: func(s Spec) bool { return s.PageTokens != 0 }},
	knobNoPreempt: {Field: "NoPreempt", Flag: "no-preempt", Policies: []Policy{Paged},
		set: func(s Spec) bool { return s.NoPreempt }},
	knobPrefillDevices: {Field: "PrefillDevices", Flag: "prefill-devices", Policies: []Policy{Disaggregated},
		set: func(s Spec) bool { return s.PrefillDevices != 0 }},
	knobDecodeDevices: {Field: "DecodeDevices", Flag: "decode-devices", Policies: []Policy{Disaggregated},
		set: func(s Spec) bool { return s.DecodeDevices != 0 }},
	// NaN bandwidths count as set: NaN != 0.
	knobTransferGBps: {Field: "TransferGBps", Flag: "transfer-gbps", Policies: []Policy{Disaggregated},
		set: func(s Spec) bool { return s.TransferGBps != 0 }},
	// Prefix caching covers every shared prefix the workload carries:
	// the spec-wide one, per-entry mix or trace prefixes and the growing
	// context of session cohorts.
	knobPrefixTokens: {Field: "PrefixTokens", Flag: "prefix", Policies: []Policy{Paged}, Preempts: true,
		set: func(s Spec) bool { return s.Workload().Prefixed() }},
	knobHostKVBytes: {Field: "HostKVBytes", Flag: "kv-host-gb", Policies: []Policy{Paged}, Preempts: true,
		set: func(s Spec) bool { return s.HostKVBytes != 0 }},
	knobSwapGBps: {Field: "SwapGBps", Flag: "swap-gbps", Policies: []Policy{Paged}, Preempts: true, Partner: "HostKVBytes",
		set: func(s Spec) bool { return s.SwapGBps != 0 }},
}

// readBy reports whether any of pols reads the knob.
func (k Knob) readBy(pols ...Policy) bool {
	return slices.ContainsFunc(pols, func(p Policy) bool { return slices.Contains(k.Policies, p) })
}

// applies reports whether a spec running pol (with noPreempt) acts on the
// knob.
func (k Knob) applies(pol Policy, noPreempt bool) bool {
	return k.readBy(pol) && !(k.Preempts && noPreempt)
}

// CheckKnobs walks Knobs in order and reports the first misuse: a knob
// set that no policy in pols reads, a preemption knob set with
// noPreempt, or a knob set without its partner. set says whether the
// caller sets a knob and name how the caller spells it (a field, a sweep
// axis, a flag), and polName how it spells the policy ("Policy",
// "-policies"). An empty pols is the zero Policy, ReserveFull, as in an
// unset sweep axis.
func CheckKnobs(pols []Policy, noPreempt bool, set func(Knob) bool, name func(Knob) string, polName string) error {
	if len(pols) == 0 {
		pols = []Policy{ReserveFull}
	}
	for _, k := range Knobs {
		if !set(k) {
			continue
		}
		if !k.readBy(pols...) {
			noun := "policy"
			if len(k.Policies) > 1 {
				noun = "policies"
			}
			return fmt.Errorf("%s applies to the %s %s only, not %s %s",
				name(k), policyNames(k.Policies, " and "), noun, polName, policyNames(pols, ","))
		}
		if k.Preempts && noPreempt {
			return fmt.Errorf("%s needs preemption (%s reserves full context and never evicts)",
				name(k), name(Knobs[knobNoPreempt]))
		}
		if k.Partner != "" {
			for _, p := range Knobs {
				if p.Field == k.Partner && !set(p) {
					return fmt.Errorf("%s needs %s set too", name(k), name(p))
				}
			}
		}
	}
	return nil
}

// policyNames joins the policies' names with sep.
func policyNames(pols []Policy, sep string) string {
	names := make([]string, len(pols))
	for i, p := range pols {
		names[i] = p.String()
	}
	return strings.Join(names, sep)
}

// Canonical resolves the spec's capacity knobs to the values the
// simulator runs. Knobs the policy ignores are zeroed (session Turns and
// Think with PrefixTokens: a session cohort is prefix caching, and a
// single turn is no cohort); the page size, pool split and link
// bandwidths resolve their defaults; and the page size is clamped to the
// workload's largest context, session growth included. The simulator's
// policy construction, Run's result echo and the sweep's candidate
// enumeration all call it, so memo keys canonicalize under exactly the
// configuration the simulator runs.
func (s Spec) Canonical() Spec {
	// Turns first, so the page clamp sees the context of the turns that
	// run.
	if !Knobs[knobPrefixTokens].applies(s.Policy, s.NoPreempt) || s.Turns <= 1 {
		s.Turns, s.Think = 0, 0
	}
	return s.canonical(possibleEnvelope(s.Workload()).bounds.MaxContext)
}

// canonical is Canonical's knob rule against a precomputed largest
// context.
func (s Spec) canonical(context int) Spec {
	applies := func(i int) bool { return Knobs[i].applies(s.Policy, s.NoPreempt) }
	switch {
	case !applies(knobPageTokens) || context < 1:
		s.PageTokens = 0
	case s.PageTokens <= 0:
		s.PageTokens = min(DefaultPageTokens, context)
	default:
		s.PageTokens = min(s.PageTokens, context)
	}
	if !applies(knobNoPreempt) {
		s.NoPreempt = false
	}
	if !applies(knobPrefillDevices) || s.TP < 1 {
		s.PrefillDevices, s.DecodeDevices = 0, 0
	} else {
		if s.PrefillDevices <= 0 {
			s.PrefillDevices = s.TP
		}
		if s.DecodeDevices <= 0 {
			s.DecodeDevices = s.TP
		}
	}
	switch {
	case !applies(knobTransferGBps):
		s.TransferGBps = 0
	case s.TransferGBps == 0:
		s.TransferGBps = DefaultTransferGBps
	}
	if !applies(knobPrefixTokens) {
		s.PrefixTokens = 0
	}
	if !applies(knobHostKVBytes) {
		s.HostKVBytes = 0
	}
	switch {
	case !applies(knobSwapGBps) || !(s.HostKVBytes > 0):
		s.SwapGBps = 0
	case s.SwapGBps == 0:
		s.SwapGBps = DefaultSwapGBps
	}
	return s
}

// cachesPrefixes reports whether the policy can hold shared prefixes:
// Paged with preemption enabled, the one layout whose block registry
// prefix caching and session cohorts grow into.
func (s Spec) cachesPrefixes() bool { return Knobs[knobPrefixTokens].applies(s.Policy, s.NoPreempt) }
