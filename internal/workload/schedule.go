package workload

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Segment is one piece of a piecewise-constant arrival-rate schedule:
// Rate requests/sec over the half-open interval [Start, End) seconds of
// simulated time.
type Segment struct {
	Start, End float64
	Rate       float64
}

// Schedule is a piecewise-constant arrival-rate timeline: contiguous
// segments starting at time zero. The last segment's rate extends past
// its End indefinitely (a schedule shapes the early arrivals; the stream
// must still be able to emit any request count), which is what makes a
// single-segment schedule exactly a constant rate. Interior segments may
// carry a zero rate — a quiet period the arrival stream jumps over — but
// the final segment's rate must be positive. An empty (nil) Schedule
// means "no schedule": the plain constant-rate Poisson process.
type Schedule []Segment

// Validate checks the schedule: non-empty, first segment starting at
// zero, finite positive-length contiguous segments, finite non-negative
// rates, and a positive final rate.
func (s Schedule) Validate() error {
	if len(s) == 0 {
		return fmt.Errorf("workload: empty schedule")
	}
	if s[0].Start != 0 {
		return fmt.Errorf("workload: schedule starts at %g — the first segment must start at 0", s[0].Start)
	}
	for i, seg := range s {
		if math.IsNaN(seg.Start) || math.IsInf(seg.Start, 0) || math.IsNaN(seg.End) || math.IsInf(seg.End, 0) {
			return fmt.Errorf("workload: schedule segment %d spans [%g, %g) — bounds must be finite", i, seg.Start, seg.End)
		}
		if !(seg.End > seg.Start) {
			return fmt.Errorf("workload: schedule segment %d spans [%g, %g) — End must exceed Start", i, seg.Start, seg.End)
		}
		if i > 0 && seg.Start != s[i-1].End { //lint:floateq contiguity is exact by construction — parsed endpoints are shared literals, not computed values
			return fmt.Errorf("workload: schedule segment %d starts at %g but segment %d ends at %g — segments must be contiguous",
				i, seg.Start, i-1, s[i-1].End)
		}
		if !(seg.Rate >= 0) || math.IsInf(seg.Rate, 0) {
			return fmt.Errorf("workload: schedule segment %d has rate %g — rates must be finite and non-negative", i, seg.Rate)
		}
	}
	if !(s[len(s)-1].Rate > 0) {
		return fmt.Errorf("workload: the final schedule segment extends indefinitely — its rate must be positive, got %g",
			s[len(s)-1].Rate)
	}
	return nil
}

// CanonicalSchedule reduces a (Schedule, Rate) pair to canonical form:
// adjacent equal-rate segments merge, and a schedule that is constant
// after merging collapses to (nil, rate) — the plain Poisson form — so a
// degenerate schedule fingerprints (and simulates) identically to the
// rate it encodes. With no schedule the pair passes through unchanged.
// A schedule that is already canonical is returned itself, not copied,
// so a caller that keeps the result past the input clones it. The input
// is assumed validated; the canonical form revalidates clean.
func CanonicalSchedule(s Schedule, rate float64) (Schedule, float64) {
	if len(s) == 0 {
		return nil, rate
	}
	canonical := len(s) > 1
	for i := 1; i < len(s) && canonical; i++ {
		canonical = s[i].Rate != s[i-1].Rate //lint:floateq canonicalization merges exactly-equal rates only; nearly-equal segments are distinct on purpose
	}
	if canonical {
		return s, 0
	}
	out := Schedule{s[0]}
	for _, seg := range s[1:] {
		if last := &out[len(out)-1]; seg.Rate == last.Rate { //lint:floateq canonicalization merges exactly-equal rates only; nearly-equal segments are distinct on purpose
			last.End = seg.End
			continue
		}
		out = append(out, seg)
	}
	if len(out) == 1 {
		// One segment whose rate extends forever is a constant rate.
		return nil, out[0].Rate
	}
	return out, 0
}

// ParseSchedule parses the CLI schedule syntax: comma-separated
// "start-end:rate" segments in seconds and requests/sec, e.g.
// "0-60:5,60-120:25" — a 5 req/s baseline with a 25 req/s burst from
// t=60s on. The parsed schedule is validated.
func ParseSchedule(s string) (Schedule, error) {
	var out Schedule
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		span, rateStr, ok := strings.Cut(tok, ":")
		if !ok {
			return nil, fmt.Errorf("workload: schedule segment %q: want start-end:rate", tok)
		}
		startStr, endStr, ok := strings.Cut(span, "-")
		if !ok {
			return nil, fmt.Errorf("workload: schedule segment %q: want start-end:rate", tok)
		}
		start, err := strconv.ParseFloat(startStr, 64)
		if err != nil {
			return nil, fmt.Errorf("workload: schedule segment %q: bad start: %w", tok, err)
		}
		end, err := strconv.ParseFloat(endStr, 64)
		if err != nil {
			return nil, fmt.Errorf("workload: schedule segment %q: bad end: %w", tok, err)
		}
		rate, err := strconv.ParseFloat(rateStr, 64)
		if err != nil {
			return nil, fmt.Errorf("workload: schedule segment %q: bad rate: %w", tok, err)
		}
		out = append(out, Segment{Start: start, End: end, Rate: rate})
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// FormatSchedule renders a schedule back into ParseSchedule's syntax —
// the canonical one-token rendering Point.Key fingerprints. An empty
// schedule renders empty. Times use the 'f' float form (never scientific
// notation): an exponent's '-' would collide with the span separator and
// break the parse→format→parse identity the fuzz harness pins.
func FormatSchedule(s Schedule) string {
	if len(s) == 0 {
		return ""
	}
	parts := make([]string, len(s))
	for i, seg := range s {
		parts[i] = strconv.FormatFloat(seg.Start, 'f', -1, 64) + "-" +
			strconv.FormatFloat(seg.End, 'f', -1, 64) + ":" +
			strconv.FormatFloat(seg.Rate, 'f', -1, 64)
	}
	return strings.Join(parts, ",")
}
