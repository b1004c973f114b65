package cluster

import (
	"fmt"
	"math"

	"optimus/internal/workload"
)

// DefaultKneeTolerance is the bisection's relative rate tolerance when
// KneeSpec.Tolerance is zero: the search stops once the bracket width
// falls under 1% of the failing edge.
const DefaultKneeTolerance = 0.01

// DefaultKneeProbes bounds the bisection's fleet simulations when
// KneeSpec.MaxProbes is zero. 32 probes shrink any bracket by 2^-30 —
// far past any useful tolerance — so the cap only guards against
// degenerate tolerances.
const DefaultKneeProbes = 32

// KneeSpec fixes one saturation analysis: bisect the fleet arrival rate to
// the knee where fleet p95 E2E first exceeds a target SLO, instead of
// making the user eyeball a rate sweep.
type KneeSpec struct {
	// Cluster is the fleet under analysis. Its Rate must be zero (the
	// analyzer owns the rate axis) and its workload generated, not a
	// trace (a trace fixes its own arrival times).
	Cluster Spec
	// SLOE2EP95 is the target: the largest acceptable fleet-wide p95
	// end-to-end latency, in seconds.
	SLOE2EP95 float64
	// MinRate and MaxRate bracket the search in requests/sec. MinRate
	// must meet the SLO (or the analysis fails: the SLO is infeasible on
	// this fleet); a MaxRate that still meets it reports an unsaturated
	// knee at MaxRate.
	MinRate float64
	MaxRate float64
	// Tolerance is the relative bracket width the bisection stops at;
	// zero means DefaultKneeTolerance.
	Tolerance float64
	// MaxProbes caps the fleet simulations; zero means DefaultKneeProbes.
	MaxProbes int
}

// KneeProbe is one bisection evaluation: a probed rate, the fleet p95 E2E
// it produced, and whether it met the SLO.
type KneeProbe struct {
	Rate   float64
	P95E2E float64
	OK     bool
}

// Knee is the saturation analysis outcome.
//
//lint:fieldalign public result struct: fields are grouped by meaning for godoc, and one Knee exists per analysis
type Knee struct {
	// Rate is the knee: the highest probed arrival rate whose fleet p95
	// E2E still met the SLO; P95E2E is the fleet p95 at that rate.
	Rate   float64
	P95E2E float64
	// Saturated reports whether the SLO boundary lies inside the bracket:
	// true means LimitRate/LimitP95 hold the lowest probed failing rate;
	// false means even MaxRate met the SLO (the knee is beyond the
	// bracket) and the Limit fields are zero.
	Saturated bool
	LimitRate float64
	LimitP95  float64
	// Converged reports whether the bisection actually reached Tolerance.
	// MaxProbes can exhaust first, and the resulting knee — identical in
	// every other field — is looser than asked for; BracketWidth is the
	// achieved relative bracket width (hi-lo)/hi so the caller can see how
	// loose. An unsaturated knee (the whole bracket met the SLO) is
	// trivially converged at width zero: there is no bracket to narrow.
	Converged    bool
	BracketWidth float64
	// SLOE2EP95 echoes the target; Probes lists every evaluation in
	// probe order (the deterministic bisection transcript).
	SLOE2EP95 float64
	Probes    []KneeProbe
}

// FindKnee bisects the fleet arrival rate to the saturation knee. The
// search is fully deterministic: every probe runs the same seeded fleet
// simulation at a rate that is a pure function of earlier verdicts, so
// repeated analyses are byte-identical (and safe to golden-pin).
func FindKnee(ks KneeSpec) (Knee, error) {
	if len(ks.Cluster.Trace) > 0 {
		return Knee{}, fmt.Errorf("cluster: knee analysis varies the arrival rate — a trace fixes it (use a generated workload)")
	}
	if ks.Cluster.Rate != 0 {
		return Knee{}, fmt.Errorf("cluster: knee analysis owns the rate axis — leave Cluster.Rate zero, got %g", ks.Cluster.Rate)
	}
	if len(ks.Cluster.Schedule) > 0 {
		return Knee{}, fmt.Errorf("cluster: knee analysis owns the rate axis — a Schedule fixes the rate timeline, leave it empty")
	}
	if !(ks.SLOE2EP95 > 0) || math.IsInf(ks.SLOE2EP95, 0) {
		return Knee{}, fmt.Errorf("cluster: need a positive finite p95 E2E SLO, got %g", ks.SLOE2EP95)
	}
	if err := workload.ValidateRate(ks.MinRate); err != nil {
		return Knee{}, fmt.Errorf("cluster: bad MinRate: %w", err)
	}
	if err := workload.ValidateRate(ks.MaxRate); err != nil {
		return Knee{}, fmt.Errorf("cluster: bad MaxRate: %w", err)
	}
	if ks.MinRate >= ks.MaxRate {
		return Knee{}, fmt.Errorf("cluster: MinRate %g must be below MaxRate %g", ks.MinRate, ks.MaxRate)
	}
	tol := ks.Tolerance
	if tol == 0 {
		tol = DefaultKneeTolerance
	}
	if !(tol > 0) || math.IsInf(tol, 0) {
		return Knee{}, fmt.Errorf("cluster: need a positive finite tolerance, got %g", ks.Tolerance)
	}
	maxProbes := ks.MaxProbes
	if maxProbes == 0 {
		maxProbes = DefaultKneeProbes
	}
	if maxProbes < 2 {
		return Knee{}, fmt.Errorf("cluster: bracketing alone needs 2 probes, got MaxProbes %d", maxProbes)
	}

	knee := Knee{SLOE2EP95: ks.SLOE2EP95}
	// One pooled Runner serves every probe: the bisection re-runs the same
	// fleet at different rates, exactly the steady state the pooling seam
	// keeps warm (slabs, ledgers, pricing tables).
	rn := new(Runner)
	probe := func(rate float64) (KneeProbe, error) {
		cs := ks.Cluster
		cs.Rate = rate
		res, err := rn.Run(cs)
		if err != nil {
			return KneeProbe{}, fmt.Errorf("cluster: knee probe at %g req/s: %w", rate, err)
		}
		p := KneeProbe{Rate: rate, P95E2E: res.E2E.P95, OK: res.E2E.P95 <= ks.SLOE2EP95}
		knee.Probes = append(knee.Probes, p)
		return p, nil
	}

	lo, err := probe(ks.MinRate)
	if err != nil {
		return Knee{}, err
	}
	if !lo.OK {
		return Knee{}, fmt.Errorf("cluster: fleet p95 E2E %.4gs already exceeds the %.4gs SLO at MinRate %g req/s — the SLO is infeasible in this bracket",
			lo.P95E2E, ks.SLOE2EP95, ks.MinRate)
	}
	hi, err := probe(ks.MaxRate)
	if err != nil {
		return Knee{}, err
	}
	if hi.OK {
		// The whole bracket meets the SLO: the knee lies beyond MaxRate.
		knee.Rate, knee.P95E2E = hi.Rate, hi.P95E2E
		knee.Converged = true
		return knee, nil
	}

	for len(knee.Probes) < maxProbes && hi.Rate-lo.Rate > tol*hi.Rate {
		mid, err := probe((lo.Rate + hi.Rate) / 2)
		if err != nil {
			return Knee{}, err
		}
		if mid.OK {
			lo = mid
		} else {
			hi = mid
		}
	}
	knee.Rate, knee.P95E2E = lo.Rate, lo.P95E2E
	knee.Saturated = true
	knee.LimitRate, knee.LimitP95 = hi.Rate, hi.P95E2E
	// The loop exits either by narrowing the bracket under tolerance or by
	// exhausting MaxProbes; record which, so a probe-starved loose knee is
	// distinguishable from a converged one.
	knee.BracketWidth = (hi.Rate - lo.Rate) / hi.Rate
	knee.Converged = knee.BracketWidth <= tol
	return knee, nil
}
