package cluster

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"optimus/internal/workload"
)

// kneeFleet is the small fleet the knee tests analyze: two batch-capped
// baseline replicas, 48-request runs — constrained enough to saturate
// inside a small bracket and cheap enough for a brute-force rate sweep.
func kneeFleet(t *testing.T) Spec {
	s := fleet0(t, 2)
	s.Replicas[0].Spec.MaxBatch = 4
	s.Rate = 0
	s.Requests = 48
	return s
}

// TestKneeBisectionMatchesSweep is the acceptance pin: the bisected knee
// must agree with a brute-force rate sweep within tolerance. The sweep
// scans the bracket on a fine grid and finds the last rate meeting the SLO
// before the first violation; the bisected knee must land within one grid
// step plus the bisection tolerance of it.
func TestKneeBisectionMatchesSweep(t *testing.T) {
	fleet := kneeFleet(t)
	const (
		minRate = 0.25
		maxRate = 8.0
		slo     = 12.0 // seconds of fleet p95 E2E
		tol     = 0.02
	)
	knee, err := FindKnee(KneeSpec{
		Cluster: fleet, SLOE2EP95: slo,
		MinRate: minRate, MaxRate: maxRate, Tolerance: tol,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !knee.Saturated {
		t.Fatalf("expected a saturated knee inside [%g, %g], got %+v", minRate, maxRate, knee)
	}
	if knee.P95E2E > slo {
		t.Errorf("knee rate %g reports p95 %g above the SLO %g", knee.Rate, knee.P95E2E, slo)
	}
	if knee.LimitP95 <= slo {
		t.Errorf("limit rate %g reports p95 %g at or under the SLO %g", knee.LimitRate, knee.LimitP95, slo)
	}
	if knee.LimitRate-knee.Rate > tol*knee.LimitRate*1.0000001 {
		t.Errorf("bracket [%g, %g] wider than the %g relative tolerance", knee.Rate, knee.LimitRate, tol)
	}

	// Brute force: march the bracket at a fixed step; the knee estimate is
	// the last OK rate before the first violation.
	const step = 0.25
	sweepKnee, limit := 0.0, 0.0
	for rate := minRate; rate <= maxRate+1e-9; rate += step {
		cs := fleet
		cs.Rate = rate
		res, err := Run(cs)
		if err != nil {
			t.Fatal(err)
		}
		if res.E2E.P95 <= slo {
			sweepKnee = rate
		} else {
			limit = rate
			break
		}
	}
	if limit == 0 {
		t.Fatalf("brute-force sweep found no SLO violation under %g req/s", maxRate)
	}
	// Agreement: both estimates bracket the same boundary, so they differ
	// by at most one sweep step plus the bisection bracket width.
	slack := step + tol*knee.LimitRate + 1e-9
	if d := math.Abs(knee.Rate - sweepKnee); d > slack {
		t.Errorf("bisected knee %g vs swept knee %g: differ by %g, more than %g", knee.Rate, sweepKnee, d, slack)
	}
}

// TestKneeDeterministic: repeated analyses are byte-identical, probes and
// all — the property that makes the CLI output golden-pinnable.
func TestKneeDeterministic(t *testing.T) {
	ks := KneeSpec{Cluster: kneeFleet(t), SLOE2EP95: 12, MinRate: 0.5, MaxRate: 6}
	a, err := FindKnee(ks)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FindKnee(ks)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("repeated knee analyses must be identical")
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Error("JSON encodings differ across identical analyses")
	}
	if len(a.Probes) < 3 {
		t.Errorf("expected a bisection transcript, got %d probes", len(a.Probes))
	}
}

// TestKneeUnsaturated: when even MaxRate meets the SLO the analysis
// reports the bracket edge rather than inventing a knee.
func TestKneeUnsaturated(t *testing.T) {
	knee, err := FindKnee(KneeSpec{
		Cluster: kneeFleet(t), SLOE2EP95: 1e6,
		MinRate: 0.5, MaxRate: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if knee.Saturated {
		t.Errorf("a 1e6-second SLO cannot saturate: %+v", knee)
	}
	if knee.Rate != 2 {
		t.Errorf("unsaturated knee should sit at MaxRate 2, got %g", knee.Rate)
	}
	if knee.LimitRate != 0 || knee.LimitP95 != 0 {
		t.Errorf("unsaturated knee carries limit fields: %+v", knee)
	}
	if len(knee.Probes) != 2 {
		t.Errorf("unsaturated bracket should cost exactly 2 probes, got %d", len(knee.Probes))
	}
	if !knee.Converged || knee.BracketWidth != 0 {
		t.Errorf("an unsaturated knee has no bracket to narrow — trivially converged at width 0, got %+v", knee)
	}
}

// TestKneeProbeExhaustionReportsLoose is the satellite bugfix regression:
// a MaxProbes budget too small to narrow the bracket under the tolerance
// used to return a knee indistinguishable from a converged one. The
// starved analysis must now report Converged=false with the achieved
// bracket width, agree on the knee's bracketing invariants, and a
// generous budget on the identical analysis must report Converged=true
// within tolerance.
func TestKneeProbeExhaustionReportsLoose(t *testing.T) {
	base := KneeSpec{
		Cluster: kneeFleet(t), SLOE2EP95: 12,
		MinRate: 0.25, MaxRate: 8, Tolerance: 0.01,
	}
	starved := base
	// 2 bracketing probes + 1 bisection step: the bracket halves once,
	// nowhere near a 1% width.
	starved.MaxProbes = 3
	loose, err := FindKnee(starved)
	if err != nil {
		t.Fatal(err)
	}
	if !loose.Saturated {
		t.Fatalf("the bracket must saturate: %+v", loose)
	}
	if loose.Converged {
		t.Fatalf("3 probes cannot reach a 1%% bracket on [%g, %g], yet Converged is set: %+v",
			base.MinRate, base.MaxRate, loose)
	}
	if len(loose.Probes) != 3 {
		t.Errorf("starved analysis ran %d probes of a 3-probe budget", len(loose.Probes))
	}
	wantWidth := (loose.LimitRate - loose.Rate) / loose.LimitRate
	if loose.BracketWidth != wantWidth {
		t.Errorf("BracketWidth %g does not match the bracket [%g, %g]", loose.BracketWidth, loose.Rate, loose.LimitRate)
	}
	if loose.BracketWidth <= base.Tolerance {
		t.Errorf("a starved bracket this wide should exceed the %g tolerance, got %g", base.Tolerance, loose.BracketWidth)
	}

	converged, err := FindKnee(base)
	if err != nil {
		t.Fatal(err)
	}
	if !converged.Converged {
		t.Fatalf("the default probe budget must converge at 1%%: %+v", converged)
	}
	if converged.BracketWidth > base.Tolerance {
		t.Errorf("converged width %g exceeds the %g tolerance", converged.BracketWidth, base.Tolerance)
	}
	// The loose knee must still be a valid (coarser) bracketing of the
	// converged one.
	if loose.Rate > converged.Rate || loose.LimitRate < converged.LimitRate {
		t.Errorf("starved bracket [%g, %g] does not contain the converged [%g, %g]",
			loose.Rate, loose.LimitRate, converged.Rate, converged.LimitRate)
	}
}

// TestKneeValidation pins the analyzer's rejection surface, including the
// infeasible-SLO verdict.
func TestKneeValidation(t *testing.T) {
	base := func() KneeSpec {
		return KneeSpec{Cluster: kneeFleet(t), SLOE2EP95: 12, MinRate: 0.5, MaxRate: 6}
	}
	check := func(name, wantErr string, mut func(*KneeSpec)) {
		t.Helper()
		ks := base()
		mut(&ks)
		_, err := FindKnee(ks)
		if err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Errorf("%s: got %v, want %q", name, err, wantErr)
		}
	}
	check("rate set", "leave Cluster.Rate zero", func(ks *KneeSpec) { ks.Cluster.Rate = 1 })
	check("trace workload", "trace fixes it", func(ks *KneeSpec) {
		ks.Cluster.Trace = []workload.TraceEvent{
			{Arrival: 0, Request: workload.Request{Tenant: "a", PromptTokens: 100, GenTokens: 10}},
		}
	})
	check("zero SLO", "positive finite p95 E2E SLO", func(ks *KneeSpec) { ks.SLOE2EP95 = 0 })
	check("NaN SLO", "positive finite p95 E2E SLO", func(ks *KneeSpec) { ks.SLOE2EP95 = math.NaN() })
	check("zero min", "bad MinRate", func(ks *KneeSpec) { ks.MinRate = 0 })
	check("inf max", "bad MaxRate", func(ks *KneeSpec) { ks.MaxRate = math.Inf(1) })
	check("inverted bracket", "below MaxRate", func(ks *KneeSpec) { ks.MinRate, ks.MaxRate = 6, 0.5 })
	check("negative tolerance", "positive finite tolerance", func(ks *KneeSpec) { ks.Tolerance = -1 })
	check("one probe", "needs 2 probes", func(ks *KneeSpec) { ks.MaxProbes = 1 })
	check("infeasible SLO", "infeasible in this bracket", func(ks *KneeSpec) { ks.SLOE2EP95 = 1e-6 })
	check("invalid fleet", "at least one replica", func(ks *KneeSpec) { ks.Cluster.Replicas = nil })
}
