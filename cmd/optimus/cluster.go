package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"optimus"
	"optimus/internal/units"
)

// cmdCluster runs the multi-replica fleet simulator: R identical serving
// replicas behind a routing policy, fed from one seeded arrival stream,
// reporting fleet-wide SLO percentiles with per-replica shares — or, with
// -slo-e2e-p95, bisects the arrival rate to the saturation knee where the
// fleet first misses that SLO.
func cmdCluster(args []string) error {
	fs := flag.NewFlagSet("cluster", flag.ExitOnError)
	sf := addServingFlags(fs, 2)
	replicas := fs.Int("replicas", 2, "replica count (the CLI fleet is homogeneous; heterogeneous fleets are library-only)")
	routing := fs.String("routing", "round-robin", "routing policy (round-robin|least-queue|least-kv|tenant-affinity)")
	slo := fs.Float64("slo-e2e-p95", 0, "saturation analysis: bisect the arrival rate to the knee where fleet p95 E2E first exceeds this SLO in seconds (replaces -rate)")
	minRate := fs.Float64("min-rate", 0.25, "saturation bracket floor in requests/sec (-slo-e2e-p95 only)")
	maxRate := fs.Float64("max-rate", 16, "saturation bracket ceiling in requests/sec (-slo-e2e-p95 only)")
	kneeProbes := fs.Int("knee-probes", 0, "fleet-simulation budget for the bisection (0 = default 32; a starved budget reports a LOOSE knee; -slo-e2e-p95 only)")
	prof := addProfileFlags(fs)
	stopProf, err := prof.parse(fs, args)
	if err != nil {
		return err
	}
	defer stopProf()

	set := flagsSet(fs)
	w, err := sf.workload(set, &clusterWorkloadFlags, false)
	if err != nil {
		return err
	}
	capacity, err := sf.capacity(set)
	if err != nil {
		return err
	}
	rt, err := optimus.ParseClusterRouting(*routing)
	if err != nil {
		return err
	}
	if *replicas < 1 {
		return fmt.Errorf("-replicas must be at least 1, got %d", *replicas)
	}
	spec := optimus.ClusterSpec{
		Replicas: []optimus.ClusterReplica{{Spec: capacity, Count: *replicas}},
		Routing:  rt,
	}
	spec.SetWorkload(w)

	if set["slo-e2e-p95"] {
		// Knee mode: the analyzer bisects a constant rate, which these
		// would fix.
		for _, f := range []string{"rate", "schedule", "trace"} {
			if set[f] {
				return fmt.Errorf("-%s does not apply to the saturation analysis (-slo-e2e-p95 bisects a constant rate)", f)
			}
		}
		spec.Rate = 0
		ks := optimus.ClusterKneeSpec{
			Cluster: spec, SLOE2EP95: *slo,
			MinRate: *minRate, MaxRate: *maxRate,
			MaxProbes: *kneeProbes,
		}
		knee, kerr := optimus.FindClusterKnee(ks)
		if kerr != nil {
			return kerr
		}
		return writeKnee(os.Stdout, spec, knee, *prof.format)
	}
	for _, f := range []string{"min-rate", "max-rate", "knee-probes"} {
		if set[f] {
			return fmt.Errorf("-%s applies to the saturation analysis only (set -slo-e2e-p95)", f)
		}
	}

	res, err := optimus.ServeCluster(spec)
	if err != nil {
		return err
	}
	return writeCluster(os.Stdout, spec, res, *prof.format)
}

// writeCluster renders a fleet simulation in the chosen format.
func writeCluster(w io.Writer, spec optimus.ClusterSpec, res optimus.ClusterResult, format string) error {
	switch format {
	case "text":
		cap := spec.Replicas[0].Spec
		arrivals := "poisson"
		if len(spec.Trace) > 0 {
			arrivals = "replayed"
		}
		fmt.Fprintf(w, "%s on %d replicas of %d x %s (%v routing), %s arrivals, %d requests of %s (seed %d)\n",
			cap.Model.Name, res.Replicas, cap.TP, cap.System.Device.Name, res.Routing,
			arrivals, res.Requests, workloadLabel(spec.Workload()), spec.Seed)
		fmt.Fprintf(w, "  makespan           %s\n", units.FormatSeconds(res.SimTime))
		fmt.Fprintf(w, "  throughput         %.2f req/s, %.0f tok/s (fleet)\n",
			res.ThroughputRPS, res.TokensPerSec)
		if res.Preemptions > 0 || res.RecomputedTokens > 0 {
			fmt.Fprintf(w, "  paging             %d preemptions (%d tokens recomputed)\n",
				res.Preemptions, res.RecomputedTokens)
		}
		if res.KVTransfers > 0 {
			fmt.Fprintf(w, "  kv-transfer        %d migrations, %s total\n",
				res.KVTransfers, units.FormatSeconds(res.TransferTimeTotal))
		}
		if res.PrefixHits > 0 || res.PrefixSavedTokens > 0 {
			fmt.Fprintf(w, "  prefix-cache       %d hits, %d prefill tokens saved (fleet)\n",
				res.PrefixHits, res.PrefixSavedTokens)
		}
		if res.KVSwapOuts > 0 || res.KVSwapIns > 0 {
			fmt.Fprintf(w, "  kv-host-tier       %d swap-outs, %d swap-ins, %s swapping (fleet)\n",
				res.KVSwapOuts, res.KVSwapIns, units.FormatSeconds(res.SwapTimeTotal))
		}
		writeSLOTable(w, res.TTFT, res.TPOT, res.E2E, res.Queue)
		fmt.Fprintf(w, "  %-8s %8s %10s %10s %8s %10s\n",
			"replica", "assigned", "makespan", "e2e-p95", "preempt", "peak-kv")
		for _, rr := range res.PerReplica {
			fmt.Fprintf(w, "  %-8d %8d %10s %10s %8d %10s\n", rr.Index, rr.Assigned,
				units.FormatSeconds(rr.Result.SimTime), units.FormatSeconds(rr.Result.E2E.P95),
				rr.Result.Preemptions, units.FormatBytes(rr.Result.PeakKVBytes))
		}
		if len(res.PerTenant) > 1 {
			fmt.Fprintf(w, "  %-12s %8s %10s %10s %10s\n",
				"tenant", "requests", "ttft-p95", "tpot-p95", "e2e-p95")
			for _, tm := range res.PerTenant {
				fmt.Fprintf(w, "  %-12s %8d %10s %10s %10s\n", tm.Tenant, tm.Requests,
					units.FormatSeconds(tm.TTFT.P95), units.FormatSeconds(tm.TPOT.P95),
					units.FormatSeconds(tm.E2E.P95))
			}
		}
		return nil
	case "csv":
		cw := csv.NewWriter(w)
		if err := cw.Write(append([]string{"id", "replica"}, requestColumns...)); err != nil {
			return err
		}
		for _, m := range res.PerRequest {
			if err := cw.Write(requestRow(m.RequestMetrics, strconv.Itoa(m.ID), strconv.Itoa(m.Replica))); err != nil {
				return err
			}
		}
		cw.Flush()
		return cw.Error()
	case "json":
		return writeJSON(w, res)
	default:
		return fmt.Errorf("unknown format %q (text|csv|json)", format)
	}
}

// writeKnee renders a saturation analysis in the chosen format.
func writeKnee(w io.Writer, spec optimus.ClusterSpec, knee optimus.ClusterKnee, format string) error {
	switch format {
	case "text":
		cap := spec.Replicas[0].Spec
		R := spec.Replicas[0].Count
		fmt.Fprintf(w, "%s on %d replicas of %d x %s (%v routing): saturation knee vs %s p95-E2E SLO\n",
			cap.Model.Name, R, cap.TP, cap.System.Device.Name, spec.Routing,
			units.FormatSeconds(knee.SLOE2EP95))
		if knee.Saturated {
			fmt.Fprintf(w, "  knee               %g req/s (p95 E2E %s)\n",
				knee.Rate, units.FormatSeconds(knee.P95E2E))
			fmt.Fprintf(w, "  first violation    %g req/s (p95 E2E %s)\n",
				knee.LimitRate, units.FormatSeconds(knee.LimitP95))
			if !knee.Converged {
				fmt.Fprintf(w, "  convergence        LOOSE: probe budget exhausted at %.3g relative bracket width (knee is coarser than the tolerance)\n",
					knee.BracketWidth)
			}
		} else {
			fmt.Fprintf(w, "  unsaturated        fleet meets the SLO through %g req/s (p95 E2E %s); raise -max-rate to find the knee\n",
				knee.Rate, units.FormatSeconds(knee.P95E2E))
		}
		fmt.Fprintf(w, "  %-6s %10s %12s %s\n", "probe", "rate", "p95-e2e", "slo")
		for i, pr := range knee.Probes {
			verdict := "meets"
			if !pr.OK {
				verdict = "MISSES"
			}
			fmt.Fprintf(w, "  %-6d %10g %12s %s\n", i, pr.Rate,
				units.FormatSeconds(pr.P95E2E), verdict)
		}
		return nil
	case "csv":
		cw := csv.NewWriter(w)
		if err := cw.Write([]string{"probe", "rate_per_sec", "p95_e2e_s", "meets_slo"}); err != nil {
			return err
		}
		g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
		for i, pr := range knee.Probes {
			if err := cw.Write([]string{
				strconv.Itoa(i), g(pr.Rate), g(pr.P95E2E), strconv.FormatBool(pr.OK),
			}); err != nil {
				return err
			}
		}
		cw.Flush()
		return cw.Error()
	case "json":
		return writeJSON(w, knee)
	default:
		return fmt.Errorf("unknown format %q (text|csv|json)", format)
	}
}
