package main

import (
	"encoding/csv"
	"encoding/json"
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
	sf := addServingFlags(fs)
	replicas := fs.Int("replicas", 2, "replica count (the CLI fleet is homogeneous; heterogeneous fleets are library-only)")
	routing := fs.String("routing", "round-robin", "routing policy (round-robin|least-queue|least-kv|tenant-affinity)")
	rate := fs.Float64("rate", 2, "fleet-wide Poisson arrival rate in requests/sec")
	schedule := fs.String("schedule", "", "piecewise fleet arrival-rate schedule as start-end:rate[,...] in seconds and req/s (replaces -rate)")
	turns := fs.Int("turns", 0, "session-cohort turns per client session, each carrying the session's prior context as a growing shared prefix (paged replicas with preemption only)")
	think := fs.Float64("think", 0, "think time between a session's turns in seconds (needs -turns > 1)")
	requests := fs.Int("requests", 256, "requests to simulate")
	seed := fs.Int64("seed", 1, "arrival-process seed")
	slo := fs.Float64("slo-e2e-p95", 0, "saturation analysis: bisect the arrival rate to the knee where fleet p95 E2E first exceeds this SLO in seconds (replaces -rate)")
	minRate := fs.Float64("min-rate", 0.25, "saturation bracket floor in requests/sec (-slo-e2e-p95 only)")
	maxRate := fs.Float64("max-rate", 16, "saturation bracket ceiling in requests/sec (-slo-e2e-p95 only)")
	kneeProbes := fs.Int("knee-probes", 0, "fleet-simulation budget for the bisection (0 = default 32; a starved budget reports a LOOSE knee; -slo-e2e-p95 only)")
	format := fs.String("format", "text", "output format (text|csv|json)")
	prof := addProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := prof.start()
	if err != nil {
		return err
	}
	defer stopProf()
	switch *format {
	case "text", "csv", "json":
	default:
		return fmt.Errorf("unknown format %q (text|csv|json)", *format)
	}

	set := flagsSet(fs)
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
		Rate:     *rate, Requests: *requests, Seed: *seed,
		Turns: *turns, Think: *think,
	}
	if *schedule != "" {
		if set["rate"] {
			return fmt.Errorf("-schedule fixes the arrival-rate timeline (-rate sets the constant Poisson rate; set one)")
		}
		if spec.Schedule, err = optimus.ParseServeSchedule(*schedule); err != nil {
			return err
		}
		spec.Rate = 0
	}
	w, err := sf.workload(set, []string{"rate", "requests", "seed", "schedule", "turns", "think"})
	if err != nil {
		return err
	}
	spec.PromptTokens, spec.GenTokens, spec.PrefixTokens = w.prompt, w.gen, w.prefix
	spec.Mix, spec.Trace = w.mix, w.trace
	if *sf.trace != "" {
		spec.Rate, spec.Requests, spec.Seed = 0, 0, 0
	}

	if set["slo-e2e-p95"] {
		// Knee mode: the analyzer owns the rate axis.
		if set["rate"] {
			return fmt.Errorf("-rate does not apply to the saturation analysis (-slo-e2e-p95 bisects the rate)")
		}
		if *sf.trace != "" {
			return fmt.Errorf("-trace does not apply to the saturation analysis (a trace fixes its own arrival times)")
		}
		if set["schedule"] {
			return fmt.Errorf("-schedule does not apply to the saturation analysis (-slo-e2e-p95 bisects a constant rate)")
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
		return writeKnee(os.Stdout, spec, knee, *format)
	}
	if set["min-rate"] || set["max-rate"] {
		return fmt.Errorf("-min-rate and -max-rate bracket the saturation analysis (set -slo-e2e-p95)")
	}
	if set["knee-probes"] {
		return fmt.Errorf("-knee-probes budgets the saturation analysis (set -slo-e2e-p95)")
	}

	res, err := optimus.ServeCluster(spec)
	if err != nil {
		return err
	}
	return writeCluster(os.Stdout, spec, res, *format)
}

// clusterWorkloadLabel names the simulated fleet workload for the text
// header.
func clusterWorkloadLabel(spec optimus.ClusterSpec) string {
	switch {
	case len(spec.Trace) > 0:
		return fmt.Sprintf("%d-event trace", len(spec.Trace))
	case len(spec.Mix) > 0:
		return fmt.Sprintf("%d-tenant mix %s", len(spec.Mix), optimus.FormatServeMix(spec.Mix))
	default:
		return fmt.Sprintf("%d+%d tokens", spec.PromptTokens, spec.GenTokens)
	}
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
			arrivals, res.Requests, clusterWorkloadLabel(spec), spec.Seed)
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
		fmt.Fprintf(w, "  %-8s %10s %10s %10s %10s %10s\n", "SLO", "p50", "p95", "p99", "mean", "max")
		for _, row := range []struct {
			name string
			p    optimus.ServePercentiles
		}{
			{"ttft", res.TTFT}, {"tpot", res.TPOT}, {"e2e", res.E2E}, {"queue", res.Queue},
		} {
			fmt.Fprintf(w, "  %-8s %10s %10s %10s %10s %10s\n", row.name,
				units.FormatSeconds(row.p.P50), units.FormatSeconds(row.p.P95),
				units.FormatSeconds(row.p.P99), units.FormatSeconds(row.p.Mean),
				units.FormatSeconds(row.p.Max))
		}
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
		if err := cw.Write([]string{"id", "replica", "tenant", "prompt", "gen",
			"arrival_s", "admitted_s", "first_token_s",
			"done_s", "queue_s", "ttft_s", "tpot_s", "e2e_s", "preemptions",
			"kv_transfers", "kv_transfer_s"}); err != nil {
			return err
		}
		g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
		for _, m := range res.PerRequest {
			if err := cw.Write([]string{
				strconv.Itoa(m.ID), strconv.Itoa(m.Replica), m.Tenant,
				strconv.Itoa(m.PromptTokens), strconv.Itoa(m.GenTokens),
				g(m.Arrival), g(m.Admitted), g(m.FirstToken),
				g(m.Done), g(m.Queue), g(m.TTFT), g(m.TPOT), g(m.E2E),
				strconv.Itoa(m.Preemptions),
				strconv.Itoa(m.KVTransfers), g(m.KVTransferTime),
			}); err != nil {
				return err
			}
		}
		cw.Flush()
		return cw.Error()
	case "json":
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
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
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(knee)
	default:
		return fmt.Errorf("unknown format %q (text|csv|json)", format)
	}
}
