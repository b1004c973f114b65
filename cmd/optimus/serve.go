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

// defaultClosedClients is the closed-loop concurrency when -arrival closed
// is used without -clients: a sensible default instead of the raw internal
// "positive clients" error the zero flag default used to trip.
const defaultClosedClients = 8

// cmdServe runs the continuous-batching serving simulator: seeded
// deterministic arrivals over the step-cost engine, reporting TTFT/TPOT/
// E2E SLO percentiles with per-tenant breakdowns (text), per-request
// timelines (csv), or both (json).
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	sf := addServingFlags(fs)
	arrival := fs.String("arrival", "poisson", "arrival process (poisson|closed)")
	rate := fs.Float64("rate", 1, "Poisson arrival rate in requests/sec")
	schedule := fs.String("schedule", "", "piecewise arrival-rate schedule as start-end:rate[,...] in seconds and req/s (replaces -rate; poisson only)")
	turns := fs.Int("turns", 0, "session-cohort turns per client session, each carrying the session's prior context as a growing shared prefix (poisson + paged with preemption only)")
	think := fs.Float64("think", 0, "think time between a session's turns in seconds (needs -turns > 1)")
	clients := fs.Int("clients", 0, "closed-loop concurrency (closed arrivals only; default 8)")
	requests := fs.Int("requests", 256, "requests to simulate")
	seed := fs.Int64("seed", 1, "arrival-process seed")
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

	// Reject flags the chosen policy, workload or arrival process would
	// silently ignore — a user who sets them believes they shaped the
	// simulated load.
	set := flagsSet(fs)
	spec, err := sf.capacity(set)
	if err != nil {
		return err
	}
	w, err := sf.workload(set, []string{"arrival", "rate", "clients", "requests", "seed", "schedule", "turns", "think"})
	if err != nil {
		return err
	}
	spec.PromptTokens, spec.GenTokens, spec.PrefixTokens = w.prompt, w.gen, w.prefix
	spec.Mix, spec.Trace = w.mix, w.trace
	if *sf.trace == "" {
		spec.Rate, spec.Clients, spec.Requests, spec.Seed = *rate, *clients, *requests, *seed
		spec.Turns, spec.Think = *turns, *think
		switch *arrival {
		case "poisson", "open":
			spec.Arrival = optimus.PoissonArrivals
			if set["clients"] {
				return fmt.Errorf("-clients applies to closed-loop arrivals only (-arrival closed)")
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
		case "closed", "closed-loop":
			spec.Arrival = optimus.ClosedLoopArrivals
			if set["rate"] {
				return fmt.Errorf("-rate applies to Poisson arrivals only (-arrival poisson)")
			}
			for _, f := range []string{"schedule", "turns", "think"} {
				if set[f] {
					return fmt.Errorf("-%s applies to open-loop Poisson arrivals only (-arrival poisson)", f)
				}
			}
			spec.Rate = 0
			if !set["clients"] {
				spec.Clients = defaultClosedClients
			} else if *clients <= 0 {
				return fmt.Errorf("-clients must be positive for closed-loop arrivals, got %d", *clients)
			}
		default:
			return fmt.Errorf("unknown arrival process %q (poisson|closed)", *arrival)
		}
	}

	res, err := optimus.Serve(spec)
	if err != nil {
		return err
	}
	return writeServe(os.Stdout, spec, res, *format)
}

// loadTrace reads and validates a -trace CSV file, shared by the serve
// and sweep subcommands.
func loadTrace(path string) ([]optimus.ServeTraceEvent, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	trace, err := optimus.ParseServeTrace(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return trace, nil
}

// serveWorkloadLabel names the simulated workload for the text header.
func serveWorkloadLabel(spec optimus.ServeSpec) string {
	switch {
	case len(spec.Trace) > 0:
		return fmt.Sprintf("%d-event trace", len(spec.Trace))
	case len(spec.Mix) > 0:
		return fmt.Sprintf("%d-tenant mix %s", len(spec.Mix), optimus.FormatServeMix(spec.Mix))
	default:
		return fmt.Sprintf("%d+%d tokens", spec.PromptTokens, spec.GenTokens)
	}
}

// writeServe renders a serving simulation in the chosen format.
func writeServe(w io.Writer, spec optimus.ServeSpec, res optimus.ServeResult, format string) error {
	switch format {
	case "text":
		arrivals := spec.Arrival.String()
		if len(spec.Trace) > 0 {
			arrivals = "replayed"
		}
		fmt.Fprintf(w, "%s on %d x %s, %s arrivals, %d requests of %s (seed %d)\n",
			spec.Model.Name, spec.TP, spec.System.Device.Name, arrivals,
			res.Requests, serveWorkloadLabel(spec), spec.Seed)
		fmt.Fprintf(w, "  makespan           %s over %d iterations\n",
			units.FormatSeconds(res.SimTime), res.Iterations)
		fmt.Fprintf(w, "  throughput         %.2f req/s, %.0f tok/s\n",
			res.ThroughputRPS, res.TokensPerSec)
		fmt.Fprintf(w, "  batching           mean %.1f, peak %d (cap %d)\n",
			res.MeanBatch, res.PeakBatch, res.MaxBatch)
		fmt.Fprintf(w, "  kv-cache           peak %s of %s budget (mean util %.0f%%)\n",
			units.FormatBytes(res.PeakKVBytes), units.FormatBytes(res.KVCapacity),
			100*res.MeanKVUtil)
		if res.PageTokens > 0 {
			fmt.Fprintf(w, "  paging             %d-token pages, peak %d of %d, %d preemptions (%d tokens recomputed)\n",
				res.PageTokens, res.PeakKVPages, res.KVPagesTotal,
				res.Preemptions, res.RecomputedTokens)
		}
		if res.PrefixHits > 0 || res.PrefixSavedTokens > 0 {
			fmt.Fprintf(w, "  prefix-cache       %d hits, %d prefill tokens saved\n",
				res.PrefixHits, res.PrefixSavedTokens)
		}
		if res.HostPagesTotal > 0 {
			fmt.Fprintf(w, "  kv-host-tier       %d pages (peak %d), %d swap-outs, %d swap-ins, %s swapping over %g GB/s\n",
				res.HostPagesTotal, res.PeakHostPages, res.KVSwapOuts, res.KVSwapIns,
				units.FormatSeconds(res.SwapTimeTotal), spec.SwapGBps)
		}
		if res.PrefillDevices > 0 {
			fmt.Fprintf(w, "  pools              prefill %d dev (peak %d of %d pages), decode %d dev (peak %d of %d pages)\n",
				res.PrefillDevices, res.PeakPrefillPages, res.PrefillPagesTotal,
				res.DecodeDevices, res.PeakDecodePages, res.DecodePagesTotal)
			fmt.Fprintf(w, "  kv-transfer        %d migrations, %s total over %g GB/s\n",
				res.KVTransfers, units.FormatSeconds(res.TransferTimeTotal), spec.TransferGBps)
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
		// The per-tenant breakdown matters exactly when there is more than
		// one tenant; the degenerate single-tenant table would repeat the
		// aggregate rows above.
		if len(res.PerTenant) > 1 {
			fmt.Fprintf(w, "  %-12s %8s %10s %10s %10s %10s\n",
				"tenant", "requests", "ttft-p95", "tpot-p95", "e2e-p95", "queue-p95")
			for _, tm := range res.PerTenant {
				fmt.Fprintf(w, "  %-12s %8d %10s %10s %10s %10s\n", tm.Tenant, tm.Requests,
					units.FormatSeconds(tm.TTFT.P95), units.FormatSeconds(tm.TPOT.P95),
					units.FormatSeconds(tm.E2E.P95), units.FormatSeconds(tm.Queue.P95))
			}
		}
		return nil
	case "csv":
		cw := csv.NewWriter(w)
		if err := cw.Write([]string{"id", "tenant", "prompt", "gen",
			"arrival_s", "admitted_s", "first_token_s",
			"done_s", "queue_s", "ttft_s", "tpot_s", "e2e_s", "preemptions",
			"kv_transfers", "kv_transfer_s"}); err != nil {
			return err
		}
		g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
		for _, m := range res.PerRequest {
			if err := cw.Write([]string{
				strconv.Itoa(m.ID), m.Tenant,
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
