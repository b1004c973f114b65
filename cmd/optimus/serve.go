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
	"optimus/internal/workload"
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
	sf := addServingFlags(fs, 1)
	arrival := fs.String("arrival", "poisson", "arrival process (poisson|closed)")
	clients := fs.Int("clients", 0, "closed-loop concurrency (closed arrivals only; default 8)")
	prof := addProfileFlags(fs)
	stopProf, err := prof.parse(fs, args)
	if err != nil {
		return err
	}
	defer stopProf()

	closed := false
	switch *arrival {
	case "poisson", "open":
	case "closed", "closed-loop":
		closed = true
	default:
		return fmt.Errorf("unknown arrival process %q (poisson|closed)", *arrival)
	}
	// Reject flags the chosen policy, workload or arrival process would
	// silently ignore — a user who sets them believes they shaped the
	// simulated load.
	set := flagsSet(fs)
	w, err := sf.workload(set, &serveWorkloadFlags, closed)
	if err != nil {
		return err
	}
	spec, err := sf.capacity(set)
	if err != nil {
		return err
	}
	if closed {
		w.Clients = defaultClosedClients
		if set["clients"] {
			if *clients <= 0 {
				return fmt.Errorf("-clients must be positive for closed-loop arrivals, got %d", *clients)
			}
			w.Clients = *clients
		}
	}
	spec.SetWorkload(w)

	res, err := optimus.Serve(spec)
	if err != nil {
		return err
	}
	return writeServe(os.Stdout, spec, res, *prof.format)
}

// loadTrace reads and validates a -trace CSV file, shared by the serve
// and sweep subcommands.
func loadTrace(path string) ([]optimus.ServeTraceEvent, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("-trace: %w", err)
	}
	defer f.Close()
	trace, err := optimus.ParseServeTrace(f)
	if err != nil {
		return nil, fmt.Errorf("-trace %s: %w", path, err)
	}
	return trace, nil
}

// workloadLabel names the simulated workload for the text headers.
func workloadLabel(w workload.Spec) string {
	switch {
	case len(w.Trace) > 0:
		return fmt.Sprintf("%d-event trace", len(w.Trace))
	case len(w.Mix) > 0:
		return fmt.Sprintf("%d-tenant mix %s", len(w.Mix), optimus.FormatServeMix(w.Mix))
	default:
		return fmt.Sprintf("%d+%d tokens", w.PromptTokens, w.GenTokens)
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
			res.Requests, workloadLabel(spec.Workload()), spec.Seed)
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
		writeSLOTable(w, res.TTFT, res.TPOT, res.E2E, res.Queue)
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
		if err := cw.Write(append([]string{"id"}, requestColumns...)); err != nil {
			return err
		}
		for _, m := range res.PerRequest {
			if err := cw.Write(requestRow(m, strconv.Itoa(m.ID))); err != nil {
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

// writeSLOTable renders the SLO percentile table of the serve and cluster
// text reports.
func writeSLOTable(w io.Writer, ttft, tpot, e2e, queue optimus.ServePercentiles) {
	fmt.Fprintf(w, "  %-8s %10s %10s %10s %10s %10s\n", "SLO", "p50", "p95", "p99", "mean", "max")
	for _, row := range []struct {
		name string
		p    optimus.ServePercentiles
	}{{"ttft", ttft}, {"tpot", tpot}, {"e2e", e2e}, {"queue", queue}} {
		fmt.Fprintf(w, "  %-8s %10s %10s %10s %10s %10s\n", row.name,
			units.FormatSeconds(row.p.P50), units.FormatSeconds(row.p.P95),
			units.FormatSeconds(row.p.P99), units.FormatSeconds(row.p.Mean),
			units.FormatSeconds(row.p.Max))
	}
}

// requestColumns are the per-request timeline columns of the serve and
// cluster CSV reports, after their leading id columns; requestRow renders
// one request under them.
var requestColumns = []string{"tenant", "prompt", "gen", "arrival_s", "admitted_s", "first_token_s",
	"done_s", "queue_s", "ttft_s", "tpot_s", "e2e_s", "preemptions", "kv_transfers", "kv_transfer_s"}

func requestRow(m optimus.ServeRequestMetrics, lead ...string) []string {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return append(lead, m.Tenant, strconv.Itoa(m.PromptTokens), strconv.Itoa(m.GenTokens),
		g(m.Arrival), g(m.Admitted), g(m.FirstToken), g(m.Done), g(m.Queue), g(m.TTFT), g(m.TPOT), g(m.E2E),
		strconv.Itoa(m.Preemptions), strconv.Itoa(m.KVTransfers), g(m.KVTransferTime))
}

// writeJSON renders v as indented JSON, the json format of every report.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
