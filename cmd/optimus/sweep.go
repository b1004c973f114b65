package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"optimus"
	"optimus/internal/sweep"
	"optimus/internal/tech"
	"optimus/internal/units"
)

// cmdSweep evaluates a cross-product experiment grid with the concurrent
// plan-sweep engine (§5.1 scaled out: models × systems × precisions ×
// batches × mappings × schedules × recompute regimes).
func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	kind := fs.String("workload", "train", "workload (train|infer|serve)")
	models := fs.String("models", "gpt-175b", "comma-separated model presets")
	devices := fs.String("devices", "a100", "comma-separated device presets")
	gpus := fs.String("gpus", "64", "comma-separated device counts")
	intra := fs.String("intra", "nvlink3", "intra-node fabric")
	inter := fs.String("inter", "hdr", "inter-node fabric")
	batches := fs.String("batches", "", "comma-separated global batch sizes (default 64; infer: 1)")
	seqs := fs.String("seqs", "", "comma-separated sequence lengths (default 2048; infer: prompt 200)")
	gens := fs.String("gen", "", "comma-separated generated-token counts (infer/serve, default 200)")
	rates := fs.String("rates", "", "comma-separated Poisson arrival rates in req/s (serve only, default 1)")
	schedules := fs.String("schedules", "", "semicolon-separated piecewise arrival-rate schedules, each start-end:rate[,...] in seconds and req/s (serve only; replaces -rates)")
	turnsFlag := fs.String("turns", "", "comma-separated session-cohort turn counts to compare (serve only; entries above 1 need a paged entry in -policies)")
	think := fs.Float64("think", 0, "think time between a session's turns in seconds (serve only; needs a -turns entry above 1)")
	caps := fs.String("batch-caps", "", "comma-separated iteration batch caps (serve only, default 0 = derive)")
	mixes := fs.String("mix", "", "semicolon-separated multi-tenant mixes, each tenant:share:prompt[~sigma]:gen[~sigma][,...] (serve only; replaces -seqs/-gen)")
	trace := fs.String("trace", "", "CSV trace file to replay per candidate (serve only; replaces -rates/-seqs/-gen)")
	serveReqs := fs.Int("serve-requests", 0, "simulated requests per serving candidate (serve only, default 128)")
	serveSeed := fs.Int64("serve-seed", 0, "arrival seed per serving candidate (serve only, default 1)")
	policies := fs.String("policies", "", "comma-separated KV admission policies to compare (reserve|paged|disagg; serve only, default reserve)")
	pageTokens := fs.Int("page-tokens", 0, "paged/disagg KV block size in tokens (serve only, default 16)")
	prefillDevices := fs.String("prefill-devices", "", "comma-separated disagg prefill-pool device counts, zipped with -decode-devices into pool-split axis values (serve -policies disagg only)")
	decodeDevices := fs.String("decode-devices", "", "comma-separated disagg decode-pool device counts, zipped with -prefill-devices (serve -policies disagg only)")
	transferGBps := fs.Float64("transfer-gbps", 0, "disagg KV-transfer interconnect bandwidth in GB/s (serve only, 0 = default 50, Inf = free)")
	prefixesFlag := fs.String("prefix", "", "comma-separated shared prompt-prefix token counts to compare (serve -policies paged only; replaces per-request prefixes)")
	hostKVGBs := fs.String("kv-host-gb", "", "comma-separated host KV tier capacities in GB to compare (serve -policies paged only; 0 = recompute-only)")
	swapGBps := fs.Float64("swap-gbps", 0, "GPU-host KV swap-link bandwidth in GB/s (serve only, 0 = default 32; needs -kv-host-gb)")
	replicasFlag := fs.String("replicas", "", "comma-separated fleet sizes to compare (serve only; 0 = plain single instance)")
	routings := fs.String("routings", "", "comma-separated cluster routing policies to compare (round-robin|least-queue|least-kv|tenant-affinity; serve only, needs a positive -replicas entry)")
	precs := fs.String("precisions", "", "comma-separated GEMM precisions (default bf16; infer fp16)")
	micros := fs.String("microbatches", "", "comma-separated microbatch sizes (train only, default 1,2,4)")
	recs := fs.String("recomputes", "", "comma-separated recompute regimes (train only, default none,selective,full)")
	maxTP := fs.Int("max-tp", 0, "tensor-parallel cap (train only, 0 = node size)")
	overflow := fs.Bool("allow-overflow", false, "also rank memory-overflowing candidates")
	topK := fs.Int("top", 20, "rows to keep")
	workers := fs.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS)")
	cache := fs.String("cache", "", "persist the memoization cache to this JSON file (load on start, save on exit)")
	prof := addProfileFlags(fs)
	stopProf, err := prof.parse(fs, args)
	if err != nil {
		return err
	}
	defer stopProf()

	spec := optimus.SweepSpec{
		Constraints: optimus.PlanConstraints{
			MaxTP: *maxTP, AllowOverflow: *overflow, TopK: *topK,
		},
		Workers: *workers,
	}
	switch *kind {
	case "train", "training":
		spec.Workload = optimus.TrainingSweep
	case "infer", "inference":
		spec.Workload = optimus.InferenceSweep
	case "serve", "serving":
		spec.Workload = optimus.ServingSweep
	default:
		return fmt.Errorf("unknown workload %q (train|infer|serve)", *kind)
	}
	// Every flag but the trace file parses into the grid first, so the
	// axis table can check the flags given, naming them, before any file
	// is read. Mixes and schedules are semicolon-separated because their
	// entries are themselves comma-separated.
	atoi, atof := strconv.Atoi, func(f string) (float64, error) { return strconv.ParseFloat(f, 64) }
	spec.Mixes = splitEach(*mixes, "mix", ";", optimus.ParseServeMix, &err)
	spec.Turns = splitEach(*turnsFlag, "turns", ",", atoi, &err)
	spec.Policies = splitEach(*policies, "policies", ",", optimus.ParseServePolicy, &err)
	spec.ServePageTokens = *pageTokens
	prefills := splitEach(*prefillDevices, "prefill-devices", ",", atoi, &err)
	decodes := splitEach(*decodeDevices, "decode-devices", ",", atoi, &err)
	spec.TransferGBps = *transferGBps
	spec.PrefixTokens = splitEach(*prefixesFlag, "prefix", ",", atoi, &err)
	spec.HostKVBytes = splitEach(*hostKVGBs, "kv-host-gb", ",", func(f string) (float64, error) {
		gb, gbErr := atof(f)
		return gb * 1e9, gbErr
	}, &err)
	spec.SwapGBps = *swapGBps
	spec.Replicas = splitEach(*replicasFlag, "replicas", ",", atoi, &err)
	spec.Routings = splitEach(*routings, "routings", ",", optimus.ParseClusterRouting, &err)
	spec.Models = splitEach(*models, "models", ",", optimus.ModelByName, &err)
	counts := splitEach(*gpus, "gpus", ",", atoi, &err)
	for _, dev := range splitEach(*devices, "devices", ",", func(f string) (string, error) { return f, nil }, &err) {
		for _, n := range counts {
			sys, sysErr := optimus.NewSystem(dev, n, *intra, *inter)
			if sysErr != nil {
				return sysErr
			}
			spec.Systems = append(spec.Systems, sys)
		}
	}
	spec.GlobalBatches = splitEach(*batches, "batches", ",", atoi, &err)
	spec.Seqs = splitEach(*seqs, "seqs", ",", atoi, &err)
	spec.GenTokens = splitEach(*gens, "gen", ",", atoi, &err)
	spec.Rates = splitEach(*rates, "rates", ",", atof, &err)
	spec.Schedules = splitEach(*schedules, "schedules", ";", optimus.ParseServeSchedule, &err)
	spec.Think = *think
	spec.BatchCaps = splitEach(*caps, "batch-caps", ",", atoi, &err)
	spec.ServeRequests, spec.ServeSeed = *serveReqs, *serveSeed
	spec.Constraints.Microbatches = splitEach(*micros, "microbatches", ",", atoi, &err)
	spec.Precisions = splitEach(*precs, "precisions", ",", tech.ParsePrecision, &err)
	spec.Constraints.Recomputes = splitEach(*recs, "recomputes", ",", parseRecompute, &err)
	if err != nil {
		return err
	}
	// The pool-split axis zips -prefill-devices with -decode-devices:
	// entry i of each list forms one split, so "2,4" + "6,4" compares a
	// 2+6 split against a 4+4 one.
	if len(prefills) != len(decodes) {
		return fmt.Errorf("-prefill-devices and -decode-devices must zip: got %d vs %d entries", len(prefills), len(decodes))
	}
	for i := range prefills {
		spec.PoolSplits = append(spec.PoolSplits, optimus.SweepPoolSplit{Prefill: prefills[i], Decode: decodes[i]})
	}
	// A flag given is an axis set, even at its zero value.
	given := flagsSet(fs)
	if err := spec.CheckAxes(
		func(a sweep.Axis) bool {
			return slices.ContainsFunc(strings.Split(a.Flag, "/"), func(f string) bool { return given[f] })
		},
		func(a sweep.Axis) string {
			if a.Flag == "" {
				return ""
			}
			return "-" + strings.ReplaceAll(a.Flag, "/", "/-")
		}); err != nil {
		return err
	}
	if *trace != "" {
		if spec.Trace, err = loadTrace(*trace); err != nil {
			return err
		}
	}

	var res optimus.SweepResult
	if *cache == "" {
		// spec.Workers carries -workers, so this is the pool an engine
		// of that size would run.
		res, err = optimus.Sweep(context.Background(), spec)
	} else {
		eng := optimus.NewSweepEngine(*workers)
		if err := eng.LoadCacheFile(*cache); err != nil {
			return err
		}
		res, err = eng.Run(context.Background(), spec)
		if err == nil {
			err = eng.SaveCacheFile(*cache)
		}
	}
	if err != nil {
		return err
	}
	return writeSweep(os.Stdout, res, spec.Workload, *prof.format)
}

// splitEach parses a sep-separated flag value entry by entry, dropping
// empty entries. The first failure lands in *err, naming the flag, and
// ends the parsing.
func splitEach[T any](val, flag, sep string, parse func(string) (T, error), err *error) []T {
	var out []T
	for _, f := range strings.Split(val, sep) {
		if f = strings.TrimSpace(f); f == "" || *err != nil {
			continue
		}
		v, perr := parse(f)
		if perr != nil {
			*err = fmt.Errorf("-%s: %w", flag, perr)
			continue
		}
		out = append(out, v)
	}
	return out
}

// sweepRecord flattens one ranked row for the CSV and JSON encoders.
type sweepRecord struct {
	Rank       int     `json:"rank"`
	Model      string  `json:"model"`
	System     string  `json:"system"`
	Mapping    string  `json:"mapping"`
	Microbatch int     `json:"microbatch"`
	Recompute  string  `json:"recompute"`
	Precision  string  `json:"precision"`
	Batch      int     `json:"batch"`
	Seq        int     `json:"seq"`
	Gen        int     `json:"gen_tokens,omitempty"`
	Seconds    float64 `json:"seconds"`
	MFU        float64 `json:"mfu"`
	MemoryGB   float64 `json:"memory_gb"`
	Fits       bool    `json:"fits"`

	// Serving-only SLO columns (zero elsewhere).
	Rate         float64 `json:"rate_per_sec,omitempty"`
	TTFTP95      float64 `json:"ttft_p95_s,omitempty"`
	TPOTP95      float64 `json:"tpot_p95_s,omitempty"`
	TokensPerSec float64 `json:"tokens_per_sec,omitempty"`
	// Serving-only admission-pressure columns (zero elsewhere).
	Preemptions      int     `json:"preemptions,omitempty"`
	RecomputedTokens int     `json:"recomputed_tokens,omitempty"`
	KVUtil           float64 `json:"kv_util,omitempty"`
	// Serving-only disaggregated-pool columns (zero elsewhere): the pool
	// split and the KV migrations it cost. The transfer bandwidth itself
	// rides in the policy token (it may be +Inf, which JSON cannot carry).
	PrefillDevices int     `json:"prefill_devices,omitempty"`
	DecodeDevices  int     `json:"decode_devices,omitempty"`
	KVTransfers    int     `json:"kv_transfers,omitempty"`
	TransferTime   float64 `json:"transfer_time_s,omitempty"`
	// Serving-only prefix-cache and host-KV-tier columns (zero elsewhere):
	// the candidate's shared prefix length and host tier capacity, and the
	// cache hits, saved prefill tokens and swap traffic they produced. The
	// swap bandwidth rides in the policy token (it may be +Inf, which JSON
	// cannot carry).
	PrefixTokens      int     `json:"prefix_tokens,omitempty"`
	PrefixHits        int     `json:"prefix_hits,omitempty"`
	PrefixSavedTokens int     `json:"prefix_saved_tokens,omitempty"`
	HostKVGB          float64 `json:"host_kv_gb,omitempty"`
	KVSwapOuts        int     `json:"kv_swap_outs,omitempty"`
	KVSwapIns         int     `json:"kv_swap_ins,omitempty"`
	SwapTime          float64 `json:"swap_time_s,omitempty"`
	// Serving-only fleet columns (zero for single-instance candidates):
	// the replica count and routing policy of a cluster candidate.
	Replicas int    `json:"replicas,omitempty"`
	Routing  string `json:"routing,omitempty"`
	// Serving-only workload-shape columns: the candidate's mix (or trace
	// label) and its per-tenant SLO breakdown.
	Mix       string                   `json:"mix,omitempty"`
	PerTenant []optimus.SweepTenantSLO `json:"per_tenant,omitempty"`
}

func sweepRecords(res optimus.SweepResult) []sweepRecord {
	out := make([]sweepRecord, len(res.Rows))
	for i, row := range res.Rows {
		mem := row.Metrics.Memory.Total()
		if row.Point.Workload != optimus.TrainingSweep {
			mem = row.Metrics.Footprint.Total()
		}
		rec := sweepRecord{
			Rank:       i + 1,
			Model:      row.Point.Model.Name,
			System:     row.Point.System.String(),
			Mapping:    row.Point.Map.String(),
			Microbatch: row.Point.Map.Microbatch,
			Recompute:  row.Point.Recompute.String(),
			Precision:  row.Point.Precision.String(),
			Batch:      row.Point.GlobalBatch,
			Seq:        row.Point.Seq,
			Gen:        row.Point.GenTokens,
			Seconds:    row.Metrics.Time,
			MFU:        row.Metrics.MFU,
			MemoryGB:   mem / 1e9,
			Fits:       row.Metrics.Fits,
		}
		if row.Point.Workload == optimus.ServingSweep {
			// The serving "mapping" token carries the whole admission
			// policy; its commas are why the CSV writer must quote.
			rec.Mapping = servingMappingToken(row.Point)
			rec.Rate = row.Point.Rate
			rec.TTFTP95 = row.Metrics.TTFTP95
			rec.TPOTP95 = row.Metrics.TPOTP95
			rec.TokensPerSec = row.Metrics.TokensPerSec
			rec.Preemptions = row.Metrics.Preemptions
			rec.RecomputedTokens = row.Metrics.RecomputedTokens
			rec.KVUtil = row.Metrics.KVUtil
			rec.PrefillDevices = row.Point.PrefillDevices
			rec.DecodeDevices = row.Point.DecodeDevices
			rec.KVTransfers = row.Metrics.KVTransfers
			rec.TransferTime = row.Metrics.TransferTime
			rec.PrefixTokens = row.Point.PrefixTokens
			rec.PrefixHits = row.Metrics.PrefixHits
			rec.PrefixSavedTokens = row.Metrics.PrefixSavedTokens
			rec.HostKVGB = row.Point.HostKVBytes / 1e9
			rec.KVSwapOuts = row.Metrics.KVSwapOuts
			rec.KVSwapIns = row.Metrics.KVSwapIns
			rec.SwapTime = row.Metrics.SwapTime
			if row.Point.Replicas > 0 {
				rec.Replicas = row.Point.Replicas
				rec.Routing = row.Point.Routing.String()
			}
			rec.Mix = servingWorkloadLabel(row.Point)
			rec.PerTenant = row.Metrics.PerTenant
		}
		out[i] = rec
	}
	return out
}

// servingMappingToken renders a serving candidate's policy — TP degree,
// admission policy (with the paged block size, and the pool split and
// transfer bandwidth for disaggregated candidates), arrival rate and
// batch cap — as one comma-separated token.
func servingMappingToken(p optimus.SweepPoint) string {
	cap := "auto"
	if p.BatchCap > 0 {
		cap = strconv.Itoa(p.BatchCap)
	}
	// Enumeration zeroes the knobs a policy ignores and resolves the
	// defaults of the ones it reads, so the set knobs are the ones to show.
	pol := p.Policy.String()
	if p.PageTokens != 0 {
		pol += fmt.Sprintf("/%d", p.PageTokens)
	}
	if p.PrefixTokens > 0 {
		pol += fmt.Sprintf(",pfx=%d", p.PrefixTokens)
	}
	if p.HostKVBytes > 0 {
		pol += fmt.Sprintf(",host=%gGB,swap=%gGB/s", p.HostKVBytes/1e9, p.SwapGBps)
	}
	if p.PrefillDevices != 0 || p.DecodeDevices != 0 {
		pol += fmt.Sprintf(",split=%d+%d,xfer=%gGB/s", p.PrefillDevices, p.DecodeDevices, p.TransferGBps)
	}
	arr := fmt.Sprintf("rate=%g/s", p.Rate)
	if len(p.Schedule) > 0 {
		arr = "sched=" + optimus.FormatServeSchedule(p.Schedule)
	}
	tok := fmt.Sprintf("tp=%d,%s,%s,cap=%s", p.Map.TP, pol, arr, cap)
	if p.Turns > 1 {
		tok += fmt.Sprintf(",turns=%d", p.Turns)
		if p.Think > 0 {
			tok += fmt.Sprintf(",think=%gs", p.Think)
		}
	}
	if p.Replicas > 0 {
		tok += fmt.Sprintf(",fleet=%dx%v", p.Replicas, p.Routing)
	}
	return tok
}

// servingWorkloadLabel renders a serving candidate's request-shape
// workload: its mix in ParseServeMix syntax, a trace label, or "" for
// spec-wide shapes (which the seq/gen columns already carry).
func servingWorkloadLabel(p optimus.SweepPoint) string {
	switch {
	case len(p.Trace) > 0:
		return fmt.Sprintf("trace(%d)", len(p.Trace))
	case len(p.Mix) > 0:
		return optimus.FormatServeMix(p.Mix)
	default:
		return ""
	}
}

// tenantSLOToken renders the per-tenant SLO breakdown as one CSV field:
// semicolon-separated "tenant:req=N:e2e_p95=V" entries.
func tenantSLOToken(slos []optimus.SweepTenantSLO) string {
	if len(slos) == 0 {
		return ""
	}
	parts := make([]string, len(slos))
	for i, t := range slos {
		parts[i] = fmt.Sprintf("%s:req=%d:e2e_p95=%s", t.Tenant, t.Requests,
			strconv.FormatFloat(t.E2EP95, 'g', -1, 64))
	}
	return strings.Join(parts, ";")
}

// sweepJSON is the -format json document shape.
type sweepJSON struct {
	Stats sweepStatsJSON `json:"stats"`
	Rows  []sweepRecord  `json:"rows"`
}

type sweepStatsJSON struct {
	Enumerated int   `json:"enumerated"`
	Pruned     int   `json:"pruned"`
	Evaluated  int   `json:"evaluated"`
	MemoHits   int   `json:"memo_hits"`
	Errors     int   `json:"errors"`
	Workers    int   `json:"workers"`
	ElapsedMS  int64 `json:"elapsed_ms"`
}

// writeSweep renders a ranked sweep in the chosen format.
func writeSweep(w io.Writer, res optimus.SweepResult, workload optimus.SweepWorkload, format string) error {
	recs := sweepRecords(res)
	switch format {
	case "text":
		fmt.Fprintf(w, "sweep: %s\n", res.Stats)
		if len(recs) == 0 {
			hint := "check batch divisibility and device counts, or try -allow-overflow"
			if workload != optimus.TrainingSweep {
				hint = "inference and serving use TP = device count, so the model's head count must be divisible by -gpus"
			}
			fmt.Fprintf(w, "  no feasible candidates — %s\n", hint)
			return nil
		}
		if workload == optimus.ServingSweep {
			fmt.Fprintf(w, "  %4s %-12s %-34s %-32s %-5s %9s %10s %10s %10s %10s %8s %7s\n",
				"rank", "model", "system", "policy", "prec", "workload", "e2e-p95", "ttft-p95", "tpot-p95", "tok/s", "preempt", "kv-util")
			for _, r := range recs {
				shape := strconv.Itoa(r.Seq) + "+" + strconv.Itoa(r.Gen)
				if r.Mix != "" {
					// Trace labels ("trace(N)") print as-is; a long mix
					// rendering collapses to its tenant count — entries are
					// comma-separated, so count+1 is the mix size regardless
					// of which tenants happened to complete requests.
					shape = r.Mix
					if !strings.HasPrefix(shape, "trace(") && len(shape) > 12 {
						shape = fmt.Sprintf("mix(%d)", strings.Count(r.Mix, ",")+1)
					}
				}
				fmt.Fprintf(w, "  %4d %-12s %-34s %-32s %-5s %9s %10s %10s %10s %10.0f %8d %6.0f%%\n",
					r.Rank, r.Model, r.System, r.Mapping, r.Precision, shape,
					units.FormatSeconds(r.Seconds), units.FormatSeconds(r.TTFTP95),
					units.FormatSeconds(r.TPOTP95), r.TokensPerSec,
					r.Preemptions, 100*r.KVUtil)
			}
			if len(recs) > 0 && len(recs[0].PerTenant) > 1 {
				fmt.Fprintf(w, "  per-tenant e2e-p95 (rank 1): %s\n", tenantSLOToken(recs[0].PerTenant))
			}
			return nil
		}
		fmt.Fprintf(w, "  %4s %-12s %-34s %-28s %3s %-10s %-5s %6s %9s %10s %6s %8s %5s\n",
			"rank", "model", "system", "mapping", "mb", "recompute", "prec", "batch", "seq+gen", "s", "MFU", "mem", "fits")
		for _, r := range recs {
			fits := "yes"
			if !r.Fits {
				fits = "NO"
			}
			tokens := strconv.Itoa(r.Seq)
			if r.Gen > 0 {
				tokens += "+" + strconv.Itoa(r.Gen)
			}
			fmt.Fprintf(w, "  %4d %-12s %-34s %-28s %3d %-10s %-5s %6d %9s %10s %5.0f%% %7.1fG %5s\n",
				r.Rank, r.Model, r.System, r.Mapping, r.Microbatch, r.Recompute, r.Precision,
				r.Batch, tokens, units.FormatSeconds(r.Seconds), 100*r.MFU, r.MemoryGB, fits)
		}
		return nil
	case "csv":
		// encoding/csv quotes fields containing commas (RFC 4180), which
		// the serving mapping tokens ("tp=8,rate=2/s,cap=auto") rely on;
		// TestWriteSweepCSVQuotesServingTokens pins that behavior.
		cw := csv.NewWriter(w)
		if err := cw.Write([]string{"rank", "model", "system", "mapping", "microbatch",
			"recompute", "precision", "batch", "seq", "gen", "seconds", "mfu", "memory_gb", "fits",
			"rate_per_sec", "ttft_p95_s", "tpot_p95_s", "tokens_per_sec",
			"preemptions", "recomputed_tokens", "kv_util",
			"prefill_devices", "decode_devices", "kv_transfers", "transfer_s",
			"prefix_tokens", "prefix_hits", "prefix_saved_tokens",
			"host_kv_gb", "kv_swap_outs", "kv_swap_ins", "swap_time_s",
			"replicas", "routing", "mix", "tenant_slos"}); err != nil {
			return err
		}
		g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
		for _, r := range recs {
			if err := cw.Write([]string{
				strconv.Itoa(r.Rank), r.Model, r.System, r.Mapping, strconv.Itoa(r.Microbatch),
				r.Recompute, r.Precision, strconv.Itoa(r.Batch), strconv.Itoa(r.Seq), strconv.Itoa(r.Gen),
				g(r.Seconds), g(r.MFU), g(r.MemoryGB),
				strconv.FormatBool(r.Fits),
				g(r.Rate), g(r.TTFTP95), g(r.TPOTP95), g(r.TokensPerSec),
				strconv.Itoa(r.Preemptions), strconv.Itoa(r.RecomputedTokens), g(r.KVUtil),
				strconv.Itoa(r.PrefillDevices), strconv.Itoa(r.DecodeDevices),
				strconv.Itoa(r.KVTransfers), g(r.TransferTime),
				strconv.Itoa(r.PrefixTokens), strconv.Itoa(r.PrefixHits),
				strconv.Itoa(r.PrefixSavedTokens),
				g(r.HostKVGB), strconv.Itoa(r.KVSwapOuts),
				strconv.Itoa(r.KVSwapIns), g(r.SwapTime),
				strconv.Itoa(r.Replicas), r.Routing,
				r.Mix, tenantSLOToken(r.PerTenant),
			}); err != nil {
				return err
			}
		}
		cw.Flush()
		return cw.Error()
	case "json":
		return writeJSON(w, sweepJSON{
			Stats: sweepStatsJSON{
				Enumerated: res.Stats.Enumerated,
				Pruned:     res.Stats.Pruned,
				Evaluated:  res.Stats.Evaluated,
				MemoHits:   res.Stats.MemoHits,
				Errors:     res.Stats.Errors,
				Workers:    res.Stats.Workers,
				ElapsedMS:  res.Stats.Elapsed.Milliseconds(),
			},
			Rows: recs,
		})
	default:
		return fmt.Errorf("unknown format %q (text|csv|json)", format)
	}
}
