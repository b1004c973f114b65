package main

import (
	"flag"

	"optimus"
	"optimus/internal/serve"
	"optimus/internal/tech"
	"optimus/internal/workload"
)

// servingFlags are the flags optimus serve and optimus cluster share: the
// capacity of one serving instance and the open-loop workload.
type servingFlags struct {
	model, device, deviceFile, intra, prec, policy            *string
	gpus, maxBatch, pageTokens, prefillDevices, decodeDevices *int
	noPreempt                                                 *bool
	transferGBps, hostKVGB, swapGBps                          *float64

	prompt, gen, prefix, turns, requests *int
	mix, trace, schedule                 *string
	rate, think                          *float64
	seed                                 *int64
}

// addServingFlags registers the shared serving flags on fs; rate is the
// command's default arrival rate.
func addServingFlags(fs *flag.FlagSet, rate float64) *servingFlags {
	return &servingFlags{
		model:          fs.String("model", "llama2-13b", "model preset"),
		device:         fs.String("device", "h100", "device preset"),
		deviceFile:     fs.String("device-file", "", "JSON device description (overrides -device)"),
		intra:          fs.String("intra", "nvlink4", "intra-node fabric"),
		gpus:           fs.Int("gpus", 1, "GPU count per serving instance (= tensor-parallel degree)"),
		prec:           fs.String("precision", "fp16", "precision"),
		maxBatch:       fs.Int("max-batch", 0, "per-instance iteration batch cap (0 = derive from KV budget)"),
		policy:         fs.String("policy", "reserve", "KV admission policy (reserve = full-context reservation, paged = vLLM-style block allocation with LIFO preemption, disagg = split prefill/decode pools with KV-transfer pricing)"),
		pageTokens:     fs.Int("page-tokens", 0, "block size in KV tokens (0 = default 16; paged/disagg only)"),
		noPreempt:      fs.Bool("no-preempt", false, "disable preemption: paged admission reserves full-context pages (paged only)"),
		prefillDevices: fs.Int("prefill-devices", 0, "devices backing the disagg prefill pool (0 = all; disagg only)"),
		decodeDevices:  fs.Int("decode-devices", 0, "devices backing the disagg decode pool (0 = all; disagg only)"),
		transferGBps:   fs.Float64("transfer-gbps", 0, "disagg KV-transfer interconnect bandwidth in GB/s (0 = default 50, Inf = free; disagg only)"),
		hostKVGB:       fs.Float64("kv-host-gb", 0, "per-instance host-memory KV swap tier capacity in GB (0 = recompute-only preemption; paged with preemption only)"),
		swapGBps:       fs.Float64("swap-gbps", 0, "GPU-host KV swap-link bandwidth in GB/s (0 = default 32; needs -kv-host-gb)"),

		prompt: fs.Int("prompt", 200, "prompt tokens per request (single-tenant; see -mix/-trace)"),
		gen:    fs.Int("gen", 200, "generated tokens per request (single-tenant; see -mix/-trace)"),
		prefix: fs.Int("prefix", 0, "shared prompt-prefix tokens cached across requests (single-tenant; paged with preemption only)"),
		mix:    fs.String("mix", "", "multi-tenant workload mix as tenant:share:prompt[~sigma]:gen[~sigma][:prefix[:prefix-id]][,...] (replaces -prompt/-gen; ~sigma draws heavy-tailed lognormal lengths)"),
		trace:  fs.String("trace", "", "CSV trace file to replay (arrival,tenant,prompt,gen[,prefix_id,prefix_tokens[,session,turn]]; replaces the arrival flags)"),

		rate:     fs.Float64("rate", rate, "Poisson arrival rate in requests/sec (fleet-wide under cluster)"),
		schedule: fs.String("schedule", "", "piecewise arrival-rate schedule as start-end:rate[,...] in seconds and req/s (replaces -rate; open-loop only)"),
		turns:    fs.Int("turns", 0, "session-cohort turns per client session, each carrying the session's prior context as a growing shared prefix (open-loop, paged with preemption only)"),
		think:    fs.Float64("think", 0, "think time between a session's turns in seconds (needs -turns > 1)"),
		requests: fs.Int("requests", 256, "requests to simulate"),
		seed:     fs.Int64("seed", 1, "arrival-process seed"),
	}
}

// flagsSet reports the flags given on fs's command line.
func flagsSet(fs *flag.FlagSet) map[string]bool {
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	return set
}

// capacity builds the capacity spec of one serving instance: model,
// system, precision, batching and the admission policy with its knobs.
// Knobs the policy would silently ignore are rejected by flag name from
// the serve.Knobs table, and the link bandwidths resolve their defaults
// so the simulation and every output format report the same values.
func (f *servingFlags) capacity(set map[string]bool) (optimus.ServeSpec, error) {
	cfg, err := optimus.ModelByName(*f.model)
	if err != nil {
		return optimus.ServeSpec{}, err
	}
	sys, err := systemWithOverride(*f.device, *f.deviceFile, *f.gpus, *f.intra, "ndr")
	if err != nil {
		return optimus.ServeSpec{}, err
	}
	p, err := tech.ParsePrecision(*f.prec)
	if err != nil {
		return optimus.ServeSpec{}, err
	}
	pol, err := optimus.ParseServePolicy(*f.policy)
	if err != nil {
		return optimus.ServeSpec{}, err
	}
	// Session cohorts (a -turns value above 1) are prefix caching, so
	// they answer for the -prefix row when -prefix is not given.
	turnsOnly := *f.turns > 1 && !set["prefix"]
	if err := serve.CheckKnobs([]optimus.ServePolicy{pol}, set["no-preempt"],
		func(k serve.Knob) bool { return set[k.Flag] || (k.Flag == "prefix" && turnsOnly) },
		func(k serve.Knob) string {
			if k.Flag == "prefix" && turnsOnly {
				return "-turns above 1"
			}
			return "-" + k.Flag
		},
		"-policy"); err != nil {
		return optimus.ServeSpec{}, err
	}
	spec := optimus.ServeSpec{
		Model: cfg, System: sys, TP: *f.gpus, Precision: p,
		MaxBatch: *f.maxBatch, Policy: pol,
		PageTokens: *f.pageTokens, NoPreempt: *f.noPreempt,
		PrefillDevices: *f.prefillDevices, DecodeDevices: *f.decodeDevices,
		TransferGBps: *f.transferGBps,
		HostKVBytes:  *f.hostKVGB * 1e9, SwapGBps: *f.swapGBps,
	}
	c := spec.Canonical()
	spec.TransferGBps, spec.SwapGBps = c.TransferGBps, c.SwapGBps
	return spec, nil
}

// serveWorkloadFlags names the flag that sets each workload field under
// optimus serve, in workload.Field order; clusterWorkloadFlags drops the
// closed-loop ones a fleet lacks. optimus sweep spells its axes through
// the sweep.Axes table instead.
var (
	serveWorkloadFlags = [workload.NumFields]string{"prompt", "gen", "prefix", "mix", "mix", "trace",
		"rate", "schedule", "turns", "turns", "think", "requests", "seed", "arrival", "clients"}
	clusterWorkloadFlags = [workload.NumFields]string{"prompt", "gen", "prefix", "mix", "mix", "trace",
		"rate", "schedule", "turns", "turns", "think", "requests", "seed"}
)

// workload builds the workload the flags describe once workload.Check
// accepts the flags given, naming them: a field is set when its flag is
// given, except the ones derived from parsed values — session cohorts (a
// -turns value above 1), the closed-loop process (closed: -arrival
// closed, the caller supplying its clients) and prefixed -mix entries.
// flags is the command's spelling table.
func (f *servingFlags) workload(set map[string]bool, flags *[workload.NumFields]string, closed bool) (workload.Spec, error) {
	var w workload.Spec
	var err error
	if *f.mix != "" {
		if w.Mix, err = optimus.ParseServeMix(*f.mix); err != nil {
			return w, err
		}
	}
	var fields [workload.NumFields]bool
	for fl, flag := range flags {
		fields[fl] = set[flag]
	}
	fields[workload.FieldSessions], fields[workload.FieldClosed], fields[workload.FieldMixPrefix] = *f.turns > 1, closed, workload.MixPrefixed(w.Mix)
	if err := workload.Check(fields, func(fl workload.Field) string {
		if flags[fl] == "" {
			return ""
		}
		return "-" + flags[fl]
	}); err != nil {
		return w, err
	}
	if *f.trace != "" {
		w.Trace, err = loadTrace(*f.trace)
		return w, err
	}
	if w.Mix == nil {
		w.PromptTokens, w.GenTokens, w.PrefixTokens = *f.prompt, *f.gen, *f.prefix
	}
	w.Requests, w.Seed, w.Closed = *f.requests, *f.seed, closed
	if closed {
		return w, nil
	}
	w.Rate, w.Turns, w.Think = *f.rate, *f.turns, *f.think
	if *f.schedule != "" {
		w.Rate = 0
		w.Schedule, err = optimus.ParseServeSchedule(*f.schedule)
	}
	return w, err
}
