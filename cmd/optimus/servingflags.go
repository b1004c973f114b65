package main

import (
	"flag"
	"fmt"

	"optimus"
	"optimus/internal/serve"
	"optimus/internal/tech"
)

// servingFlags are the flags optimus serve and optimus cluster share: the
// capacity of one serving instance and the request-shape workload.
type servingFlags struct {
	model, device, deviceFile, intra, prec, policy            *string
	gpus, maxBatch, pageTokens, prefillDevices, decodeDevices *int
	noPreempt                                                 *bool
	transferGBps, hostKVGB, swapGBps                          *float64

	prompt, gen, prefix *int
	mix, trace          *string
}

// addServingFlags registers the shared serving flags on fs.
func addServingFlags(fs *flag.FlagSet) *servingFlags {
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
// Knobs the policy would silently ignore are rejected by flag name, and
// the link bandwidths resolve their defaults so the simulation and every
// output format report the same values.
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
	if err := rejectPolicyFlagMisuse(set, []optimus.ServePolicy{pol}, "-policy"); err != nil {
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

// servingWorkload is the request-shape workload the shared flags select:
// the spec-wide prompt/gen/prefix shape, a mix, or a replayed trace.
type servingWorkload struct {
	prompt, gen, prefix int
	mix                 []optimus.ServeTenantLoad
	trace               []optimus.ServeTraceEvent
}

// workload parses the request-shape flags. A mix or trace replaces the
// spec-wide shape, and a trace fixes the arrival process, so traceFixes
// names the caller's arrival flags a trace rejects.
func (f *servingFlags) workload(set map[string]bool, traceFixes []string) (servingWorkload, error) {
	w := servingWorkload{prompt: *f.prompt, gen: *f.gen, prefix: *f.prefix}
	if *f.mix != "" && *f.trace != "" {
		return w, fmt.Errorf("-mix and -trace are mutually exclusive")
	}
	if *f.mix != "" || *f.trace != "" {
		if set["prompt"] || set["gen"] {
			return w, fmt.Errorf("-prompt and -gen describe the single-tenant workload (use the per-tenant lengths in -mix, or the trace's)")
		}
		if set["prefix"] {
			return w, fmt.Errorf("-prefix describes the single-tenant workload (use the per-tenant prefix field in -mix, or the trace's prefix columns)")
		}
		w.prompt, w.gen, w.prefix = 0, 0, 0
	}
	var err error
	if *f.mix != "" {
		if w.mix, err = optimus.ParseServeMix(*f.mix); err != nil {
			return w, err
		}
	}
	if *f.trace != "" {
		for _, name := range traceFixes {
			if set[name] {
				return w, fmt.Errorf("-%s does not apply when replaying a trace (-trace fixes the arrival process)", name)
			}
		}
		if w.trace, err = loadTrace(*f.trace); err != nil {
			return w, err
		}
	}
	return w, nil
}

// rejectPolicyFlagMisuse rejects admission-policy knobs no policy in pols
// reads, naming the flags. It reads the serve.Knobs table, with the one
// -policy of optimus serve and cluster and the -policies list of optimus
// sweep alike; polFlag names the flag that set pols.
func rejectPolicyFlagMisuse(set map[string]bool, pols []optimus.ServePolicy, polFlag string) error {
	return serve.CheckKnobs(pols, set["no-preempt"],
		func(k serve.Knob) bool { return set[k.Flag] },
		func(k serve.Knob) string { return "-" + k.Flag },
		polFlag)
}
