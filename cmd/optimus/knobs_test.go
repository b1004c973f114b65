package main

import (
	"slices"
	"strings"
	"testing"

	"optimus"
	"optimus/internal/serve"
)

// TestPolicyKnobParity walks the serve.Knobs table: for every (knob,
// policy), serve.Spec.Validate, optimus serve, optimus cluster and
// sweep.Spec.Validate with Policies {pol} all accept or all reject, and
// agree with the table itself (a knob is accepted exactly under a policy
// that reads it, unless it needs a partner knob). CLI errors name the
// knob's flag and library errors its field.
func TestPolicyKnobParity(t *testing.T) {
	cfg, err := optimus.ModelByName("llama2-13b")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := optimus.NewSystem("h100", 1, "nvlink4", "ndr")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range serve.Knobs {
		for _, pol := range []optimus.ServePolicy{optimus.ReserveFullPolicy, optimus.PagedPolicy, optimus.DisaggregatedPolicy} {
			spec := optimus.ServeSpec{
				Model: cfg, System: sys, TP: 1, Precision: optimus.FP16,
				PromptTokens: 200, GenTokens: 200, Rate: 1, Requests: 8, Seed: 1, Policy: pol,
			}
			sw := optimus.SweepSpec{
				Workload: optimus.ServingSweep, Models: []optimus.Model{cfg}, Systems: []*optimus.System{sys},
				Policies: []optimus.ServePolicy{pol},
			}
			hasAxis := true
			var args []string
			switch k.Field {
			case "PageTokens":
				spec.PageTokens, sw.ServePageTokens, args = 32, 32, []string{"-page-tokens", "32"}
			case "NoPreempt":
				// Sweeps always preempt: the knob has no sweep axis.
				spec.NoPreempt, hasAxis, args = true, false, []string{"-no-preempt"}
			case "PrefillDevices":
				spec.PrefillDevices, args = 1, []string{"-prefill-devices", "1"}
				sw.PoolSplits = []optimus.SweepPoolSplit{{Prefill: 1}}
			case "DecodeDevices":
				spec.DecodeDevices, args = 1, []string{"-decode-devices", "1"}
				sw.PoolSplits = []optimus.SweepPoolSplit{{Decode: 1}}
			case "TransferGBps":
				spec.TransferGBps, sw.TransferGBps, args = 25, 25, []string{"-transfer-gbps", "25"}
			case "PrefixTokens":
				spec.PrefixTokens, sw.PrefixTokens, args = 64, []int{64}, []string{"-prefix", "64"}
			case "HostKVBytes":
				spec.HostKVBytes, sw.HostKVBytes, args = 4e9, []float64{4e9}, []string{"-kv-host-gb", "4"}
			case "SwapGBps":
				spec.SwapGBps, sw.SwapGBps, args = 16, 16, []string{"-swap-gbps", "16"}
			default:
				t.Fatalf("knob %s has no parity case: add one", k.Field)
			}
			args = append(args, "-policy", pol.String(), "-requests", "8", "-format", "json")
			want := slices.Contains(k.Policies, pol) && k.Partner == ""
			check := func(layer string, err error, name string) {
				t.Helper()
				switch {
				case want && err != nil:
					t.Errorf("%s, %v: %s rejects: %v", k.Field, pol, layer, err)
				case !want && err == nil:
					t.Errorf("%s, %v: %s accepts", k.Field, pol, layer)
				case !want && !strings.Contains(err.Error(), name):
					t.Errorf("%s, %v: %s error should name %s: %v", k.Field, pol, layer, name, err)
				}
			}
			check("serve.Spec.Validate", spec.Validate(), k.Field)
			check("optimus serve", cmdServe(args), "-"+k.Flag)
			check("optimus cluster", cmdCluster(args), "-"+k.Flag)
			if hasAxis {
				check("sweep.Spec.Validate", sw.Validate(), k.Field)
			}
		}
	}
}
