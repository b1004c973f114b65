package main

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"optimus"
	"optimus/internal/serve"
	"optimus/internal/sweep"
)

// TestPolicyKnobParity walks the serve.Knobs table: for every (knob,
// policy), serve.Spec.Validate, optimus serve, optimus cluster and
// sweep.Spec.Validate with Policies {pol} all accept or all reject, and
// agree with the table itself (a knob is accepted exactly under a policy
// that reads it, unless it needs a partner knob). CLI errors name the
// knob's flag and library errors its field, or the sweep axis that sets
// it.
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
				// The grid names the axis that sets the knob (PoolSplits
				// sets both pool sizes).
				i := slices.IndexFunc(sweep.Axes[:], func(a sweep.Axis) bool { return slices.Contains(a.Knobs, k.Field) })
				if i < 0 {
					t.Fatalf("knob %s has no sweep axis row", k.Field)
				}
				check("sweep.Spec.Validate", sw.Validate(), sweep.Axes[i].Field)
			}
		}
	}
}

// TestSweepAxisParity walks the sweep.Axes table: for every (axis, sweep
// kind), sweep.Spec.Validate and optimus sweep both accept or both
// reject, with the verdict the table implies — an axis the kind does not
// read is rejected naming that axis alone, and the serving rows listed
// below fail their own rule under the default reserve policy. Library
// errors name the field and CLI errors the flag. A reflect walk pins one
// row per exported Spec and Constraints field, so a new axis without a
// row fails here.
func TestSweepAxisParity(t *testing.T) {
	var fields []string
	st := reflect.TypeOf(sweep.Spec{})
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		if f.Name != "Constraints" {
			fields = append(fields, f.Name)
			continue
		}
		for j := 0; j < f.Type.NumField(); j++ {
			fields = append(fields, "Constraints."+f.Type.Field(j).Name)
		}
	}
	rows := make(map[string]int)
	for _, a := range sweep.Axes {
		rows[a.Field]++
	}
	for _, f := range fields {
		if rows[f] != 1 {
			t.Errorf("field %s has %d sweep.Axes rows, want 1", f, rows[f])
		}
	}
	if len(rows) != len(fields) {
		t.Errorf("sweep.Axes has %d fields, Spec and Constraints %d: a row names no field", len(rows), len(fields))
	}

	cfg, err := optimus.ModelByName("llama2-13b")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := optimus.NewSystem("h100", 1, "nvlink4", "ndr")
	if err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(t.TempDir(), "trace.csv")
	if err := os.WriteFile(tracePath, []byte("arrival,tenant,prompt,gen\n0,a,100,40\n0.5,b,300,60\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	trace, err := loadTrace(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	mix := []optimus.ServeTenantLoad{{Tenant: "a", Share: 1, PromptTokens: 100, GenTokens: 50}}
	type axisCase struct {
		lib  func(*optimus.SweepSpec)
		args []string // nil: the axis has no flag
	}
	cases := map[string]axisCase{
		"Workload":      {func(*optimus.SweepSpec) {}, []string{}},
		"Models":        {func(s *optimus.SweepSpec) { s.Models = []optimus.Model{cfg} }, []string{"-models", "llama2-13b"}},
		"Systems":       {func(s *optimus.SweepSpec) { s.Systems = []*optimus.System{sys} }, []string{"-devices", "h100", "-gpus", "1"}},
		"Precisions":    {func(s *optimus.SweepSpec) { s.Precisions = []optimus.Precision{optimus.FP16} }, []string{"-precisions", "fp16"}},
		"GlobalBatches": {func(s *optimus.SweepSpec) { s.GlobalBatches = []int{4} }, []string{"-batches", "4"}},
		"Seqs":          {func(s *optimus.SweepSpec) { s.Seqs = []int{128} }, []string{"-seqs", "128"}},
		"GenTokens":     {func(s *optimus.SweepSpec) { s.GenTokens = []int{64} }, []string{"-gen", "64"}},
		"Rates":         {func(s *optimus.SweepSpec) { s.Rates = []float64{2} }, []string{"-rates", "2"}},
		"Schedules": {func(s *optimus.SweepSpec) {
			s.Schedules = []optimus.ServeSchedule{{{Start: 0, End: 10, Rate: 2}}}
		}, []string{"-schedules", "0-10:2"}},
		"Turns":           {func(s *optimus.SweepSpec) { s.Turns = []int{3} }, []string{"-turns", "3"}},
		"Think":           {func(s *optimus.SweepSpec) { s.Think = 1 }, []string{"-think", "1"}},
		"BatchCaps":       {func(s *optimus.SweepSpec) { s.BatchCaps = []int{4} }, []string{"-batch-caps", "4"}},
		"Mixes":           {func(s *optimus.SweepSpec) { s.Mixes = [][]optimus.ServeTenantLoad{mix} }, []string{"-mix", "a:1:100:50"}},
		"Trace":           {func(s *optimus.SweepSpec) { s.Trace = trace }, []string{"-trace", tracePath}},
		"Policies":        {func(s *optimus.SweepSpec) { s.Policies = []optimus.ServePolicy{optimus.PagedPolicy} }, []string{"-policies", "paged"}},
		"ServePageTokens": {func(s *optimus.SweepSpec) { s.ServePageTokens = 32 }, []string{"-page-tokens", "32"}},
		"PoolSplits": {func(s *optimus.SweepSpec) { s.PoolSplits = []optimus.SweepPoolSplit{{Prefill: 1, Decode: 1}} },
			[]string{"-prefill-devices", "1", "-decode-devices", "1"}},
		"TransferGBps": {func(s *optimus.SweepSpec) { s.TransferGBps = 25 }, []string{"-transfer-gbps", "25"}},
		"PrefixTokens": {func(s *optimus.SweepSpec) { s.PrefixTokens = []int{32} }, []string{"-prefix", "32"}},
		"HostKVBytes":  {func(s *optimus.SweepSpec) { s.HostKVBytes = []float64{4e9} }, []string{"-kv-host-gb", "4"}},
		"SwapGBps":     {func(s *optimus.SweepSpec) { s.SwapGBps = 16 }, []string{"-swap-gbps", "16"}},
		"Replicas":     {func(s *optimus.SweepSpec) { s.Replicas = []int{2} }, []string{"-replicas", "2"}},
		"Routings": {func(s *optimus.SweepSpec) { s.Routings = []optimus.ClusterRouting{optimus.LeastQueueRouting} },
			[]string{"-routings", "least-queue"}},
		"ServeRequests":             {func(s *optimus.SweepSpec) { s.ServeRequests = 16 }, []string{"-serve-requests", "16"}},
		"ServeSeed":                 {func(s *optimus.SweepSpec) { s.ServeSeed = 2 }, []string{"-serve-seed", "2"}},
		"Workers":                   {func(s *optimus.SweepSpec) { s.Workers = 1 }, []string{"-workers", "1"}},
		"Constraints.MaxTP":         {func(s *optimus.SweepSpec) { s.Constraints.MaxTP = 1 }, []string{"-max-tp", "1"}},
		"Constraints.Microbatches":  {func(s *optimus.SweepSpec) { s.Constraints.Microbatches = []int{1} }, []string{"-microbatches", "1"}},
		"Constraints.Recomputes":    {func(s *optimus.SweepSpec) { s.Constraints.Recomputes = []optimus.Recompute{optimus.FullRecompute} }, []string{"-recomputes", "full"}},
		"Constraints.Schedules":     {func(s *optimus.SweepSpec) { s.Constraints.Schedules = []optimus.Schedule{optimus.OneFOneB} }, nil},
		"Constraints.AllowOverflow": {func(s *optimus.SweepSpec) { s.Constraints.AllowOverflow = true }, []string{"-allow-overflow"}},
		"Constraints.TopK":          {func(s *optimus.SweepSpec) { s.Constraints.TopK = 3 }, []string{"-top", "3"}},
	}
	// The serving rows whose own rule rejects them alone: a policy knob
	// under reserve, sessions or think time without a paged policy, a
	// routing without a fleet.
	serveRejects := []string{"Turns", "Think", "ServePageTokens", "PoolSplits", "TransferGBps", "PrefixTokens", "HostKVBytes", "SwapGBps", "Routings"}
	kinds := map[optimus.SweepWorkload]string{optimus.TrainingSweep: "train", optimus.InferenceSweep: "infer", optimus.ServingSweep: "serve"}

	for _, a := range sweep.Axes {
		tc, ok := cases[a.Field]
		if !ok {
			t.Fatalf("axis %s has no parity case: add one", a.Field)
		}
		flag := "-" + strings.ReplaceAll(a.Flag, "/", "/-")
		for kind, kindFlag := range kinds {
			inScope := slices.Contains(a.Kinds, kind)
			want := !inScope || kind == optimus.ServingSweep && slices.Contains(serveRejects, a.Field)
			check := func(layer string, err error, name, other string) {
				t.Helper()
				switch {
				case !want && err != nil:
					t.Errorf("%s, %s: %s rejects: %v", a.Field, kindFlag, layer, err)
				case want && err == nil:
					t.Errorf("%s, %s: %s accepts", a.Field, kindFlag, layer)
				case want && !inScope && !strings.HasPrefix(err.Error(), "sweep: "+name+" applies to "):
					t.Errorf("%s, %s: %s error should name %s alone: %v", a.Field, kindFlag, layer, name, err)
				case want && !strings.Contains(err.Error(), name):
					t.Errorf("%s, %s: %s error should name %s: %v", a.Field, kindFlag, layer, name, err)
				case want && other != "" && strings.Contains(err.Error(), other):
					t.Errorf("%s, %s: %s error should not spell %s: %v", a.Field, kindFlag, layer, other, err)
				}
			}
			sw := optimus.SweepSpec{Workload: kind, Models: []optimus.Model{cfg}, Systems: []*optimus.System{sys}}
			tc.lib(&sw)
			check("sweep.Spec.Validate", sw.Validate(), a.Field, "")
			if tc.args != nil {
				args := append([]string{"-workload", kindFlag, "-models", "llama2-13b", "-devices", "h100",
					"-gpus", "1", "-intra", "nvlink4", "-format", "csv"}, tc.args...)
				check("optimus sweep", cmdSweep(args), flag, a.Field)
			}
		}
	}

	// Value ranges name their axis too.
	for _, tc := range []struct {
		lib         func(*optimus.SweepSpec)
		args        []string
		field, flag string
	}{
		{func(s *optimus.SweepSpec) { s.BatchCaps = []int{-1} }, []string{"-batch-caps", "-1"}, "BatchCaps", "-batch-caps"},
		{func(s *optimus.SweepSpec) { s.Replicas = []int{-2} }, []string{"-replicas", "-2"}, "Replicas", "-replicas"},
		{func(s *optimus.SweepSpec) {
			s.Policies = []optimus.ServePolicy{optimus.DisaggregatedPolicy}
			s.PoolSplits = []optimus.SweepPoolSplit{{Prefill: -1, Decode: 1}}
		}, []string{"-policies", "disagg", "-prefill-devices", "-1", "-decode-devices", "1"}, "PoolSplits", "-prefill-devices"},
	} {
		sw := optimus.SweepSpec{Workload: optimus.ServingSweep, Models: []optimus.Model{cfg}, Systems: []*optimus.System{sys}}
		tc.lib(&sw)
		if err := sw.Validate(); err == nil || !strings.HasPrefix(err.Error(), "sweep: "+tc.field+": ") {
			t.Errorf("sweep.Spec.Validate with bad %s: error should name it: %v", tc.field, err)
		}
		args := append([]string{"-workload", "serve", "-models", "llama2-13b", "-devices", "h100", "-gpus", "1"}, tc.args...)
		if err := cmdSweep(args); err == nil || !strings.HasPrefix(err.Error(), "sweep: "+tc.flag) {
			t.Errorf("optimus sweep %v: error should name %s: %v", tc.args, tc.flag, err)
		}
	}
}
