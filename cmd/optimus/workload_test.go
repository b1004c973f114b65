package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"optimus"
	"optimus/internal/workload"
)

// TestWorkloadRuleParity walks every workload rule (workload.Check and
// the value checks beside it) through the six places that apply it —
// serve.Spec.Validate, cluster.Spec.Validate, sweep.Spec.Validate,
// optimus serve, optimus cluster and optimus sweep — which must all
// accept or all reject. Library errors name the field or axis and CLI
// errors the flag; a fleet-wide workload error is never blamed on a
// replica. A layer that cannot spell a case sits it out: closed-loop
// arrivals exist in serve alone, and only the library can restate a
// trace's request count.
func TestWorkloadRuleParity(t *testing.T) {
	cfg, err := optimus.ModelByName("llama2-13b")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := optimus.NewSystem("h100", 1, "nvlink4", "ndr")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.csv")
	emptyPath := filepath.Join(dir, "empty.csv")
	if err := os.WriteFile(tracePath, []byte("arrival,tenant,prompt,gen\n0,a,100,40\n0.5,b,300,60\n1,a,120,30\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(emptyPath, []byte("arrival,tenant,prompt,gen\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	trace, err := loadTrace(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	mix := []optimus.ServeTenantLoad{{Tenant: "a", Share: 1, PromptTokens: 100, GenTokens: 50}}
	prefixMix := []optimus.ServeTenantLoad{{Tenant: "a", Share: 1, PromptTokens: 100, GenTokens: 50, PrefixID: "a", PrefixTokens: 40}}
	sched := optimus.ServeSchedule{{Start: 0, End: 10, Rate: 2}, {Start: 10, End: 20, Rate: 4}}

	// Library mutators start from a paged 200+200 Poisson workload; these
	// swap its shape for a mix or a replay.
	withMix := func(m []optimus.ServeTenantLoad) func(*optimus.ServeSpec) {
		return func(s *optimus.ServeSpec) { s.PromptTokens, s.GenTokens, s.Mix = 0, 0, m }
	}
	replay := func(s *optimus.ServeSpec) {
		s.PromptTokens, s.GenTokens, s.Rate, s.Requests, s.Seed = 0, 0, 0, 0, 0
		s.Trace = trace
	}
	then := func(fs ...func(*optimus.ServeSpec)) func(*optimus.ServeSpec) {
		return func(s *optimus.ServeSpec) {
			for _, f := range fs {
				f(s)
			}
		}
	}
	traceArgs := func(more ...string) []string { return append([]string{"-trace", tracePath}, more...) }

	for _, tc := range []struct {
		name   string
		reject bool
		lib    func(*optimus.ServeSpec) // the serve spec; the fleet takes its Workload()
		sweep  func(*optimus.SweepSpec) // nil: the grid cannot spell the case
		args   []string                 // optimus serve and cluster flags
		sArgs  []string                 // optimus sweep flags; nil: cannot spell it
		// serveOnly marks closed-loop cases; replica a capacity error the
		// fleet blames on its replica.
		serveOnly, replica bool
		// field, axis, flag and sweepFlag are what a rejection names in
		// the library, the grid and the two command lines.
		field, axis, flag, sweepFlag string
	}{
		{name: "spec-wide shape", lib: func(*optimus.ServeSpec) {}, sweep: func(*optimus.SweepSpec) {}},
		{name: "mix", lib: withMix(mix),
			sweep: func(s *optimus.SweepSpec) { s.Mixes = [][]optimus.ServeTenantLoad{mix} },
			args:  []string{"-mix", "a:1:100:50"}, sArgs: []string{"-mix", "a:1:100:50"}},
		{name: "trace", lib: replay,
			sweep: func(s *optimus.SweepSpec) { s.Trace = trace },
			args:  traceArgs(), sArgs: traceArgs()},
		{name: "schedule", lib: func(s *optimus.ServeSpec) { s.Rate, s.Schedule = 0, sched },
			sweep: func(s *optimus.SweepSpec) { s.Schedules = []optimus.ServeSchedule{sched} },
			args:  []string{"-schedule", "0-10:2,10-20:4"}, sArgs: []string{"-schedules", "0-10:2,10-20:4"}},
		{name: "sessions", lib: func(s *optimus.ServeSpec) { s.Turns, s.Think = 3, 2 },
			sweep: func(s *optimus.SweepSpec) { s.Turns, s.Think = []int{3}, 2 },
			args:  []string{"-turns", "3", "-think", "2"}, sArgs: []string{"-turns", "3", "-think", "2"}},
		{name: "trace restating its count", lib: then(replay, func(s *optimus.ServeSpec) { s.Requests = len(trace) })},

		{name: "empty trace", reject: true,
			lib:   func(s *optimus.ServeSpec) { s.Trace = []optimus.ServeTraceEvent{} },
			sweep: func(s *optimus.SweepSpec) { s.Trace = []optimus.ServeTraceEvent{} },
			args:  []string{"-trace", emptyPath}, sArgs: []string{"-trace", emptyPath},
			field: "Trace", axis: "Trace", flag: "-trace", sweepFlag: "-trace"},
		{name: "mix and trace", reject: true, lib: then(replay, func(s *optimus.ServeSpec) { s.Mix = mix }),
			sweep: func(s *optimus.SweepSpec) { s.Trace, s.Mixes = trace, [][]optimus.ServeTenantLoad{mix} },
			args:  traceArgs("-mix", "a:1:100:50"), sArgs: traceArgs("-mix", "a:1:100:50"),
			field: "Mix", axis: "Mixes", flag: "-mix", sweepFlag: "-mix"},
		{name: "prompt with mix", reject: true, lib: then(withMix(mix), func(s *optimus.ServeSpec) { s.PromptTokens = 100 }),
			sweep: func(s *optimus.SweepSpec) { s.Mixes, s.Seqs = [][]optimus.ServeTenantLoad{mix}, []int{100} },
			args:  []string{"-mix", "a:1:100:50", "-prompt", "100"}, sArgs: []string{"-mix", "a:1:100:50", "-seqs", "100"},
			field: "PromptTokens", axis: "Seqs", flag: "-prompt", sweepFlag: "-seqs"},
		{name: "gen with trace", reject: true, lib: then(replay, func(s *optimus.ServeSpec) { s.GenTokens = 100 }),
			sweep: func(s *optimus.SweepSpec) { s.Trace, s.GenTokens = trace, []int{100} },
			args:  traceArgs("-gen", "100"), sArgs: traceArgs("-gen", "100"),
			field: "GenTokens", axis: "GenTokens", flag: "-gen", sweepFlag: "-gen"},
		{name: "prefix with mix", reject: true, lib: then(withMix(mix), func(s *optimus.ServeSpec) { s.PrefixTokens = 20 }),
			sweep: func(s *optimus.SweepSpec) { s.Mixes, s.PrefixTokens = [][]optimus.ServeTenantLoad{mix}, []int{20} },
			args:  []string{"-mix", "a:1:100:50", "-prefix", "20"}, sArgs: []string{"-mix", "a:1:100:50", "-prefix", "20"},
			field: "PrefixTokens", axis: "PrefixTokens", flag: "-prefix", sweepFlag: "-prefix"},
		{name: "rate with trace", reject: true, lib: then(replay, func(s *optimus.ServeSpec) { s.Rate = 2 }),
			sweep: func(s *optimus.SweepSpec) { s.Trace, s.Rates = trace, []float64{2} },
			args:  traceArgs("-rate", "2"), sArgs: traceArgs("-rates", "2"),
			field: "Rate", axis: "Rates", flag: "-rate", sweepFlag: "-rates"},
		{name: "schedule with trace", reject: true, lib: then(replay, func(s *optimus.ServeSpec) { s.Schedule = sched }),
			sweep: func(s *optimus.SweepSpec) { s.Trace, s.Schedules = trace, []optimus.ServeSchedule{sched} },
			args:  traceArgs("-schedule", "0-10:2"), sArgs: traceArgs("-schedules", "0-10:2"),
			field: "Schedule", axis: "Schedules", flag: "-schedule", sweepFlag: "-schedules"},
		{name: "turns with trace", reject: true, lib: then(replay, func(s *optimus.ServeSpec) { s.Turns = 3 }),
			sweep: func(s *optimus.SweepSpec) { s.Trace, s.Turns = trace, []int{3} },
			args:  traceArgs("-turns", "3"), sArgs: traceArgs("-turns", "3"),
			field: "Turns", axis: "Turns", flag: "-turns", sweepFlag: "-turns"},
		{name: "think with trace", reject: true, lib: then(replay, func(s *optimus.ServeSpec) { s.Think = 1 }),
			sweep: func(s *optimus.SweepSpec) { s.Trace, s.Think = trace, 1 },
			args:  traceArgs("-think", "1"), sArgs: traceArgs("-think", "1"),
			field: "Think", axis: "Think", flag: "-think", sweepFlag: "-think"},
		{name: "count with trace", reject: true, lib: then(replay, func(s *optimus.ServeSpec) { s.Requests = 5 }),
			sweep: func(s *optimus.SweepSpec) { s.Trace, s.ServeRequests = trace, 5 },
			args:  traceArgs("-requests", "5"), sArgs: traceArgs("-serve-requests", "5"),
			field: "Requests", axis: "ServeRequests", flag: "-requests", sweepFlag: "-serve-requests"},
		{name: "seed with trace", reject: true, lib: then(replay, func(s *optimus.ServeSpec) { s.Seed = 2 }),
			sweep: func(s *optimus.SweepSpec) { s.Trace, s.ServeSeed = trace, 2 },
			args:  traceArgs("-seed", "2"), sArgs: traceArgs("-serve-seed", "2"),
			field: "Seed", axis: "ServeSeed", flag: "-seed", sweepFlag: "-serve-seed"},
		{name: "schedule with rate", reject: true, lib: func(s *optimus.ServeSpec) { s.Schedule = sched },
			sweep: func(s *optimus.SweepSpec) { s.Schedules, s.Rates = []optimus.ServeSchedule{sched}, []float64{1} },
			args:  []string{"-schedule", "0-10:2", "-rate", "3"}, sArgs: []string{"-schedules", "0-10:2", "-rates", "3"},
			field: "Schedule", axis: "Schedules", flag: "-schedule", sweepFlag: "-schedules"},
		{name: "sessions with prefix", reject: true, lib: func(s *optimus.ServeSpec) { s.Turns, s.PrefixTokens = 3, 32 },
			sweep: func(s *optimus.SweepSpec) { s.Turns, s.PrefixTokens = []int{3}, []int{32} },
			args:  []string{"-turns", "3", "-prefix", "32"}, sArgs: []string{"-turns", "3", "-prefix", "32"},
			field: "PrefixTokens", axis: "PrefixTokens", flag: "-prefix", sweepFlag: "-prefix"},
		{name: "sessions over a prefixed mix", reject: true, lib: then(withMix(prefixMix), func(s *optimus.ServeSpec) { s.Turns = 3 }),
			sweep: func(s *optimus.SweepSpec) { s.Turns, s.Mixes = []int{3}, [][]optimus.ServeTenantLoad{prefixMix} },
			args:  []string{"-turns", "3", "-mix", "a:1:100:50:40"}, sArgs: []string{"-turns", "3", "-mix", "a:1:100:50:40"},
			field: "Mix", axis: "Mixes", flag: "-mix", sweepFlag: "-mix"},
		{name: "think without sessions", reject: true, lib: func(s *optimus.ServeSpec) { s.Think = 1 },
			sweep: func(s *optimus.SweepSpec) { s.Think = 1 },
			args:  []string{"-think", "1"}, sArgs: []string{"-think", "1"},
			field: "Think", axis: "Think", flag: "-think", sweepFlag: "-think"},
		{name: "think over one turn", reject: true, lib: func(s *optimus.ServeSpec) { s.Turns, s.Think = 1, 2 },
			sweep: func(s *optimus.SweepSpec) { s.Turns, s.Think = []int{1}, 2 },
			args:  []string{"-turns", "1", "-think", "2"}, sArgs: []string{"-turns", "1", "-think", "2"},
			field: "Think", axis: "Think", flag: "-think", sweepFlag: "-think"},
		{name: "sessions under reserve", reject: true, replica: true,
			lib: func(s *optimus.ServeSpec) { s.Policy, s.Turns = optimus.ReserveFullPolicy, 3 },
			sweep: func(s *optimus.SweepSpec) {
				s.Policies, s.Turns = []optimus.ServePolicy{optimus.ReserveFullPolicy}, []int{3}
			},
			args: []string{"-policy", "reserve", "-turns", "3"}, sArgs: []string{"-policies", "reserve", "-turns", "3"},
			field: "Turns", axis: "Turns", flag: "-turns", sweepFlag: "-turns"},
		{name: "zero rate", reject: true, lib: func(s *optimus.ServeSpec) { s.Rate = 0 },
			sweep: func(s *optimus.SweepSpec) { s.Rates = []float64{0} },
			args:  []string{"-rate", "0"}, sArgs: []string{"-rates", "0"},
			field: "rate", axis: "rate", flag: "rate", sweepFlag: "rate"},
		{name: "negative count", reject: true, lib: func(s *optimus.ServeSpec) { s.Requests = -3 },
			sweep: func(s *optimus.SweepSpec) { s.ServeRequests = -3 },
			args:  []string{"-requests", "-3"}, sArgs: []string{"-serve-requests", "-3"},
			field: "request count", axis: "request count", flag: "request count", sweepFlag: "request count"},

		{name: "closed loop", serveOnly: true,
			lib:  func(s *optimus.ServeSpec) { s.Rate, s.Arrival, s.Clients = 0, optimus.ClosedLoopArrivals, 4 },
			args: []string{"-arrival", "closed", "-clients", "4"}},
		{name: "clients open-loop", reject: true, serveOnly: true,
			lib: func(s *optimus.ServeSpec) { s.Clients = 4 }, args: []string{"-clients", "4"},
			field: "Clients", flag: "-clients"},
		{name: "closed with rate", reject: true, serveOnly: true,
			lib:  func(s *optimus.ServeSpec) { s.Arrival, s.Clients = optimus.ClosedLoopArrivals, 4 },
			args: []string{"-arrival", "closed", "-rate", "2"}, field: "Rate", flag: "-rate"},
		{name: "closed with schedule", reject: true, serveOnly: true,
			lib: func(s *optimus.ServeSpec) {
				s.Rate, s.Schedule, s.Arrival, s.Clients = 0, sched, optimus.ClosedLoopArrivals, 4
			},
			args: []string{"-arrival", "closed", "-schedule", "0-10:2"}, field: "Schedule", flag: "-schedule"},
		{name: "closed with sessions", reject: true, serveOnly: true,
			lib: func(s *optimus.ServeSpec) {
				s.Rate, s.Turns, s.Arrival, s.Clients = 0, 3, optimus.ClosedLoopArrivals, 4
			},
			args: []string{"-arrival", "closed", "-turns", "3"}, field: "Turns", flag: "-turns"},
		{name: "trace with closed loop", reject: true, serveOnly: true,
			lib:  then(replay, func(s *optimus.ServeSpec) { s.Arrival = optimus.ClosedLoopArrivals }),
			args: traceArgs("-arrival", "closed"), field: "Arrival", flag: "-arrival"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			check := func(layer string, err error, name string) {
				t.Helper()
				switch {
				case !tc.reject && err != nil:
					t.Errorf("%s rejects: %v", layer, err)
				case tc.reject && err == nil:
					t.Errorf("%s accepts", layer)
				case tc.reject && !strings.Contains(err.Error(), name):
					t.Errorf("%s error should name %s: %v", layer, name, err)
				}
			}
			spec := optimus.ServeSpec{
				Model: cfg, System: sys, TP: 1, Precision: optimus.FP16, Policy: optimus.PagedPolicy,
				PromptTokens: 200, GenTokens: 200, Rate: 1, Requests: 8, Seed: 1,
			}
			tc.lib(&spec)
			check("serve.Spec.Validate", spec.Validate(), tc.field)
			if !tc.serveOnly {
				capacity := spec
				capacity.SetWorkload(workload.Spec{})
				fleet := optimus.ClusterSpec{Replicas: []optimus.ClusterReplica{{Spec: capacity, Count: 2}}}
				fleet.SetWorkload(spec.Workload())
				err := fleet.Validate()
				check("cluster.Spec.Validate", err, tc.field)
				if err != nil && !tc.replica && strings.Contains(err.Error(), "replica") {
					t.Errorf("cluster blames a fleet-wide workload error on a replica: %v", err)
				}
			}
			if tc.sweep != nil {
				sw := optimus.SweepSpec{
					Workload: optimus.ServingSweep, Models: []optimus.Model{cfg}, Systems: []*optimus.System{sys},
					Policies: []optimus.ServePolicy{optimus.PagedPolicy},
				}
				tc.sweep(&sw)
				check("sweep.Spec.Validate", sw.Validate(), tc.axis)
			}
			if tc.args != nil || tc.name == "spec-wide shape" {
				args := []string{"-policy", "paged", "-format", "json"}
				if !slices.Contains(tc.args, "-trace") {
					args = append(args, "-requests", "8")
				}
				args = append(args, tc.args...)
				check("optimus serve", cmdServe(args), tc.flag)
				if !tc.serveOnly {
					check("optimus cluster", cmdCluster(args), tc.flag)
				}
			}
			if tc.sArgs != nil || tc.name == "spec-wide shape" {
				args := append([]string{"-workload", "serve", "-models", "llama2-13b", "-devices", "h100", "-gpus", "1",
					"-intra", "nvlink4", "-policies", "paged", "-format", "csv"}, tc.sArgs...)
				check("optimus sweep", cmdSweep(args), tc.sweepFlag)
			}
		})
	}
}
