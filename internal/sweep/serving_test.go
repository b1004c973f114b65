package sweep

import (
	"context"
	"math"
	"reflect"
	"testing"

	"optimus/internal/arch"
	"optimus/internal/model"
	"optimus/internal/serve"
	"optimus/internal/tech"
	"optimus/internal/workload"
)

// servingSpec0 is a small serving grid: one model, 1- and 2-GPU H100
// systems, two arrival rates, two batch caps.
func servingSpec0(t *testing.T) Spec {
	t.Helper()
	cfg, err := model.ByName("Llama2-13B")
	if err != nil {
		t.Fatal(err)
	}
	var systems []*arch.System
	for _, n := range []int{1, 2} {
		sys, err := arch.SystemOf(arch.H100(), n, 8, tech.NVLink4, tech.IBNDR)
		if err != nil {
			t.Fatal(err)
		}
		systems = append(systems, sys)
	}
	return Spec{
		Workload:      Serving,
		Models:        []model.Config{cfg},
		Systems:       systems,
		Rates:         []float64{0.5, 2},
		BatchCaps:     []int{4, 16},
		ServeRequests: 48,
		Constraints:   Constraints{TopK: 20},
	}
}

func TestServingSweepRanksBySLO(t *testing.T) {
	res, err := Serial(servingSpec0(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("2 systems x 2 rates x 2 caps should rank 8 rows, got %d", len(res.Rows))
	}
	for i, row := range res.Rows {
		m := row.Metrics
		if row.Point.Workload != Serving {
			t.Fatalf("row %d workload %v", i, row.Point.Workload)
		}
		if m.Time <= 0 || m.TTFTP95 <= 0 || m.TPOTP95 <= 0 || m.TokensPerSec <= 0 {
			t.Errorf("row %d missing serving metrics: %+v", i, m)
		}
		if !m.Fits {
			t.Errorf("row %d should fit by construction", i)
		}
		if i > 0 && res.Rows[i-1].Metrics.Time > m.Time {
			t.Errorf("rows not sorted by p95 E2E at %d", i)
		}
		if m.Footprint.Weights <= 0 || m.Footprint.KVCache <= 0 {
			t.Errorf("row %d footprint not populated: %+v", i, m.Footprint)
		}
	}
}

// TestServingEngineMatchesSerial: the concurrent engine must reproduce the
// serial serving ranking byte for byte at any worker count — the serving
// simulator is deterministic, so memoization and concurrency change
// nothing.
func TestServingEngineMatchesSerial(t *testing.T) {
	spec := servingSpec0(t)
	want, err := Serial(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 8} {
		spec.Workers = workers
		got, err := Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("workers=%d: %d rows vs serial %d", workers, len(got.Rows), len(want.Rows))
		}
		for i := range got.Rows {
			if got.Rows[i].Point.Key() != want.Rows[i].Point.Key() {
				t.Errorf("workers=%d row %d: %s vs %s", workers, i,
					got.Rows[i].Point.Key(), want.Rows[i].Point.Key())
			}
			if !reflect.DeepEqual(got.Rows[i].Metrics, want.Rows[i].Metrics) {
				t.Errorf("workers=%d row %d metrics differ", workers, i)
			}
		}
	}
}

// TestServingInfeasiblePruned: a model whose weights overflow the device
// must be pruned (engine) or error out (serial) — either way, dropped.
func TestServingInfeasiblePruned(t *testing.T) {
	spec := servingSpec0(t)
	cfg, err := model.ByName("Llama2-70B")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := arch.SystemOf(arch.A100(), 1, 8, tech.NVLink3, tech.IBNDR)
	if err != nil {
		t.Fatal(err)
	}
	spec.Models = []model.Config{cfg}
	spec.Systems = []*arch.System{sys}
	spec.Rates = []float64{1}
	spec.BatchCaps = nil

	serial, err := Serial(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Rows) != 0 {
		t.Errorf("overflowing serving candidate should be dropped, got %d rows", len(serial.Rows))
	}
	eng, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(eng.Rows) != 0 {
		t.Errorf("engine should drop the overflowing candidate, got %d rows", len(eng.Rows))
	}
	if eng.Stats.Pruned != 1 {
		t.Errorf("engine should prune the candidate before simulating, stats: %+v", eng.Stats)
	}
}

// TestServingKeyCoversServingAxes: candidates differing only in rate,
// batch cap, request count or seed must have distinct memo keys.
func TestServingKeyCoversServingAxes(t *testing.T) {
	base := servingSpec0(t)
	pts := Enumerate(base)
	if len(pts) != 8 {
		t.Fatalf("expected 8 candidates, got %d", len(pts))
	}
	seen := make(map[string]bool)
	for _, p := range pts {
		if seen[p.Key()] {
			t.Fatalf("duplicate key %s", p.Key())
		}
		seen[p.Key()] = true
	}
	p := pts[0]
	for name, mutate := range map[string]func(*Point){
		"rate":        func(q *Point) { q.Rate *= 2 },
		"cap":         func(q *Point) { q.BatchCap++ },
		"requests":    func(q *Point) { q.ServeRequests++ },
		"seed":        func(q *Point) { q.ServeSeed++ },
		"policy":      func(q *Point) { q.Policy = serve.Paged; q.PageTokens = serve.DefaultPageTokens },
		"page tokens": func(q *Point) { q.Policy = serve.Paged; q.PageTokens = 32 },
		"pool split": func(q *Point) {
			q.Policy = serve.Disaggregated
			q.PageTokens = serve.DefaultPageTokens
			q.PrefillDevices, q.DecodeDevices = 1, 1
			q.TransferGBps = serve.DefaultTransferGBps
		},
		"transfer bandwidth": func(q *Point) {
			q.Policy = serve.Disaggregated
			q.PageTokens = serve.DefaultPageTokens
			q.PrefillDevices, q.DecodeDevices = 1, 1
			q.TransferGBps = 200
		},
		"prefix length": func(q *Point) {
			q.Policy = serve.Paged
			q.PageTokens = serve.DefaultPageTokens
			q.PrefixTokens = 64
		},
		"host tier capacity": func(q *Point) {
			q.Policy = serve.Paged
			q.PageTokens = serve.DefaultPageTokens
			q.HostKVBytes = 4e9
			q.SwapGBps = serve.DefaultSwapGBps
		},
		"swap bandwidth": func(q *Point) {
			q.Policy = serve.Paged
			q.PageTokens = serve.DefaultPageTokens
			q.HostKVBytes = 4e9
			q.SwapGBps = 128
		},
		"schedule": func(q *Point) {
			q.Rate = 0
			q.Schedule = workload.Schedule{{Start: 0, End: 10, Rate: 1}, {Start: 10, End: 20, Rate: 4}}
		},
		"turns": func(q *Point) {
			q.Policy = serve.Paged
			q.PageTokens = serve.DefaultPageTokens
			q.Turns = 3
		},
		"think": func(q *Point) {
			q.Policy = serve.Paged
			q.PageTokens = serve.DefaultPageTokens
			q.Turns = 3
			q.Think = 5
		},
	} {
		q := p
		mutate(&q)
		if q.Key() == p.Key() {
			t.Errorf("key must change with %s", name)
		}
	}
}

// TestServingValidation: serving-only axes are rejected elsewhere, and
// serving rejects the axes it ignores.
func TestServingValidation(t *testing.T) {
	good := servingSpec0(t)
	if err := good.Validate(); err != nil {
		t.Fatalf("baseline serving spec should validate: %v", err)
	}
	check := func(name string, mutate func(*Spec)) {
		s := servingSpec0(t)
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s should fail validation", name)
		}
	}
	check("rates on training sweep", func(s *Spec) { s.Workload = Training; s.GenTokens = nil })
	check("pool splits without a disagg policy", func(s *Spec) { s.PoolSplits = []PoolSplit{{Prefill: 1, Decode: 1}} })
	check("transfer bandwidth without a disagg policy", func(s *Spec) { s.TransferGBps = 50 })
	check("negative pool split", func(s *Spec) {
		s.Policies = []serve.Policy{serve.Disaggregated}
		s.PoolSplits = []PoolSplit{{Prefill: -1, Decode: 1}}
	})
	check("negative transfer bandwidth", func(s *Spec) {
		s.Policies = []serve.Policy{serve.Disaggregated}
		s.TransferGBps = -1
	})
	check("NaN transfer bandwidth", func(s *Spec) {
		s.Policies = []serve.Policy{serve.Disaggregated}
		s.TransferGBps = math.NaN()
	})
	check("pool splits on inference sweep", func(s *Spec) {
		s.Workload = Inference
		s.Rates, s.BatchCaps, s.ServeRequests = nil, nil, 0
		s.PoolSplits = []PoolSplit{{Prefill: 1, Decode: 1}}
	})
	check("policies on training sweep", func(s *Spec) {
		s.Workload = Training
		s.GenTokens, s.Rates, s.BatchCaps, s.ServeRequests = nil, nil, nil, 0
		s.Policies = []serve.Policy{serve.Paged}
	})
	check("page tokens on inference sweep", func(s *Spec) {
		s.Workload = Inference
		s.Rates, s.BatchCaps, s.ServeRequests = nil, nil, 0
		s.ServePageTokens = 16
	})
	check("unknown serving policy", func(s *Spec) { s.Policies = []serve.Policy{serve.Policy(9)} })
	check("negative serving page size", func(s *Spec) { s.ServePageTokens = -16 })
	check("page size without a paged policy", func(s *Spec) {
		s.Policies = []serve.Policy{serve.ReserveFull}
		s.ServePageTokens = 32
	})
	check("page size with defaulted reserve-only policies", func(s *Spec) { s.ServePageTokens = 32 })
	check("serve seed on inference sweep", func(s *Spec) {
		s.Workload = Inference
		s.Rates, s.BatchCaps, s.ServeRequests = nil, nil, 0
		s.ServeSeed = 7
	})
	check("global batches on serving sweep", func(s *Spec) { s.GlobalBatches = []int{4} })
	check("negative prefix length", func(s *Spec) {
		s.Policies = []serve.Policy{serve.Paged}
		s.PrefixTokens = []int{-1}
	})
	check("prefix without a paged policy", func(s *Spec) { s.PrefixTokens = []int{64} })
	check("prefix with mixes", func(s *Spec) {
		s.Policies = []serve.Policy{serve.Paged}
		s.PrefixTokens = []int{64}
		s.Mixes = [][]workload.TenantLoad{{{Tenant: "a", Share: 1, PromptTokens: 100, GenTokens: 50}}}
	})
	check("host tier without a paged policy", func(s *Spec) { s.HostKVBytes = []float64{4e9} })
	check("negative host tier capacity", func(s *Spec) {
		s.Policies = []serve.Policy{serve.Paged}
		s.HostKVBytes = []float64{-1}
	})
	check("infinite host tier capacity", func(s *Spec) {
		s.Policies = []serve.Policy{serve.Paged}
		s.HostKVBytes = []float64{math.Inf(1)}
	})
	check("negative swap bandwidth", func(s *Spec) {
		s.Policies = []serve.Policy{serve.Paged}
		s.HostKVBytes = []float64{4e9}
		s.SwapGBps = -1
	})
	check("swap bandwidth without a host tier", func(s *Spec) {
		s.Policies = []serve.Policy{serve.Paged}
		s.SwapGBps = 32
	})
	check("prefix on inference sweep", func(s *Spec) {
		s.Workload = Inference
		s.Rates, s.BatchCaps, s.ServeRequests = nil, nil, 0
		s.PrefixTokens = []int{64}
	})
	check("non-positive rate", func(s *Spec) { s.Rates = []float64{0} })
	check("NaN rate", func(s *Spec) { s.Rates = []float64{math.NaN()} })
	check("infinite rate", func(s *Spec) { s.Rates = []float64{math.Inf(1)} })
	check("negative batch cap", func(s *Spec) { s.BatchCaps = []int{-1} })
	check("negative request count", func(s *Spec) { s.ServeRequests = -5 })
	check("zero gen tokens", func(s *Spec) { s.GenTokens = []int{0} })
	check("training axes on serving sweep", func(s *Spec) { s.Constraints.MaxTP = 4 })
}

// TestServingPolicyAxis: with Policies as a grid axis, one sweep must
// rank reservation against paged admission per rate × batch-cap point —
// the capacity-study shape the paging work exists for — and the
// concurrent engine must reproduce the serial ranking exactly.
func TestServingPolicyAxis(t *testing.T) {
	spec := servingSpec0(t)
	spec.Policies = []serve.Policy{serve.ReserveFull, serve.Paged}
	spec.ServePageTokens = 32

	serial, err := Serial(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Rows) != 16 {
		t.Fatalf("2 systems x 2 rates x 2 caps x 2 policies should rank 16 rows, got %d", len(serial.Rows))
	}
	count := map[serve.Policy]int{}
	for _, row := range serial.Rows {
		count[row.Point.Policy]++
		switch row.Point.Policy {
		case serve.ReserveFull:
			if row.Point.PageTokens != 0 {
				t.Errorf("reservation row carries page size %d", row.Point.PageTokens)
			}
		case serve.Paged:
			if row.Point.PageTokens != 32 {
				t.Errorf("paged row page size = %d, want 32", row.Point.PageTokens)
			}
		}
		if row.Metrics.KVUtil <= 0 {
			t.Errorf("serving row missing KV utilization: %+v", row.Metrics)
		}
	}
	if count[serve.ReserveFull] != 8 || count[serve.Paged] != 8 {
		t.Fatalf("expected 8 rows per policy, got %v", count)
	}

	eng, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(eng.Rows, serial.Rows) {
		t.Error("engine ranking with the policy axis must match serial byte for byte")
	}
}

// TestServingDisaggAxis: with PoolSplits as a grid axis, one sweep must
// rank disaggregated splits against reservation per rate × batch-cap
// point — a split wider than a system's device count skips that cell, the
// zero split canonicalizes to the co-located one per system, and the
// concurrent engine must reproduce the serial ranking exactly.
func TestServingDisaggAxis(t *testing.T) {
	spec := servingSpec0(t)
	spec.Policies = []serve.Policy{serve.ReserveFull, serve.Disaggregated}
	spec.PoolSplits = []PoolSplit{{Prefill: 1, Decode: 1}, {Prefill: 2, Decode: 2}}
	spec.TransferGBps = 100
	spec.ServePageTokens = 32 // legal: disagg pages its KV too
	if err := spec.Validate(); err != nil {
		t.Fatalf("disagg grid should validate: %v", err)
	}

	serial, err := Serial(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Reserve: 2 systems × 2 rates × 2 caps = 8. Disagg: the 1-GPU system
	// takes only the 1+1 split (2+2 exceeds its device count), the 2-GPU
	// system both → (1+2) × 2 rates × 2 caps = 12.
	if len(serial.Rows) != 20 {
		t.Fatalf("expected 20 ranked rows, got %d", len(serial.Rows))
	}
	count := map[serve.Policy]int{}
	for _, row := range serial.Rows {
		count[row.Point.Policy]++
		switch row.Point.Policy {
		case serve.ReserveFull:
			if row.Point.PrefillDevices != 0 || row.Point.DecodeDevices != 0 || row.Point.TransferGBps != 0 {
				t.Errorf("reservation row carries a pool split: %+v", row.Point)
			}
		case serve.Disaggregated:
			if row.Point.PageTokens != 32 || row.Point.TransferGBps != 100 {
				t.Errorf("disagg row lost its knobs: %+v", row.Point)
			}
			if row.Point.PrefillDevices > row.Point.Map.TP || row.Point.DecodeDevices > row.Point.Map.TP {
				t.Errorf("split wider than the system survived enumeration: %+v", row.Point)
			}
			if row.Metrics.KVTransfers == 0 {
				t.Errorf("disagg row simulated no migrations: %+v", row.Metrics)
			}
			if row.Metrics.TransferTime <= 0 {
				t.Errorf("finite bandwidth must charge transfer time: %+v", row.Metrics)
			}
		}
	}
	if count[serve.ReserveFull] != 8 || count[serve.Disaggregated] != 12 {
		t.Fatalf("expected 8 reserve + 12 disagg rows, got %v", count)
	}

	eng, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(eng.Rows, serial.Rows) {
		t.Error("engine ranking with the pool-split axis must match serial byte for byte")
	}

	// A disagg grid without explicit splits defaults to the co-located one
	// per system — still one candidate per cell, not zero.
	spec.PoolSplits = nil
	pts := Enumerate(spec)
	colocated := 0
	for _, p := range pts {
		if p.Policy == serve.Disaggregated {
			colocated++
			if p.PrefillDevices != p.Map.TP || p.DecodeDevices != p.Map.TP {
				t.Errorf("defaulted split should be co-located per system: %+v", p)
			}
		}
	}
	if colocated != 8 {
		t.Errorf("defaulted disagg axis should yield 8 candidates, got %d", colocated)
	}
}

// TestServingMemoizedAcrossRuns: a second engine run over the same grid
// must answer every candidate from the memo without re-simulating.
func TestServingMemoizedAcrossRuns(t *testing.T) {
	spec := servingSpec0(t)
	eng := New(2)
	first, err := eng.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	second, err := eng.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.Evaluated != 0 || second.Stats.MemoHits != first.Stats.Evaluated {
		t.Errorf("warm run should be all memo hits: first %+v, second %+v", first.Stats, second.Stats)
	}
	if !reflect.DeepEqual(first.Rows, second.Rows) {
		t.Error("warm run must reproduce the ranking")
	}
}

// TestServingPrefixTieredAxis: with PrefixTokens and HostKVBytes as grid
// axes, one sweep ranks the prefix-cache and host-tier variants against
// the reservation baseline — non-paged candidates collapse both axes to
// their zero entries (one candidate, not four), prefix-cache rows carry
// hit counters, and the concurrent engine reproduces the serial ranking
// byte for byte.
func TestServingPrefixTieredAxis(t *testing.T) {
	spec := servingSpec0(t)
	spec.Policies = []serve.Policy{serve.ReserveFull, serve.Paged}
	spec.PrefixTokens = []int{0, 64}
	spec.HostKVBytes = []float64{0, 4e9}
	spec.Constraints.TopK = 64

	pts := Enumerate(spec)
	// Per model×system×rate×cap cell: 1 reserve candidate (both axes
	// canonicalize to zero) + 2×2 paged ones.
	if want := 8 * 5; len(pts) != want {
		t.Fatalf("expected %d candidates, got %d", want, len(pts))
	}
	for _, p := range pts {
		if p.Policy == serve.ReserveFull && (p.PrefixTokens != 0 || p.HostKVBytes != 0 || p.SwapGBps != 0) {
			t.Fatalf("reserve candidate carries paged-only knobs: %+v", p)
		}
		if p.Policy == serve.Paged && p.HostKVBytes > 0 && p.SwapGBps != serve.DefaultSwapGBps {
			t.Fatalf("host-tier candidate should canonicalize the default swap bandwidth: %+v", p)
		}
	}

	serial, err := Serial(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Rows) != len(pts) {
		t.Fatalf("all %d candidates should rank, got %d rows", len(pts), len(serial.Rows))
	}
	hits := 0
	for _, row := range serial.Rows {
		if row.Point.PrefixTokens > 0 && row.Metrics.PrefixHits > 0 {
			hits++
			if row.Metrics.PrefixSavedTokens != row.Metrics.PrefixHits*row.Point.PrefixTokens {
				t.Errorf("saved tokens %d inconsistent with %d hits of a %d-token prefix",
					row.Metrics.PrefixSavedTokens, row.Metrics.PrefixHits, row.Point.PrefixTokens)
			}
		}
	}
	if hits == 0 {
		t.Error("no prefix-cache candidate reported a hit")
	}

	eng, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(eng.Rows, serial.Rows) {
		t.Error("engine ranking with the prefix/tier axes must match serial byte for byte")
	}

	// A prefix longer than a cell's prompt skips that cell rather than
	// simulating an impossible workload.
	skip := servingSpec0(t)
	skip.Policies = []serve.Policy{serve.Paged}
	skip.Seqs = []int{200, 400}
	skip.PrefixTokens = []int{250}
	kept := Enumerate(skip)
	for _, p := range kept {
		if p.Seq != 400 {
			t.Fatalf("a 250-token prefix cannot shape a %d-token prompt, yet the cell enumerated", p.Seq)
		}
	}
	if len(kept) != 8 {
		t.Fatalf("expected 8 surviving candidates (the 400-token cells), got %d", len(kept))
	}
}
