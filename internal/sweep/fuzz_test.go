package sweep

import (
	"math"
	"testing"

	"optimus/internal/arch"
	"optimus/internal/model"
	"optimus/internal/parallel"
	"optimus/internal/serve"
	"optimus/internal/tech"
	"optimus/internal/workload"
)

// fuzzCell builds the fixed (model, system, precision) cell the serving
// key fuzzer enumerates within.
func fuzzCell(f *testing.F) (model.Config, *arch.System) {
	f.Helper()
	cfg, err := model.ByName("Llama2-13B")
	if err != nil {
		f.Fatal(err)
	}
	sys, err := arch.SystemOf(arch.H100(), 2, 8, tech.NVLink4, tech.IBNDR)
	if err != nil {
		f.Fatal(err)
	}
	return cfg, sys
}

// enumerateOne builds one serving candidate of the (cfg, sys) cell at
// FP16 through the grid's enumerator: raw carries the axis values before
// canonicalization, shape the request workload.
func enumerateOne(cfg model.Config, sys *arch.System, raw Point, shape servingShape) (Point, bool) {
	tp := sys.NumDevices()
	raw.Workload, raw.Model, raw.System, raw.Precision = Serving, cfg, sys, tech.FP16
	raw.Map = parallel.Mapping{DP: 1, TP: tp, PP: 1, SP: tp > 1, Microbatch: 1}
	shape.tok = workloadToken(shape.mix, shape.trace)
	raw.tok = tokens{model: modelToken(cfg), system: systemToken(sys), schedule: workload.FormatSchedule(raw.Schedule)}
	if !servingPoint(&raw, shape) {
		return Point{}, false
	}
	return raw, true
}

// canonRate keeps the fuzzer inside the rates the sweep accepts (positive
// and finite), where key equality must mirror value equality. Zero, NaN
// and infinities are rejected by Spec.Validate long before a key is ever
// memoized, so they are folded to a valid rate instead of exercised.
func canonRate(r float64) float64 {
	if !(r > 0) || math.IsInf(r, 0) {
		return 1
	}
	return r
}

// canonSplit keeps a fuzzed pool-device count inside [0, 2] — the range
// the fuzz cell's two-GPU system accepts (wider splits skip the cell, and
// a skipped cell has no key to compare). Zero canonicalizes to the
// co-located count at enumeration.
func canonSplit(v int) int {
	return ((v % 3) + 3) % 3
}

// canonGBps folds transfer bandwidths the sweep validation rejects
// (negative, NaN) to the unset value; +Inf is legal (a free transfer).
func canonGBps(g float64) float64 {
	if math.IsNaN(g) || g < 0 {
		return 0
	}
	return g
}

// FuzzServingPointKey is the satellite memo-key gate: for any pair of
// serving candidates in one grid cell, Point.Key and the engine's ident
// must collide exactly when the candidates are behaviorally identical — equal canonicalized
// policy axes give equal keys (cache hits), any differing axis gives
// differing keys (no silent aliasing of metrics). The f.Add corpus runs
// as a regression suite under plain `go test`.
func FuzzServingPointKey(f *testing.F) {
	cfg, sys := fuzzCell(f)

	f.Add(1.0, 0, int8(0), 0, int64(1), 32, 0, 0, 0.0, 1.0, 0, int8(1), 0, int64(1), 32, 0, 0, 0.0)          // policy differs
	f.Add(1.0, 0, int8(1), 16, int64(1), 32, 0, 0, 0.0, 1.0, 0, int8(1), 0, int64(1), 32, 0, 0, 0.0)         // page default canonicalizes
	f.Add(1.0, 4, int8(1), 16, int64(1), 32, 0, 0, 0.0, 1.0, 8, int8(1), 16, int64(1), 32, 0, 0, 0.0)        // cap differs
	f.Add(2.0, 4, int8(0), 0, int64(1), 32, 0, 0, 0.0, 2.0, 4, int8(0), 0, int64(2), 32, 0, 0, 0.0)          // seed differs
	f.Add(2.0, 4, int8(0), 0, int64(1), 32, 0, 0, 0.0, 2.0, 4, int8(0), 0, int64(1), 64, 0, 0, 0.0)          // requests differ
	f.Add(1.5, 4, int8(1), 32, int64(1), 32, 0, 0, 0.0, 1.5, 4, int8(1), 32, int64(1), 32, 0, 0, 0.0)        // identical
	f.Add(1.0, 0, int8(1), 1<<30, int64(1), 8, 0, 0, 0.0, 1.0, 0, int8(1), 400, int64(1), 8, 0, 0, 0.0)      // page clamp collides
	f.Add(1.0, 0, int8(1), 0, int64(1), 32, 0, 0, 0.0, 1.0, 0, int8(2), 0, int64(1), 32, 0, 0, 0.0)          // paged vs disagg
	f.Add(1.0, 0, int8(2), 0, int64(1), 32, 1, 1, 50.0, 1.0, 0, int8(2), 0, int64(1), 32, 2, 2, 50.0)        // split differs
	f.Add(1.0, 0, int8(2), 0, int64(1), 32, 1, 1, 0.0, 1.0, 0, int8(2), 0, int64(1), 32, 1, 1, 50.0)         // bandwidth default canonicalizes
	f.Add(1.0, 0, int8(2), 0, int64(1), 32, 1, 1, 50.0, 1.0, 0, int8(2), 0, int64(1), 32, 1, 1, 100.0)       // bandwidth differs
	f.Add(1.0, 0, int8(2), 0, int64(1), 32, 0, 0, 0.0, 1.0, 0, int8(2), 0, int64(1), 32, 2, 2, 50.0)         // zero split canonicalizes co-located
	f.Add(1.0, 0, int8(0), 0, int64(1), 32, 1, 1, 50.0, 1.0, 0, int8(0), 0, int64(1), 32, 2, 2, 100.0)       // reserve zeroes disagg knobs
	f.Add(1.0, 0, int8(2), 0, int64(1), 32, 1, 1, math.Inf(1), 1.0, 0, int8(2), 0, int64(1), 32, 1, 1, 50.0) // infinite vs finite link
	f.Add(1.0, 0, int8(2), 0, int64(1), 32, 1, 1, negZero, 1.0, 0, int8(2), 0, int64(1), 32, 1, 1, 0.0)      // -0 bandwidth canonicalizes like 0

	f.Fuzz(func(t *testing.T,
		rate1 float64, cap1 int, pol1 int8, page1 int, seed1 int64, reqs1, pre1, dec1 int, gbps1 float64,
		rate2 float64, cap2 int, pol2 int8, page2 int, seed2 int64, reqs2, pre2, dec2 int, gbps2 float64) {
		mk := func(rate float64, batchCap int, pol int8, page int, seed int64, reqs, pre, dec int, gbps float64) *Point {
			p, ok := enumerateOne(cfg, sys, Point{
				Rate: canonRate(rate), BatchCap: batchCap, ServeRequests: reqs, ServeSeed: seed,
				Policy: serve.Policy(((int(pol) % 3) + 3) % 3), PageTokens: page,
				PrefillDevices: canonSplit(pre), DecodeDevices: canonSplit(dec), TransferGBps: canonGBps(gbps),
			}, servingShape{seq: 200, gen: 200})
			if !ok {
				t.Fatal("expected one candidate, got none")
			}
			return &p
		}
		p1 := mk(rate1, cap1, pol1, page1, seed1, reqs1, pre1, dec1, gbps1)
		p2 := mk(rate2, cap2, pol2, page2, seed2, reqs2, pre2, dec2, gbps2)

		same := p1.Rate == p2.Rate && p1.BatchCap == p2.BatchCap &&
			p1.Policy == p2.Policy && p1.PageTokens == p2.PageTokens &&
			p1.ServeSeed == p2.ServeSeed && p1.ServeRequests == p2.ServeRequests &&
			p1.PrefillDevices == p2.PrefillDevices && p1.DecodeDevices == p2.DecodeDevices &&
			p1.TransferGBps == p2.TransferGBps
		k1, k2 := p1.Key(), p2.Key()
		// The engine deduplicates on ident: it must split and merge the
		// pair exactly as the key does.
		if (p1.ident() == p2.ident()) != (k1 == k2) {
			t.Fatalf("ident and key disagree:\n%s\n%s", k1, k2)
		}
		if same && k1 != k2 {
			t.Fatalf("identical candidates got distinct keys:\n%s\n%s", k1, k2)
		}
		if !same && k1 == k2 {
			t.Fatalf("distinct candidates collide on key %s:\n%+v\n%+v", k1, p1, p2)
		}
		// The key rendered from the enumeration-time tokens must agree
		// with the recomputed one — a stale token would poison the memo.
		if memoKey(p1) != k1 || memoKey(p2) != k2 {
			t.Fatal("enumeration-time key diverges from recomputed key")
		}
	})
}
