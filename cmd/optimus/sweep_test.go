package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"optimus"
)

func TestCmdSweep(t *testing.T) {
	if err := cmdSweep([]string{"-models", "gpt-22b", "-gpus", "8", "-batches", "8", "-top", "3"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdSweep([]string{"-models", "gpt-22b", "-gpus", "8", "-batches", "8", "-format", "csv"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdSweep([]string{"-workload", "infer", "-models", "llama2-13b", "-devices", "h100",
		"-intra", "nvlink4", "-gpus", "1,2", "-batches", "1", "-format", "json"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdSweep([]string{"-workload", "serve", "-models", "llama2-13b", "-devices", "h100",
		"-intra", "nvlink4", "-gpus", "1,2", "-rates", "0.5,2", "-batch-caps", "8",
		"-serve-requests", "32", "-format", "csv"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdSweep([]string{"-workload", "serve", "-models", "llama2-13b", "-devices", "h100",
		"-intra", "nvlink4", "-gpus", "2", "-rates", "2", "-batch-caps", "0,16",
		"-policies", "reserve,paged", "-page-tokens", "32", "-serve-requests", "24"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdSweep([]string{"-workload", "serve", "-models", "llama2-13b", "-devices", "h100",
		"-intra", "nvlink4", "-gpus", "1", "-rates", "1,3",
		"-mix", "chat:1:200:200;chat:0.7:200:200,batch:0.3:900:80",
		"-serve-requests", "24", "-format", "csv"}); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]string{
		{"-workload", "serve", "-models", "llama2-13b", "-gpus", "2", "-policies", "fifo"},
		{"-workload", "train", "-models", "gpt-22b", "-gpus", "8", "-mix", "chat:1:200:200"},
		{"-workload", "infer", "-models", "llama2-13b", "-gpus", "2", "-trace", "x.csv"},
		{"-workload", "serve", "-models", "llama2-13b", "-gpus", "2", "-mix", "chat:0.7:200"},
		{"-workload", "serve", "-models", "llama2-13b", "-gpus", "2", "-mix", "chat:1:200:200", "-seqs", "100"},
		{"-workload", "serve", "-models", "llama2-13b", "-gpus", "2", "-trace", "/does/not/exist.csv"},
		{"-workload", "train", "-models", "gpt-22b", "-gpus", "8", "-policies", "paged"},
		{"-workload", "infer", "-models", "llama2-13b", "-gpus", "2", "-page-tokens", "16"},
		{"-workload", "serve", "-models", "llama2-13b", "-gpus", "2", "-page-tokens", "-4"},
		{"-workload", "serve", "-models", "llama2-13b", "-gpus", "2", "-policies", "reserve", "-page-tokens", "32"},
		{"-models", "no-such-model"},
		{"-devices", "warp-core"},
		{"-gpus", "eight"},
		{"-batches", "64;128"},
		{"-workload", "pretraining"},
		{"-precisions", "fp128"},
		{"-recomputes", "maybe"},
		{"-models", "gpt-22b", "-gpus", "8", "-batches", "8", "-format", "yaml"},
		{"-workload", "infer", "-models", "llama2-13b", "-gpus", "2", "-gen", "-5"},
		{"-workload", "infer", "-models", "llama2-13b", "-gpus", "2", "-max-tp", "2"},
		{"-workload", "infer", "-models", "llama2-13b", "-gpus", "2", "-recomputes", "full"},
		{"-workload", "train", "-models", "gpt-22b", "-gpus", "8", "-rates", "1"},
		{"-workload", "infer", "-models", "llama2-13b", "-gpus", "2", "-serve-requests", "8"},
		{"-workload", "serve", "-models", "llama2-13b", "-gpus", "2", "-batches", "4"},
		{"-workload", "serve", "-models", "llama2-13b", "-gpus", "2", "-rates", "zero"},
		{"-workload", "serve", "-models", "llama2-13b", "-gpus", "2", "-batch-caps", "four"},
	} {
		if err := cmdSweep(bad); err == nil {
			t.Errorf("args %v should fail", bad)
		}
	}
}

// TestCmdSweepCachePersistence: the -cache flag must write a snapshot on
// exit and serve the next invocation from it.
func TestCmdSweepCachePersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	args := []string{"-models", "gpt-22b", "-gpus", "8", "-batches", "8", "-top", "3", "-cache", path}
	if err := cmdSweep(args); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("cache file not written: %v", err)
	}
	eng := optimus.NewSweepEngine(1)
	if err := eng.LoadCache(strings.NewReader(string(data))); err != nil {
		t.Fatalf("cache file not loadable: %v", err)
	}
	if eng.CacheSize() == 0 {
		t.Error("cache file holds no entries")
	}
	// Second run loads the same file; it must not error and must rewrite
	// the snapshot.
	if err := cmdSweep(args); err != nil {
		t.Fatal(err)
	}
}

// sweepResult builds a small ranked result for the encoder tests.
func sweepResult(t *testing.T) optimus.SweepResult {
	t.Helper()
	cfg, err := optimus.ModelByName("gpt-22b")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := optimus.NewSystem("a100", 8, "nvlink3", "hdr")
	if err != nil {
		t.Fatal(err)
	}
	res, err := optimus.Sweep(context.Background(), optimus.SweepSpec{
		Models: []optimus.Model{cfg}, Systems: []*optimus.System{sys},
		GlobalBatches: []int{8},
		Constraints:   optimus.PlanConstraints{TopK: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("empty sweep")
	}
	return res
}

func TestWriteSweepCSV(t *testing.T) {
	res := sweepResult(t)
	var b strings.Builder
	if err := writeSweep(&b, res, optimus.TrainingSweep, "csv"); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(b.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(res.Rows)+1 {
		t.Fatalf("CSV has %d records, want %d rows + header", len(recs), len(res.Rows))
	}
	if recs[0][0] != "rank" || recs[1][0] != "1" {
		t.Errorf("unexpected CSV leader: %v / %v", recs[0], recs[1])
	}
}

// servingSweepResult builds a small serving ranking for the encoder tests.
func servingSweepResult(t *testing.T) optimus.SweepResult {
	t.Helper()
	cfg, err := optimus.ModelByName("llama2-13b")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := optimus.NewSystem("h100", 2, "nvlink4", "ndr")
	if err != nil {
		t.Fatal(err)
	}
	res, err := optimus.Sweep(context.Background(), optimus.SweepSpec{
		Workload: optimus.ServingSweep,
		Models:   []optimus.Model{cfg}, Systems: []*optimus.System{sys},
		Rates: []float64{1.5}, BatchCaps: []int{8}, ServeRequests: 24,
		Constraints: optimus.PlanConstraints{TopK: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("empty serving sweep")
	}
	return res
}

// TestWriteSweepCSVQuotesServingTokens: the serving "mapping" token is
// comma-separated ("tp=2,rate=1.5/s,cap=8"), so the CSV writer must quote
// it — a naive comma join would shear the row. The parse-back must return
// the token intact and keep every record at header width.
func TestWriteSweepCSVQuotesServingTokens(t *testing.T) {
	res := servingSweepResult(t)
	var b strings.Builder
	if err := writeSweep(&b, res, optimus.ServingSweep, "csv"); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `"tp=2,reserve-full,rate=1.5/s,cap=8"`) {
		t.Errorf("serving mapping token must be quoted in CSV output:\n%s", out)
	}
	recs, err := csv.NewReader(strings.NewReader(out)).ReadAll()
	if err != nil {
		t.Fatalf("CSV with serving tokens must stay parseable: %v", err)
	}
	width := len(recs[0])
	for i, rec := range recs {
		if len(rec) != width {
			t.Fatalf("record %d has %d fields, header has %d — comma leaked", i, len(rec), width)
		}
	}
	if got := recs[1][3]; got != "tp=2,reserve-full,rate=1.5/s,cap=8" {
		t.Errorf("mapping token did not round-trip: %q", got)
	}
	if recs[1][14] == "0" || recs[1][15] == "0" {
		t.Errorf("serving SLO columns missing: %v", recs[1])
	}
}

// TestWriteSweepCSVPagedColumns: a paged serving sweep must render its
// policy (with the block size) in the mapping token and populate the
// admission-pressure columns.
func TestWriteSweepCSVPagedColumns(t *testing.T) {
	cfg, err := optimus.ModelByName("llama2-13b")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := optimus.NewSystem("h100", 2, "nvlink4", "ndr")
	if err != nil {
		t.Fatal(err)
	}
	res, err := optimus.Sweep(context.Background(), optimus.SweepSpec{
		Workload: optimus.ServingSweep,
		Models:   []optimus.Model{cfg}, Systems: []*optimus.System{sys},
		Rates: []float64{2}, BatchCaps: []int{8}, ServeRequests: 24,
		Policies:        []optimus.ServePolicy{optimus.PagedPolicy},
		ServePageTokens: 32,
		Constraints:     optimus.PlanConstraints{TopK: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := writeSweep(&b, res, optimus.ServingSweep, "csv"); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "paged/32") {
		t.Errorf("paged policy token missing from CSV:\n%s", out)
	}
	recs, err := csv.NewReader(strings.NewReader(out)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	header := recs[0]
	col := func(name string) int {
		for i, h := range header {
			if h == name {
				return i
			}
		}
		t.Fatalf("column %q missing from header %v", name, header)
		return -1
	}
	for _, name := range []string{"preemptions", "recomputed_tokens", "kv_util"} {
		col(name)
	}
	if v := recs[1][col("kv_util")]; v == "0" || v == "" {
		t.Errorf("paged row should report nonzero KV utilization, got %q", v)
	}
}

// TestWriteSweepCSVDisaggColumns pins the disaggregated sweep columns:
// the mapping token carries the policy, split and transfer bandwidth; the
// prefill_devices / decode_devices / kv_transfers / transfer_s columns
// parse back to the candidate's values; and the JSON document mirrors
// them.
func TestWriteSweepCSVDisaggColumns(t *testing.T) {
	cfg, err := optimus.ModelByName("llama2-13b")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := optimus.NewSystem("h100", 2, "nvlink4", "ndr")
	if err != nil {
		t.Fatal(err)
	}
	res, err := optimus.Sweep(context.Background(), optimus.SweepSpec{
		Workload: optimus.ServingSweep,
		Models:   []optimus.Model{cfg}, Systems: []*optimus.System{sys},
		Rates: []float64{2}, BatchCaps: []int{8}, ServeRequests: 24,
		Policies:     []optimus.ServePolicy{optimus.DisaggregatedPolicy},
		PoolSplits:   []optimus.SweepPoolSplit{{Prefill: 1, Decode: 1}},
		TransferGBps: 25,
		Constraints:  optimus.PlanConstraints{TopK: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("expected one disagg row, got %d", len(res.Rows))
	}
	var b strings.Builder
	if err := writeSweep(&b, res, optimus.ServingSweep, "csv"); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `"tp=2,disagg/16,split=1+1,xfer=25GB/s,rate=2/s,cap=8"`) {
		t.Errorf("disagg mapping token must carry the split and bandwidth, quoted:\n%s", out)
	}
	recs, err := csv.NewReader(strings.NewReader(out)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	header := recs[0]
	col := func(name string) int {
		for i, h := range header {
			if h == name {
				return i
			}
		}
		t.Fatalf("column %q missing from header %v", name, header)
		return -1
	}
	row := recs[1]
	if row[col("prefill_devices")] != "1" || row[col("decode_devices")] != "1" {
		t.Errorf("pool-split columns wrong: %v", row)
	}
	m := res.Rows[0].Metrics
	if row[col("kv_transfers")] != strconv.Itoa(m.KVTransfers) || m.KVTransfers == 0 {
		t.Errorf("kv_transfers column = %q, want %d", row[col("kv_transfers")], m.KVTransfers)
	}
	wantTransfer := strconv.FormatFloat(m.TransferTime, 'g', -1, 64)
	if row[col("transfer_s")] != wantTransfer || m.TransferTime <= 0 {
		t.Errorf("transfer_s column = %q, want %s", row[col("transfer_s")], wantTransfer)
	}

	var j strings.Builder
	if err := writeSweep(&j, res, optimus.ServingSweep, "json"); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"prefill_devices": 1`, `"decode_devices": 1`, `"kv_transfers"`, `"transfer_time_s"`} {
		if !strings.Contains(j.String(), want) {
			t.Errorf("JSON output missing %s:\n%s", want, j.String())
		}
	}
}

// TestCmdSweepDisaggFlags drives the pool-split axis end to end through
// the CLI: zipped -prefill-devices/-decode-devices, and rejection of the
// flags when they cannot apply.
func TestCmdSweepDisaggFlags(t *testing.T) {
	if err := cmdSweep([]string{"-workload", "serve", "-models", "llama2-13b", "-devices", "h100",
		"-intra", "nvlink4", "-gpus", "2", "-rates", "2", "-batch-caps", "8", "-serve-requests", "16",
		"-policies", "reserve,disagg", "-prefill-devices", "1,2", "-decode-devices", "1,2",
		"-transfer-gbps", "25", "-format", "csv"}); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]string{
		{"-workload", "serve", "-models", "llama2-13b", "-gpus", "2",
			"-policies", "disagg", "-prefill-devices", "1,2", "-decode-devices", "1"}, // unzippable
		{"-workload", "serve", "-models", "llama2-13b", "-gpus", "2",
			"-policies", "reserve", "-prefill-devices", "1", "-decode-devices", "1"}, // no disagg entry
		{"-workload", "serve", "-models", "llama2-13b", "-gpus", "2",
			"-policies", "reserve", "-transfer-gbps", "25"}, // no disagg entry
		{"-workload", "train", "-models", "gpt-22b", "-gpus", "8", "-transfer-gbps", "25"},
		{"-workload", "infer", "-models", "llama2-13b", "-gpus", "2", "-prefill-devices", "1"},
		{"-workload", "serve", "-models", "llama2-13b", "-gpus", "2",
			"-policies", "disagg", "-prefill-devices", "x", "-decode-devices", "1"},
	} {
		if err := cmdSweep(bad); err == nil {
			t.Errorf("args %v should fail", bad)
		}
	}
}

// TestCmdSweepServeDefaultFlags is the audit companion to the closed-loop
// serve fix: `optimus sweep -workload serve` with every flag defaulted
// must not trip a raw internal error (serving sweeps are Poisson-driven
// with rate 1, so there is no closed-loop clients hole to fall into; an
// indivisible default grid degrades to "no feasible candidates", not an
// error).
func TestCmdSweepServeDefaultFlags(t *testing.T) {
	if err := cmdSweep([]string{"-workload", "serve"}); err != nil {
		t.Fatalf("default serving sweep flags must not error: %v", err)
	}
}

// TestCmdSweepTrace drives the -trace flag end to end through a file.
func TestCmdSweepTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.csv")
	data := "arrival,tenant,prompt,gen\n0,chat,100,40\n0.2,batch,700,60\n0.5,chat,150,30\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdSweep([]string{"-workload", "serve", "-models", "llama2-13b", "-devices", "h100",
		"-intra", "nvlink4", "-gpus", "1", "-trace", path, "-batch-caps", "0,2", "-format", "csv"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdSweep([]string{"-workload", "serve", "-models", "llama2-13b", "-devices", "h100",
		"-intra", "nvlink4", "-gpus", "1", "-trace", path, "-rates", "2"}); err == nil {
		t.Error("-trace with -rates should fail (the trace fixes arrivals)")
	}
}

// TestWriteSweepCSVMixColumns: a mix-grid sweep must render the mix and
// the per-tenant SLO breakdown in the new trailing CSV columns.
func TestWriteSweepCSVMixColumns(t *testing.T) {
	cfg, err := optimus.ModelByName("llama2-13b")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := optimus.NewSystem("h100", 1, "nvlink4", "ndr")
	if err != nil {
		t.Fatal(err)
	}
	mix, err := optimus.ParseServeMix("chat:0.7:200:150,batch:0.3:900:80")
	if err != nil {
		t.Fatal(err)
	}
	res, err := optimus.Sweep(context.Background(), optimus.SweepSpec{
		Workload: optimus.ServingSweep,
		Models:   []optimus.Model{cfg}, Systems: []*optimus.System{sys},
		Rates: []float64{2}, ServeRequests: 24,
		Mixes:       [][]optimus.ServeTenantLoad{mix},
		Constraints: optimus.PlanConstraints{TopK: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("empty mix sweep")
	}
	var b strings.Builder
	if err := writeSweep(&b, res, optimus.ServingSweep, "csv"); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(b.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	header := recs[0]
	col := func(name string) int {
		for i, h := range header {
			if h == name {
				return i
			}
		}
		t.Fatalf("column %q missing from header %v", name, header)
		return -1
	}
	if got := recs[1][col("mix")]; got != optimus.FormatServeMix(mix) {
		t.Errorf("mix column = %q, want %q", got, optimus.FormatServeMix(mix))
	}
	slos := recs[1][col("tenant_slos")]
	for _, want := range []string{"chat:req=", "batch:req=", "e2e_p95="} {
		if !strings.Contains(slos, want) {
			t.Errorf("tenant_slos %q missing %s", slos, want)
		}
	}
	// JSON carries the structured breakdown.
	var jb strings.Builder
	if err := writeSweep(&jb, res, optimus.ServingSweep, "json"); err != nil {
		t.Fatal(err)
	}
	var doc sweepJSON
	if err := json.Unmarshal([]byte(jb.String()), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Rows[0].PerTenant) != 2 {
		t.Errorf("JSON per_tenant should carry both tenants: %+v", doc.Rows[0].PerTenant)
	}
}

func TestWriteSweepJSON(t *testing.T) {
	res := sweepResult(t)
	var b strings.Builder
	if err := writeSweep(&b, res, optimus.TrainingSweep, "json"); err != nil {
		t.Fatal(err)
	}
	var doc sweepJSON
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Rows) != len(res.Rows) {
		t.Fatalf("JSON has %d rows, want %d", len(doc.Rows), len(res.Rows))
	}
	if doc.Stats.Enumerated != res.Stats.Enumerated {
		t.Errorf("JSON stats enumerated %d, want %d", doc.Stats.Enumerated, res.Stats.Enumerated)
	}
	if doc.Rows[0].Rank != 1 || doc.Rows[0].Seconds <= 0 {
		t.Errorf("unexpected first JSON row: %+v", doc.Rows[0])
	}
}

// TestCmdSweepFleetFlags drives the fleet axes end to end through the
// CLI: -replicas/-routings expand cluster candidates, and the flags are
// rejected with flag-level messages when they cannot apply.
func TestCmdSweepFleetFlags(t *testing.T) {
	if err := cmdSweep([]string{"-workload", "serve", "-models", "llama2-13b", "-devices", "h100",
		"-intra", "nvlink4", "-gpus", "1", "-rates", "2", "-batch-caps", "8", "-serve-requests", "16",
		"-replicas", "0,2", "-routings", "round-robin,least-queue", "-format", "csv"}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-workload", "serve", "-models", "llama2-13b", "-gpus", "1",
			"-routings", "least-kv"}, "-replicas"}, // routings without a fleet
		{[]string{"-workload", "serve", "-models", "llama2-13b", "-gpus", "1",
			"-replicas", "0", "-routings", "least-kv"}, "-replicas"}, // no positive fleet size
		{[]string{"-workload", "train", "-models", "gpt-22b", "-gpus", "8",
			"-replicas", "2"}, "-replicas"}, // serving-only axis
		{[]string{"-workload", "infer", "-models", "llama2-13b", "-gpus", "2",
			"-routings", "round-robin"}, "-routings"}, // serving-only axis
		{[]string{"-workload", "serve", "-models", "llama2-13b", "-gpus", "1",
			"-replicas", "two"}, "-replicas"}, // unparseable
		{[]string{"-workload", "serve", "-models", "llama2-13b", "-gpus", "1",
			"-replicas", "2", "-routings", "random"}, "unknown routing"}, // bad policy name
		{[]string{"-workload", "serve", "-models", "llama2-13b", "-gpus", "1",
			"-replicas", "-1"}, "negative fleet size"}, // library floor still reachable
		{[]string{"-workload", "serve", "-models", "llama2-13b", "-gpus", "1",
			"-replicas", "0,5000"}, "-replicas: fleet size 5000 replicas beyond the 4096-replica limit"}, // fails before any fleet is built
	} {
		err := cmdSweep(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("args %v: error should mention %q, got: %v", tc.args, tc.flag, err)
		}
	}
}

// TestCmdSweepFlagErrorsNameFlags pins the serve/sweep rejection parity:
// policy knobs and workload-shape flags no grid candidate would read must
// fail with an error that names the CLI flag, not a library field.
func TestCmdSweepFlagErrorsNameFlags(t *testing.T) {
	base := []string{"-workload", "serve", "-models", "llama2-13b", "-gpus", "1"}
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-page-tokens", "32"}, "-page-tokens"},
		{[]string{"-policies", "reserve", "-page-tokens", "32"}, "-page-tokens"},
		{[]string{"-policies", "reserve,paged", "-prefill-devices", "1", "-decode-devices", "1"}, "-prefill-devices"},
		{[]string{"-policies", "paged", "-decode-devices", "1"}, "-decode-devices"},
		{[]string{"-policies", "reserve", "-transfer-gbps", "25"}, "-transfer-gbps"},
		{[]string{"-trace", "x.csv", "-rates", "2"}, "-rates"},
		{[]string{"-trace", "x.csv", "-seqs", "100"}, "-seqs"},
		{[]string{"-trace", "x.csv", "-gen", "100"}, "-gen"},
		{[]string{"-trace", "x.csv", "-serve-requests", "8"}, "-serve-requests"},
		{[]string{"-trace", "x.csv", "-serve-seed", "2"}, "-serve-seed"},
		{[]string{"-mix", "chat:1:200:200", "-seqs", "100"}, "-seqs"},
		{[]string{"-mix", "chat:1:200:200", "-gen", "100"}, "-gen"},
		{[]string{"-mix", "chat:1:200:200", "-trace", "x.csv"}, "-trace"},
		{[]string{"-prefix", "64"}, "-prefix"},
		{[]string{"-policies", "reserve,disagg", "-prefix", "64"}, "-prefix"},
		{[]string{"-kv-host-gb", "4"}, "-kv-host-gb"},
		{[]string{"-policies", "disagg", "-kv-host-gb", "4"}, "-kv-host-gb"},
		{[]string{"-policies", "paged", "-swap-gbps", "32"}, "-kv-host-gb"},
		{[]string{"-policies", "reserve", "-swap-gbps", "32"}, "-swap-gbps"},
		{[]string{"-policies", "paged", "-mix", "chat:1:200:200", "-prefix", "64"}, "-prefix"},
		{[]string{"-policies", "paged", "-trace", "x.csv", "-prefix", "64"}, "-prefix"},
		{[]string{"-schedules", "0-10:2", "-rates", "3"}, "-schedules"},
		{[]string{"-trace", "x.csv", "-schedules", "0-10:2"}, "-schedules"},
		{[]string{"-trace", "x.csv", "-turns", "3"}, "-turns"},
		{[]string{"-trace", "x.csv", "-think", "1"}, "-think"},
	} {
		err := cmdSweep(append(append([]string{}, base...), tc.args...))
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("args %v: error should name %s, got: %v", tc.args, tc.flag, err)
		}
	}
}

// TestWriteSweepCSVFleetColumns pins the fleet columns: the mapping token
// carries the fleet size and routing, and the replicas/routing columns
// parse back to the candidate's values (empty for single-instance rows).
func TestWriteSweepCSVFleetColumns(t *testing.T) {
	cfg, err := optimus.ModelByName("llama2-13b")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := optimus.NewSystem("h100", 1, "nvlink4", "ndr")
	if err != nil {
		t.Fatal(err)
	}
	res, err := optimus.Sweep(context.Background(), optimus.SweepSpec{
		Workload: optimus.ServingSweep,
		Models:   []optimus.Model{cfg}, Systems: []*optimus.System{sys},
		Rates: []float64{2}, BatchCaps: []int{8}, ServeRequests: 16,
		Replicas:    []int{0, 2},
		Routings:    []optimus.ClusterRouting{optimus.LeastQueueRouting},
		Constraints: optimus.PlanConstraints{TopK: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("expected 2 rows (single + fleet), got %d", len(res.Rows))
	}
	var b strings.Builder
	if err := writeSweep(&b, res, optimus.ServingSweep, "csv"); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "fleet=2xleast-queue") {
		t.Errorf("fleet mapping token missing from CSV:\n%s", out)
	}
	recs, err := csv.NewReader(strings.NewReader(out)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	header := recs[0]
	col := func(name string) int {
		for i, h := range header {
			if h == name {
				return i
			}
		}
		t.Fatalf("column %q missing from header %v", name, header)
		return -1
	}
	byFleet := map[string][]string{}
	for _, rec := range recs[1:] {
		byFleet[rec[col("replicas")]] = rec
	}
	fleet, ok := byFleet["2"]
	if !ok {
		t.Fatalf("no fleet row in CSV: %v", byFleet)
	}
	if fleet[col("routing")] != "least-queue" {
		t.Errorf("fleet routing column = %q, want least-queue", fleet[col("routing")])
	}
	single, ok := byFleet["0"]
	if !ok {
		t.Fatalf("no single-instance row in CSV: %v", byFleet)
	}
	if single[col("routing")] != "" {
		t.Errorf("single-instance routing column should be empty, got %q", single[col("routing")])
	}

	var j strings.Builder
	if err := writeSweep(&j, res, optimus.ServingSweep, "json"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(j.String(), `"replicas": 2`) || !strings.Contains(j.String(), `"routing": "least-queue"`) {
		t.Errorf("JSON output missing fleet columns:\n%s", j.String())
	}
}
