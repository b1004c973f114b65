package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"optimus"
	"optimus/internal/memfoot"
)

var update = flag.Bool("update", false, "rewrite testdata/h100-squeezed.json and the golden digests")

// TestSqueezedDevice derives the paged workload's device — an H100 whose
// HBM holds Llama2-13B's TP=2 weight shard plus 48 full 400-token KV
// contexts — and checks the checked-in JSON is exactly that device.
func TestSqueezedDevice(t *testing.T) {
	dev, err := optimus.DeviceByName("h100")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := optimus.ModelByName("llama2-13b")
	if err != nil {
		t.Fatal(err)
	}
	fp := memfoot.Inference(cfg, 2, 1, 400, optimus.FP16.Bytes())
	dev.Name = "H100-SXM-48ctx"
	dev.Mem[len(dev.Mem)-1].Capacity = fp.Weights + 48*fp.KVCache
	var buf bytes.Buffer
	if err := optimus.WriteDeviceJSON(&buf, dev); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", squeezedDeviceFile)
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if !bytes.Equal(buf.Bytes(), squeezedDeviceJSON) {
		t.Fatalf("%s is stale; regenerate it with go test -run TestSqueezedDevice -update", path)
	}
}

// TestGolden checks every workload's cold-run result at seed 1 against its
// golden digest; -update rewrites the digests.
func TestGolden(t *testing.T) {
	if testing.Short() && !*update {
		t.Skip("full-size runs")
	}
	for _, w := range workloads {
		_, first, _, err := setup(w, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		got, err := digest(first)
		if err != nil {
			t.Fatal(err)
		}
		if *update {
			if err := os.WriteFile(filepath.Join("golden", w.name+".sha256"), []byte(got+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := checkGolden(w.name, got); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
}

// TestSmoke runs every workload once at a tiny size with tracing and the
// CLI twin, and checks the gates, the trace file and its span nesting.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			out, err := benchmark(w, options{
				seed: 2, window: time.Millisecond, trace: true, small: true,
				tracedRuns: 2, cliRuns: 1, outDir: dir,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !out.correct() {
				t.Fatalf("gates failed: %v (%d of %d runs failed)", out.problems, out.failed, out.attempted)
			}
			for _, m := range endToEnd {
				if !(out.endToEnd[m.name] > 0) {
					t.Errorf("end-to-end %s = %g, want > 0", m.name, out.endToEnd[m.name])
				}
			}
			for name, v := range out.self {
				if v < 0 {
					t.Errorf("span %s has negative self time %g", name, v)
				}
			}
			checkTraceFile(t, filepath.Join(dir, w.name+".trace.json"))
		})
	}
}

// checkTraceFile parses a written trace and checks that every span lies
// inside its parent.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf, &tf); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	if len(tf.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	const slack = 1e-3 // µs: the file rounds nanoseconds to float microseconds
	for i, ev := range tf.TraceEvents {
		p := ev.Args["parent"]
		if p < 0 {
			continue
		}
		if p >= i {
			t.Fatalf("event %d (%s) names parent %d, not an earlier span", i, ev.Name, p)
		}
		par := tf.TraceEvents[p]
		if ev.TS+slack < par.TS || ev.TS+ev.Dur > par.TS+par.Dur+slack || ev.Args["run"] != par.Args["run"] {
			t.Fatalf("span %s [%g, +%g] lies outside its parent %s [%g, +%g]",
				ev.Name, ev.TS, ev.Dur, par.Name, par.TS, par.Dur)
		}
	}
}

// TestBenchmarkJSON checks that the workloads and metrics this program
// prints are exactly those BENCHMARK.json declares.
func TestBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	for _, c := range []struct {
		kind string
		json []struct{ Name, Unit, Better string }
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", c.kind, len(c.json), len(c.defs))
			continue
		}
		for i, m := range c.json {
			if d := c.defs[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %v, program %v", c.kind, i, m, d)
			}
		}
	}
}
