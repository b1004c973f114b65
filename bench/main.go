// Command bench is the optimus benchmark: it runs named simulator and
// sweep workloads through the public optimus API, times a closed-loop
// window of identical runs, checks every result, and prints each metric
// by name with its unit. A JSON summary is the last line of its output.
//
// Build and run it from the repository root with bench/run.sh, which
// passes its arguments through:
//
//	bash bench/run.sh -workload all -seed 1
//	bash bench/run.sh -workload serve-paged-bursty -seed 3 -seconds 15 -trace 1
//
// -trace 1 adds 20 traced runs split into layer calls, reports the
// per-layer metrics instead of the end-to-end ones, and writes the spans
// to bench/out/<workload>.trace.json in Chrome trace-event format.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"embed"

	"optimus/internal/arch"
	"optimus/internal/infer"
	"optimus/internal/repro"
	"optimus/internal/tech"
	"optimus/internal/train"
	"optimus/internal/units"
	"optimus/internal/valdata"
)

// goldenDigests holds each workload's result digest at seed 1.
//
//go:embed golden
var goldenDigests embed.FS

// metricDef names one reported metric.
type metricDef struct{ name, unit, better string }

// endToEnd are the metrics a user of optimus sees, measured with tracing
// off and host times scaled to the nominal host (see nominalRef);
// BENCHMARK.json lists the same set.
var endToEnd = []metricDef{
	{"work_per_s", "1/s", "higher"},
	{"cpu_ms_per_run", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"alloc_kb_per_run", "KiB", "lower"},
	{"peak_heap_mb", "MiB", "lower"},
}

// alsoReported are printed with the end-to-end metrics but not gated:
// too noisy on a shared host to bound a regression, or raw host times
// shown for reference.
var alsoReported = []metricDef{
	{"run_ms_p50", "ms", "lower"},
	{"run_ms_p99", "ms", "lower"},
	{"host_work_per_s", "1/s", "higher"},
	{"host_run_ms_p50", "ms", "lower"},
	{"host_setup_s", "s", "lower"},
	{"host_reference_ms", "ms", "lower"},
	{"max_rss_mb", "MiB", "lower"},
	{"runs", "count", "higher"},
	{"failed_frac", "ratio", "lower"},
	{"setup_samples", "count", "higher"},
}

// perLayer are the traced run's metrics, each the median over the traced
// runs; BENCHMARK.json lists the same set. A layer a workload does not
// pass through reports 0.
var perLayer = []metricDef{
	{"workload.generate_ms", "ms", "lower"},
	{"workload.requests", "count", "higher"},
	{"infer.stepcoster_us", "us", "lower"},
	{"infer.prefill_ns", "ns", "lower"},
	{"infer.decode_ns", "ns", "lower"},
	{"roofline.gemm_ns", "ns", "lower"},
	{"memfoot.inference_ns", "ns", "lower"},
	{"train.predict_us", "us", "lower"},
	{"memfoot.train_ns", "ns", "lower"},
	{"valdata.model_err_pct", "%", "lower"},
	{"serve.instance_ms", "ms", "lower"},
	{"serve.advance_ms", "ms", "lower"},
	{"serve.push_ms", "ms", "lower"},
	{"serve.result_ms", "ms", "lower"},
	{"serve.ns_per_iter", "ns", "lower"},
	{"serve.idle_frac", "ratio", "lower"},
	{"serve.iterations", "count", "lower"},
	{"serve.mean_batch", "count", "higher"},
	{"serve.kv_util", "ratio", "higher"},
	{"serve.preemptions", "count", "lower"},
	{"serve.recompute_frac", "ratio", "lower"},
	{"serve.prefix_hits", "count", "higher"},
	{"serve.prefix_hit_frac", "ratio", "higher"},
	{"serve.swap_outs", "count", "lower"},
	{"serve.swap_in_frac", "ratio", "higher"},
	{"serve.kv_transfers", "count", "lower"},
	{"serve.queue_p95_s", "s", "lower"},
	{"cluster.run_ms", "ms", "lower"},
	{"cluster.replay_ms", "ms", "lower"},
	{"cluster.parallel_speedup", "x", "higher"},
	{"cluster.imbalance", "ratio", "lower"},
	{"cluster.replay_match", "count", "higher"},
	{"sweep.enumerate_ms", "ms", "lower"},
	{"sweep.key_us", "us", "lower"},
	{"sweep.feasible_us", "us", "lower"},
	{"sweep.evaluate_us", "us", "lower"},
	{"sweep.engine_ms", "ms", "lower"},
	{"sweep.prune_frac", "ratio", "higher"},
	{"sweep.memo_hit_frac", "ratio", "higher"},
	{"sweep.prune_speedup", "x", "higher"},
	{"sweep.parallel_speedup", "x", "higher"},
	{"sweep.cache_load_ms", "ms", "lower"},
	{"sweep.cache_save_ms", "ms", "lower"},
	{"sweep.cache_kb", "KiB", "lower"},
	{"cli.invoke_ms", "ms", "lower"},
	{"cli.overhead_ms", "ms", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

// setupRefRuns is how many reference runs follow each set-up sample, to
// scale it by its own process's host speed.
const setupRefRuns = 10

// options fix how one workload is benchmarked.
type options struct {
	seed   int64
	window time.Duration
	trace  bool
	// small shrinks every workload for the smoke test.
	small bool
	// setupChildren is how many extra fresh processes time set-up.
	setupChildren int
	// tracedRuns and cliRuns count the traced runs and CLI twin calls.
	tracedRuns, cliRuns int
	outDir              string
}

// outcome is everything one workload's benchmark measured and checked.
type outcome struct {
	name                    string
	attempted, failed, runs int
	seconds                 float64
	endToEnd, extra, layers map[string]float64
	self                    map[string]float64
	problems                []string
	digest                  string
}

func (o *outcome) gate(what string, err error) {
	if err != nil {
		o.problems = append(o.problems, fmt.Sprintf("%s: %v", what, err))
	}
}

func (o *outcome) correct() bool { return len(o.problems) == 0 && o.failed == 0 }

// digest is the SHA-256 of a result's JSON encoding.
func digest(res any) (string, error) {
	buf, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:]), nil
}

func checkGolden(name, got string) error {
	want, err := goldenDigests.ReadFile("golden/" + name + ".sha256")
	if err != nil {
		return err
	}
	if w := strings.TrimSpace(string(want)); w != got {
		return fmt.Errorf("result digest %s, golden %s", got, w)
	}
	return nil
}

// setup builds a workload's inputs and does its first, cold run, and
// returns the seconds both took with the collection of their garbage.
func setup(w workloadDef, seed int64, small bool) (j job, first any, sec float64, err error) {
	sec, _ = timed(func() {
		if j, err = w.build(seed, small); err != nil {
			err = fmt.Errorf("%s: build: %w", w.name, err)
			return
		}
		if first, err = j.run(); err != nil {
			err = fmt.Errorf("%s: cold run: %w", w.name, err)
		}
	})
	return j, first, sec, err
}

// benchmark measures one workload. An error means the workload could not
// be set up; failed runs and gates are recorded in the outcome.
func benchmark(w workloadDef, o options) (*outcome, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	j, first, setupSec, err := setup(w, o.seed, o.small)
	if err != nil {
		return nil, err
	}
	out := &outcome{name: w.name}
	out.gate("conservation", j.check(first))
	if out.digest, err = digest(first); err != nil {
		out.gate("digest", err)
	} else if o.seed == 1 && !o.small {
		out.gate("golden digest", checkGolden(w.name, out.digest))
	}
	ref, _ := refTimes(setupRefRuns)
	setups := []setupSample{{setupSec, mean(ref)}}
	if o.setupChildren > 0 {
		more, cerr := setupChildren(w.name, o.seed, o.setupChildren)
		if cerr != nil {
			return nil, cerr
		}
		setups = append(setups, more...)
	}
	var setupRaw, setupNominal []float64
	for _, s := range setups {
		setupRaw = append(setupRaw, s.setup)
		setupNominal = append(setupNominal, s.nominal())
	}

	win := measure(j, first, o.window)
	out.runs, out.attempted, out.failed = len(win.runs), len(win.runs), win.failed
	for _, r := range win.runs {
		out.seconds += r
	}
	sWall, sCPU := scale(win.refWall), scale(win.refCPU)
	q := func(v []float64, p float64) float64 { return quantile(append([]float64(nil), v...), p) }
	p50 := q(win.runs, 0.5)
	out.endToEnd = map[string]float64{
		"work_per_s":       float64(j.units()) / (mean(win.runs) * sWall),
		"cpu_ms_per_run":   mean(win.cpu) * sCPU * 1e3,
		"setup_s":          median(setupNominal),
		"alloc_kb_per_run": float64(win.allocBytes) / 1024 / float64(len(win.runs)),
		"peak_heap_mb":     median(win.heapBytes) / (1 << 20),
	}
	out.extra = map[string]float64{
		"run_ms_p50":        p50 * sWall * 1e3,
		"run_ms_p99":        q(win.runs, 0.99) * sWall * 1e3,
		"host_work_per_s":   float64(j.units()) / mean(win.runs),
		"host_run_ms_p50":   p50 * 1e3,
		"host_setup_s":      median(setupRaw),
		"host_reference_ms": mean(win.refWall) * 1e3,
		"max_rss_mb":        maxRSSMiB(),
		"runs":              float64(len(win.runs)),
		"failed_frac":       float64(win.failed) / float64(len(win.runs)),
		"setup_samples":     float64(len(setups)),
	}
	if !o.trace {
		return out, nil
	}

	tr := newTracer()
	var perRun []layerValues
	for r := 0; r < o.tracedRuns; r++ {
		tr.run = r
		lv := layerValues{}
		runtime.GC() // start from a clean heap, as every window run does
		tr.begin("run")
		res, terr := j.traced(tr, lv)
		tr.end()
		out.attempted++
		if terr == nil && !reflect.DeepEqual(res, first) {
			terr = errors.New("traced result differs from the untraced one")
		}
		if terr != nil {
			out.failed++
			out.gate(fmt.Sprintf("traced run %d", r), terr)
		}
		lv["trace.overhead_frac"] = tr.total(r, "unit")/p50 - 1
		perRun = append(perRun, lv)
	}
	out.gate("trace file", tr.write(filepath.Join(o.outDir, w.name+".trace.json")))
	out.layers = make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		vals := make([]float64, len(perRun))
		for i, lv := range perRun {
			vals[i] = lv[m.name]
		}
		out.layers[m.name] = median(vals)
	}
	out.self = tr.selfTimes(o.tracedRuns)
	modelErr, err := modelErrPct()
	out.gate("model error", err)
	out.layers["valdata.model_err_pct"] = modelErr
	if o.cliRuns > 0 {
		invoke, err := cliInvoke(j, o.cliRuns)
		out.gate("cli twin", err)
		out.layers["cli.invoke_ms"] = invoke
		out.layers["cli.overhead_ms"] = invoke - p50*1e3
	}
	return out, nil
}

// modelErrPct is the analytic model's mean absolute relative error, in
// percent, against the published data the paper validates on: Table 1
// training times and Table 2 inference latencies on A100 and H100.
func modelErrPct() (float64, error) {
	var errs []float64
	for _, c := range valdata.Table1() {
		spec, err := repro.TrainSpecFor(c)
		if err != nil {
			return 0, err
		}
		res, err := train.Predict(spec)
		if err != nil {
			return 0, err
		}
		errs = append(errs, units.RelErr(res.Total, c.RefSeconds))
	}
	for _, c := range valdata.Table2() {
		for _, d := range []struct {
			dev   arch.Device
			nv    tech.NetworkTech
			refMs float64
		}{{arch.A100(), tech.NVLink3, c.RefA100Ms}, {arch.H100(), tech.NVLink4, c.RefH100Ms}} {
			spec, err := repro.InferSpecFor(c.Model, c.GPUs, d.dev, d.nv)
			if err != nil {
				return 0, err
			}
			res, err := infer.Predict(spec)
			if err != nil {
				return 0, err
			}
			errs = append(errs, units.RelErr(res.Total*1e3, d.refMs))
		}
	}
	return 100 * units.Mean(errs), nil
}

// cliInvoke builds cmd/optimus into a temporary directory and times runs
// of it on the workload's twin, text output; the build is not timed.
func cliInvoke(j job, runs int) (float64, error) {
	dir, err := os.MkdirTemp("", "optimus-bench-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	bin := filepath.Join(dir, "optimus")
	build := exec.Command("go", "build", "-o", bin, "optimus/cmd/optimus")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return 0, fmt.Errorf("build cmd/optimus: %w", err)
	}
	var times []float64
	for i := 0; i < runs; i++ {
		args, err := j.twin(dir)
		if err != nil {
			return 0, err
		}
		cmd := exec.Command(bin, args...)
		cmd.Stderr = os.Stderr
		t0 := time.Now()
		err = cmd.Run()
		times = append(times, time.Since(t0).Seconds()*1e3)
		if err != nil {
			return 0, fmt.Errorf("optimus %s: %w", strings.Join(args, " "), err)
		}
	}
	return median(times), nil
}

// summary is the JSON object the benchmark prints last.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the outcome: every metric by name with its unit, then the
// JSON summary line with the end-to-end (untraced) or per-layer (traced)
// metrics.
func report(o *outcome, trace bool) summary {
	fmt.Printf("workload %s: %d runs in %.1f s, %d of %d attempted failed\n",
		o.name, o.runs, o.seconds, o.failed, o.attempted)
	s := summary{Correct: o.correct(), Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	defs, vals := endToEnd, o.endToEnd
	if trace {
		defs, vals = perLayer, o.layers
	}
	fmt.Println("  end-to-end (untraced window)")
	for _, m := range endToEnd {
		fmt.Printf("    %-26s %16.6g %s\n", m.name, o.endToEnd[m.name], m.unit)
	}
	fmt.Println("  also measured (not gated; host_* are unscaled)")
	for _, m := range alsoReported {
		fmt.Printf("    %-26s %16.6g %s\n", m.name, o.extra[m.name], m.unit)
	}
	if trace {
		fmt.Println("  per-layer (median of traced runs)")
		for _, m := range perLayer {
			fmt.Printf("    %-26s %16.6g %s\n", m.name, o.layers[m.name], m.unit)
		}
		fmt.Println("  self time by span (median ms per traced run)")
		names := make([]string, 0, len(o.self))
		//lint:deterministic collected names are sorted
		for n := range o.self {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("    %-26s %16.6g ms\n", n, o.self[n]*1e3)
		}
	}
	for _, m := range defs {
		v := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			o.gate(m.name, fmt.Errorf("not finite: %g", v))
			v = 0
		}
		s.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	s.Correct = o.correct()
	fmt.Printf("  result digest %s\n", o.digest)
	for _, p := range o.problems {
		fmt.Printf("  FAIL %s\n", p)
	}
	return s
}

func main() {
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "seed the workload inputs are made from")
	seconds := flag.Int("seconds", 15, "timed window per workload in seconds, 1 to 29")
	traceFlag := flag.Int("trace", 0, "1 adds the traced runs and reports the per-layer metrics")
	setupOnly := flag.Bool("setup-only", false, "print the set-up time alone (the benchmark's own child processes)")
	flag.Parse()
	if *seconds < 1 || *seconds >= 30 || (*traceFlag != 0 && *traceFlag != 1) || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}

	if *name == "all" {
		os.Exit(runAll(*seed, *seconds, *traceFlag))
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *setupOnly {
		// Set up exactly as benchmark does, with the collector paused.
		debug.SetGCPercent(-1)
		_, _, sec, err := setup(w, *seed, false)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		ref, _ := refTimes(setupRefRuns)
		fmt.Println(strconv.FormatFloat(sec, 'g', -1, 64), strconv.FormatFloat(mean(ref), 'g', -1, 64))
		return
	}

	fmt.Printf("optimus bench: %s, GOMAXPROCS %d, %d CPUs, %s/%s, %s, cpu %q\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.GOOS, runtime.GOARCH,
		time.Now().UTC().Format(time.RFC3339), cpuModel())
	out, err := benchmark(w, options{
		seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *traceFlag == 1,
		setupChildren: 14, tracedRuns: 20, cliRuns: 3, outDir: filepath.Join("bench", "out"),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	s := report(out, *traceFlag == 1)
	line, err := json.Marshal(s)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !s.Correct {
		os.Exit(1)
	}
}

// runAll runs every workload in its own fresh process, one at a time, and
// returns the exit code: non-zero if any workload failed.
func runAll(seed int64, seconds, trace int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// cpuModel names the host CPU for the report's provenance line.
func cpuModel() string {
	buf, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
