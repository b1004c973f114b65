package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The benchmark runs on shared hosts whose speed drifts by tens of
// percent over minutes, with every workload slowing together. Two things
// make its host times repeat regardless:
//
//   - The garbage collector is paused while work is measured, and each
//     run is timed together with one forced collection of its own
//     garbage. Otherwise a run pays for whichever pacer-started cycle
//     overlaps it, and how much of that cycle lands on the run depends on
//     whether the host lets the collector's worker have the other core.
//     The volume of garbage is measured on its own (alloc_kb_per_run).
//   - A fixed reference kernel is timed between blocks of runs, in the
//     same process, and every host time is scaled to a nominal host on
//     which that kernel takes nominalRef: a host slowing both the workload
//     and the kernel cancels out. The raw times are reported beside the
//     scaled ones.
const nominalRef = 3.5e-3 // seconds

// quantile returns the nearest-rank q-quantile of vals (sorted in place).
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	i := int(math.Ceil(q*float64(len(vals)))) - 1
	if i < 0 {
		i = 0
	}
	return vals[i]
}

// median is the nearest-rank median of a copy of vals.
func median(vals []float64) float64 {
	return quantile(append([]float64(nil), vals...), 0.5)
}

func mean(vals []float64) float64 {
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// heapCounter reads the runtime's cumulative heap-allocation counter and
// the bytes its heap objects occupy, live or not yet collected. Reading
// them neither stops the world nor allocates, so it can bracket every
// timed run.
type heapCounter struct{ sample []metrics.Sample }

func newHeapCounter() heapCounter {
	return heapCounter{sample: []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/memory/classes/heap/objects:bytes"},
	}}
}

func (h heapCounter) read() (allocs, objects uint64) {
	metrics.Read(h.sample)
	return h.sample[0].Value.Uint64(), h.sample[1].Value.Uint64()
}

// rusage reads this process's resource usage.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return ru
}

// cpuSeconds is the CPU time this process has used, every thread and the
// garbage collector included.
func cpuSeconds() float64 {
	ru := rusage()
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// maxRSSMiB is the peak resident set of this process.
func maxRSSMiB() float64 {
	return float64(rusage().Maxrss) / 1024 // Linux reports KiB
}

// timed runs f and collects its garbage, and returns the wall and CPU
// seconds both took.
func timed(f func()) (wall, cpu float64) {
	c0, t0 := cpuSeconds(), time.Now()
	f()
	runtime.GC()
	return time.Since(t0).Seconds(), cpuSeconds() - c0
}

// refSink keeps the reference kernel's result live.
var refSink float64

// reference is the fixed CPU workload host times are scaled by. It never
// changes with the code under test: sorting, string-keyed map updates,
// small allocations and float arithmetic, the mix the simulator and the
// sweep engine spend their time in.
func reference() {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1<<15)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	sort.Float64s(xs)
	m := make(map[string]float64, 2048)
	for i := 0; i < 4096; i++ {
		m[strconv.Itoa(i*7919)] += math.Sqrt(xs[i])
	}
	refSink += float64(len(m)) + xs[len(xs)/2]
}

// refTimes times n reference runs and returns their wall and CPU seconds.
func refTimes(n int) (wall, cpu []float64) {
	for i := 0; i < n; i++ {
		w, c := timed(reference)
		wall, cpu = append(wall, w), append(cpu, c)
	}
	return wall, cpu
}

// window is what one timed window measured.
type window struct {
	// runs and cpu hold every run's wall and process CPU seconds.
	runs, cpu []float64
	// refWall and refCPU hold the reference kernel's times.
	refWall, refCPU []float64
	// failed counts runs that errored or whose result differed from the
	// first run's.
	failed int
	// allocBytes sums the heap bytes the runs allocated.
	allocBytes uint64
	// heapBytes holds every run's heap object bytes as it returned, before
	// its garbage was collected: the live data plus the run's garbage.
	heapBytes []float64
}

// scale converts host seconds to seconds on the nominal host, by the
// reference kernel's mean time on this one. Interference arrives in
// scheduler-slice-sized chunks (a 3.5 ms kernel run takes either 3.5 or
// about 7.5 ms), so a median flips with the share of runs it hits while
// a mean grows with the stolen share of time, exactly as the mean run
// time does: the mean-to-mean ratio cancels it.
func scale(ref []float64) float64 { return nominalRef / mean(ref) }

// Each block of runs lasts blockDur and is followed by refPerBlock
// reference runs, about 5% of the window: often enough to follow the
// host's speed as it drifts, short enough to leave the window to the
// workload.
const (
	blockDur    = 500 * time.Millisecond
	refPerBlock = 7
)

// measure runs j back to back from this goroutine for d, closed loop, and
// checks every result against want. The collector must be paused.
func measure(j job, want any, d time.Duration) window {
	var w window
	heap := newHeapCounter()
	start := time.Now()
	for len(w.runs) == 0 || time.Since(start) < d {
		block := time.Now()
		for time.Since(block) < blockDur {
			var res any
			var err error
			var held uint64
			a0, _ := heap.read()
			wall, cpu := timed(func() {
				res, err = j.run()
				_, held = heap.read()
			})
			a1, _ := heap.read()
			w.allocBytes += a1 - a0
			w.heapBytes = append(w.heapBytes, float64(held))
			w.runs, w.cpu = append(w.runs, wall), append(w.cpu, cpu)
			if err != nil || !reflect.DeepEqual(res, want) {
				w.failed++
			}
		}
		rw, rc := refTimes(refPerBlock)
		w.refWall, w.refCPU = append(w.refWall, rw...), append(w.refCPU, rc...)
	}
	return w
}

// setupSample is one process's set-up time and the reference kernel's
// mean time measured right after it in the same process.
type setupSample struct{ setup, ref float64 }

// nominal is the set-up time on the nominal host.
func (s setupSample) nominal() float64 { return s.setup * nominalRef / s.ref }

// setupChildren times n fresh processes of this executable, each building
// the workload's inputs, doing one cold run and then timing the reference
// kernel.
func setupChildren(name string, seed int64, n int) ([]setupSample, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	out := make([]setupSample, 0, n)
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "-setup-only", "-workload", name, "-seed", strconv.FormatInt(seed, 10))
		cmd.Stderr = os.Stderr
		buf, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("setup child: %w", err)
		}
		var s setupSample
		if _, err := fmt.Sscan(strings.TrimSpace(string(buf)), &s.setup, &s.ref); err != nil {
			return nil, fmt.Errorf("setup child: %w", err)
		}
		out = append(out, s)
	}
	return out, nil
}
