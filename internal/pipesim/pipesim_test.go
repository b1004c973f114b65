package pipesim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSingleStageIsSequential(t *testing.T) {
	res, err := Simulate(Config{
		Stages: 1, Microbatches: 4, Chunks: 1, FwdTime: 2, BwdTime: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 4*(2+4) {
		t.Errorf("single-stage makespan = %g, want 24", res.Total)
	}
	if res.BubbleFraction != 0 {
		t.Errorf("single stage has no bubble, got %g", res.BubbleFraction)
	}
}

// The simulator must reproduce the closed-form 1F1B makespan
// (m + p - 1)(tf + tb) when transfers are free.
// idealTotal is the closed-form 1F1B/GPipe makespan the simulator should
// agree with when transfers are free: (m + p - 1)·(tf + tb) for the
// non-interleaved schedules.
func idealTotal(c Config) float64 {
	slots := float64(c.Microbatches) + float64(c.Stages-1)/float64(max(1, c.Chunks))
	return slots * (c.FwdTime + c.BwdTime)
}

func TestMatchesClosedForm1F1B(t *testing.T) {
	cases := []Config{
		{Stages: 4, Microbatches: 8, Chunks: 1, FwdTime: 1, BwdTime: 2},
		{Stages: 8, Microbatches: 64, Chunks: 1, FwdTime: 3, BwdTime: 6},
		{Stages: 2, Microbatches: 2, Chunks: 1, FwdTime: 5, BwdTime: 10},
		{Stages: 16, Microbatches: 16, Chunks: 1, FwdTime: 1, BwdTime: 2},
	}
	for _, c := range cases {
		res, err := Simulate(c)
		if err != nil {
			t.Fatal(err)
		}
		want := idealTotal(c)
		if math.Abs(res.Total-want)/want > 1e-9 {
			t.Errorf("p=%d m=%d: simulated %g, closed form %g",
				c.Stages, c.Microbatches, res.Total, want)
		}
	}
}

// The simulated bubble must match (p-1)/(m+p-1) for tb = 2tf.
func TestBubbleFractionMatchesFormula(t *testing.T) {
	c := Config{Stages: 8, Microbatches: 64, Chunks: 1, FwdTime: 1, BwdTime: 2}
	res, err := Simulate(c)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(c.Stages-1) / float64(c.Microbatches+c.Stages-1)
	if math.Abs(res.BubbleFraction-want) > 0.01 {
		t.Errorf("bubble fraction = %g, want ≈ %g", res.BubbleFraction, want)
	}
}

func TestTransfersStretchMakespan(t *testing.T) {
	base := Config{Stages: 4, Microbatches: 8, Chunks: 1, FwdTime: 1, BwdTime: 2}
	free, _ := Simulate(base)
	base.XferTime = 0.25
	delayed, err := Simulate(base)
	if err != nil {
		t.Fatal(err)
	}
	if delayed.Total <= free.Total {
		t.Error("transfer delay should stretch the makespan")
	}
	// Without compute/transfer overlap, each steady-state 1F1B cycle
	// absorbs up to one transfer round-trip (the forward hop down plus
	// the gradient hop back), and the fill/drain path adds 2(p-1) hops.
	maxStretch := (2*float64(base.Stages-1) + 2*float64(base.Microbatches)) * base.XferTime
	if got := delayed.Total - free.Total; got > maxStretch+1e-9 {
		t.Errorf("stretch %g exceeds the non-overlapped bound %g", got, maxStretch)
	}
	// This is exactly why real systems overlap p2p with compute — and why
	// internal/train charges only the fill/drain transfers.
}

func TestInterleavingShrinksBubble(t *testing.T) {
	base := Config{Stages: 8, Microbatches: 8, Chunks: 1, FwdTime: 1, BwdTime: 2}
	plain, err := Simulate(base)
	if err != nil {
		t.Fatal(err)
	}
	il := base
	il.Chunks = 2
	il.Interleaved = true
	// Same total work per device: halve the per-chunk times.
	il.FwdTime /= 2
	il.BwdTime /= 2
	inter, err := Simulate(il)
	if err != nil {
		t.Fatal(err)
	}
	if inter.Total >= plain.Total {
		t.Errorf("interleaving should shorten the iteration: %g vs %g", inter.Total, plain.Total)
	}
	if inter.BubbleFraction >= plain.BubbleFraction {
		t.Errorf("interleaving should shrink the bubble: %g vs %g",
			inter.BubbleFraction, plain.BubbleFraction)
	}
}

func TestForwardOnlyPipeline(t *testing.T) {
	// Inference pipelines run forwards only: makespan (m + p - 1)·tf.
	c := Config{Stages: 4, Microbatches: 10, Chunks: 1, FwdTime: 1}
	res, err := Simulate(c)
	if err != nil {
		t.Fatal(err)
	}
	if want := 13.0; math.Abs(res.Total-want) > 1e-9 {
		t.Errorf("forward-only makespan = %g, want %g", res.Total, want)
	}
}

func TestSpansAreConsistent(t *testing.T) {
	c := Config{Stages: 4, Microbatches: 6, Chunks: 1, FwdTime: 1, BwdTime: 2, XferTime: 0.1}
	res, err := Simulate(c)
	if err != nil {
		t.Fatal(err)
	}
	// Expected span count: m forwards + m backwards per stage.
	if want := 4 * 6 * 2; len(res.Spans) != want {
		t.Fatalf("span count = %d, want %d", len(res.Spans), want)
	}
	// No overlap within a stage; dependencies respected across stages.
	lastEnd := make(map[int]float64)
	fwdEnd := make(map[[2]int]float64) // (stage, micro) -> fwd end
	for _, sp := range res.Spans {
		if sp.Start < lastEnd[sp.Stage]-1e-12 {
			t.Errorf("stage %d overlaps at %g", sp.Stage, sp.Start)
		}
		if sp.End-sp.Start <= 0 {
			t.Error("non-positive span")
		}
		lastEnd[sp.Stage] = sp.End
		if !sp.Backward {
			fwdEnd[[2]int{sp.Stage, sp.Micro}] = sp.End
			// Forward on stage s needs stage s-1's forward plus transfer.
			if sp.Stage > 0 {
				dep := fwdEnd[[2]int{sp.Stage - 1, sp.Micro}]
				if dep == 0 || sp.Start < dep+c.XferTime-1e-12 {
					t.Errorf("fwd m%d on stage %d started %g before dep %g",
						sp.Micro, sp.Stage, sp.Start, dep+c.XferTime)
				}
			}
		} else if sp.Start < fwdEnd[[2]int{sp.Stage, sp.Micro}]-1e-12 {
			t.Errorf("bwd m%d on stage %d before its fwd", sp.Micro, sp.Stage)
		}
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{Stages: 0, Microbatches: 1, Chunks: 1},
		{Stages: 1, Microbatches: 0, Chunks: 1},
		{Stages: 1, Microbatches: 1, Chunks: 0},
		{Stages: 1, Microbatches: 1, Chunks: 1, FwdTime: -1},
		{Stages: 2, Microbatches: 2, Chunks: 1, Interleaved: true},
	}
	for i, c := range bad {
		if _, err := Simulate(c); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

// Property: the makespan is at least the work of the busiest stage and at
// most work + full serialization of the fill/drain path.
func TestMakespanBoundsProperty(t *testing.T) {
	f := func(p8, m8 uint8) bool {
		p := int(p8)%8 + 1
		m := int(m8)%16 + 1
		c := Config{Stages: p, Microbatches: m, Chunks: 1, FwdTime: 1, BwdTime: 2}
		res, err := Simulate(c)
		if err != nil {
			return false
		}
		work := float64(m) * (c.FwdTime + c.BwdTime)
		upper := work + float64(p-1)*(c.FwdTime+c.BwdTime) + 1e-9
		return res.Total >= work-1e-9 && res.Total <= upper
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: more microbatches never increase the bubble fraction.
func TestBubbleMonotoneProperty(t *testing.T) {
	f := func(m8 uint8) bool {
		m := int(m8)%32 + 1
		c := Config{Stages: 4, Microbatches: m, Chunks: 1, FwdTime: 1, BwdTime: 2}
		a, err := Simulate(c)
		if err != nil {
			return false
		}
		c.Microbatches = m + 4
		b, err := Simulate(c)
		if err != nil {
			return false
		}
		return b.BubbleFraction <= a.BubbleFraction+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
