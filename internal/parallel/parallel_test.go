package parallel

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDevices(t *testing.T) {
	m := Mapping{DP: 15, TP: 8, PP: 16, Microbatch: 1}
	if m.Devices() != 1920 {
		t.Errorf("devices = %d, want 1920 (Table 1 GPT-310B row)", m.Devices())
	}
}

// TestValidate: Validate and Valid read one rule. A valid mapping passes
// both; each broken rule fails both, and Validate's message names it.
func TestValidate(t *testing.T) {
	good := Mapping{DP: 1, TP: 8, PP: 8, Microbatch: 1}
	if err := good.Validate(96, 64); err != nil || !good.Valid(96, 64) {
		t.Errorf("valid mapping rejected: %v", err)
	}
	cases := []struct {
		name   string
		m      Mapping
		layers int
		batch  int
		msg    string
	}{
		{"zero degree", Mapping{DP: 0, TP: 8, PP: 8, Microbatch: 1}, 96, 64, "parallel: non-positive degrees 0-8-8"},
		{"zero microbatch", Mapping{DP: 1, TP: 8, PP: 8}, 96, 64, "parallel: non-positive microbatch 0"},
		{"layers not divisible", Mapping{DP: 1, TP: 8, PP: 7, Microbatch: 1}, 96, 64, "parallel: 96 layers not divisible into 7 pipeline chunks"},
		{"batch not divisible", Mapping{DP: 3, TP: 8, PP: 8, Microbatch: 1}, 96, 64, "parallel: batch 64 not divisible by DP 3 x microbatch 1"},
		{"chunks not divisible", Mapping{DP: 1, TP: 8, PP: 8, Microbatch: 1, Schedule: Interleaved1F1B, VirtualStages: 5}, 96, 64, "parallel: 96 layers not divisible into 40 pipeline chunks"},
	}
	for _, c := range cases {
		err := c.m.Validate(c.layers, c.batch)
		if err == nil || err.Error() != c.msg {
			t.Errorf("%s: Validate = %v, want %q", c.name, err, c.msg)
		}
		if c.m.Valid(c.layers, c.batch) {
			t.Errorf("%s: Valid accepts a mapping Validate rejects", c.name)
		}
	}
	if n := testing.AllocsPerRun(10, func() { good.Valid(96, 64); Mapping{DP: 3, TP: 8, PP: 8, Microbatch: 1}.Valid(96, 64) }); n != 0 {
		t.Errorf("Valid allocates %v times", n)
	}
}

func TestMicrobatches(t *testing.T) {
	m := Mapping{DP: 15, TP: 8, PP: 16, Microbatch: 1}
	if got := m.Microbatches(2160); got != 144 {
		t.Errorf("microbatches = %d, want 144", got)
	}
}

func TestBubbleSlots(t *testing.T) {
	noPP := Mapping{DP: 1, TP: 8, PP: 1, Microbatch: 1}
	if noPP.BubbleSlots() != 0 {
		t.Error("no pipeline, no bubble")
	}
	pp := Mapping{DP: 1, TP: 8, PP: 8, Microbatch: 1, Schedule: OneFOneB}
	if pp.BubbleSlots() != 7 {
		t.Errorf("1F1B bubble = %g slots, want 7", pp.BubbleSlots())
	}
	gp := pp
	gp.Schedule = GPipe
	if gp.BubbleSlots() != 7 {
		t.Errorf("GPipe bubble = %g slots, want 7", gp.BubbleSlots())
	}
	il := Mapping{DP: 1, TP: 8, PP: 8, Microbatch: 1, Schedule: Interleaved1F1B, VirtualStages: 4}
	if il.BubbleSlots() != 7.0/4 {
		t.Errorf("interleaved bubble = %g slots, want 7/4", il.BubbleSlots())
	}
}

func TestBubbleFraction(t *testing.T) {
	m := Mapping{DP: 1, TP: 8, PP: 8, Microbatch: 1, Schedule: OneFOneB}
	// 64 microbatches: bubble fraction = 7/71 ≈ 9.9% (the 175B row).
	got := m.BubbleFraction(64)
	if math.Abs(got-7.0/71) > 1e-12 {
		t.Errorf("bubble fraction = %g, want 7/71", got)
	}
}

func TestInFlight(t *testing.T) {
	base := Mapping{DP: 1, TP: 8, PP: 8, Microbatch: 1}

	g := base
	g.Schedule = GPipe
	if got := g.InFlight(64); got != 64 {
		t.Errorf("GPipe in-flight = %g, want all 64 microbatches", got)
	}

	f := base
	f.Schedule = OneFOneB
	if got := f.InFlight(64); got != 8 {
		t.Errorf("1F1B in-flight = %g, want p=8", got)
	}
	if got := f.InFlight(4); got != 4 {
		t.Errorf("1F1B with few microbatches in-flight = %g, want 4", got)
	}

	i := base
	i.Schedule = Interleaved1F1B
	i.VirtualStages = 4
	// p(1 + (p-1)/(p·v)) = 8(1 + 7/32) = 9.75.
	if got := i.InFlight(64); math.Abs(got-9.75) > 1e-12 {
		t.Errorf("interleaved in-flight = %g, want 9.75", got)
	}

	single := Mapping{DP: 1, TP: 8, PP: 1, Microbatch: 4}
	if got := single.InFlight(1); got != 1 {
		t.Errorf("single stage in-flight = %g, want 1", got)
	}
}

func TestP2PTransfers(t *testing.T) {
	m := Mapping{DP: 1, TP: 8, PP: 8, Microbatch: 1, Schedule: OneFOneB}
	if got := m.P2PTransfersPerMicrobatch(); got != 7 {
		t.Errorf("p2p transfers = %d, want 7", got)
	}
	il := m
	il.Schedule = Interleaved1F1B
	il.VirtualStages = 2
	if got := il.P2PTransfersPerMicrobatch(); got != 14 {
		t.Errorf("interleaved p2p transfers = %d, want 14 (more communication)", got)
	}
	none := Mapping{DP: 8, TP: 8, PP: 1, Microbatch: 1}
	if none.P2PTransfersPerMicrobatch() != 0 {
		t.Error("no pipeline, no p2p")
	}
}

func TestStringNotation(t *testing.T) {
	m := Mapping{DP: 1, TP: 8, PP: 8, SP: true, Microbatch: 1, Schedule: OneFOneB}
	if got := m.String(); got != "1-8-8-8 (1f1b)" {
		t.Errorf("String = %q", got)
	}
	m.SP = false
	m.PP = 1
	if got := m.String(); got != "1-8-1-1" {
		t.Errorf("String = %q", got)
	}
}

func TestScheduleString(t *testing.T) {
	if GPipe.String() != "gpipe" || OneFOneB.String() != "1f1b" || Interleaved1F1B.String() != "interleaved-1f1b" {
		t.Error("schedule names wrong")
	}
}

// Property: interleaving never increases the bubble and never decreases
// communication.
func TestInterleavingTradeoffProperty(t *testing.T) {
	f := func(p8, v4 uint8) bool {
		p := int(p8)%8 + 2
		v := int(v4)%4 + 2
		base := Mapping{DP: 1, TP: 1, PP: p, Microbatch: 1, Schedule: OneFOneB}
		il := Mapping{DP: 1, TP: 1, PP: p, Microbatch: 1, Schedule: Interleaved1F1B, VirtualStages: v}
		return il.BubbleSlots() <= base.BubbleSlots() &&
			il.P2PTransfersPerMicrobatch() >= base.P2PTransfersPerMicrobatch()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: bubble fraction decreases monotonically with more microbatches.
func TestBubbleFractionMonotoneProperty(t *testing.T) {
	m := Mapping{DP: 1, TP: 8, PP: 8, Microbatch: 1, Schedule: OneFOneB}
	f := func(n uint8) bool {
		nm := int(n)%100 + 1
		return m.BubbleFraction(nm+1) < m.BubbleFraction(nm)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
