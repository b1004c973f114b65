package model

import (
	"testing"
	"testing/quick"
)

// The zoo must hit the advertised parameter counts — these anchor every
// memory-footprint and communication-volume prediction downstream.
func TestPresetParamCounts(t *testing.T) {
	cases := []struct {
		cfg     Config
		want    float64 // parameters
		withinB float64 // tolerance in billions
	}{
		{GPT7B(), 7e9, 0.6},
		{GPT22B(), 22e9, 1.0},
		{GPT175B(), 175e9, 4.0},
		{gpt310B(), 310e9, 6.0},
		{gpt530B(), 530e9, 10.0},
		{gpt1008B(), 1008e9, 16.0},
		{Llama2_7B(), 6.74e9, 0.2},
		{Llama2_13B(), 13.0e9, 0.3},
		{Llama2_70B(), 69e9, 1.5},
		{gpt1_7B(), 1.7e9, 0.2},
		{gpt3_6B(), 3.6e9, 0.4},
		{gpt18B(), 18.4e9, 1.0},
		{gpt39B(), 39.1e9, 2.0},
		{gpt76B(), 76.1e9, 3.0},
		{gpt145B(), 145.6e9, 5.0},
	}
	for _, c := range cases {
		got := c.cfg.Params()
		if diff := got - c.want; diff > c.withinB*1e9 || diff < -c.withinB*1e9 {
			t.Errorf("%s params = %.2fB, want %.2fB ± %.1fB", c.cfg.Name, got/1e9, c.want/1e9, c.withinB)
		}
	}
}

func TestPresetsValidate(t *testing.T) {
	for _, c := range All() {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{Name: "zero-layers", Hidden: 64, Heads: 8, KVHeads: 8, FFN: 256, Vocab: 100},
		{Name: "indivisible-heads", Layers: 2, Hidden: 65, Heads: 8, KVHeads: 8, FFN: 256, Vocab: 100},
		{Name: "bad-kv", Layers: 2, Hidden: 64, Heads: 8, KVHeads: 3, FFN: 256, Vocab: 100},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%s should fail validation", c.Name)
		}
	}
}

func TestHeadDims(t *testing.T) {
	c := Llama2_70B()
	if c.HeadDim() != 128 {
		t.Errorf("70B head dim = %d, want 128", c.HeadDim())
	}
	// GQA: 8 KV heads × 128 = 1024-wide KV projections.
	if c.KVDim() != 1024 {
		t.Errorf("70B KV dim = %d, want 1024", c.KVDim())
	}
	full := Llama2_13B()
	if full.KVDim() != full.Hidden {
		t.Errorf("13B KV dim = %d, want hidden %d", full.KVDim(), full.Hidden)
	}
}

func TestKVCacheBytesPaperFormula(t *testing.T) {
	// §3.5: 2 × batch × context × precision × layers × embedding dim.
	c := Llama2_13B()
	got := c.KVCacheBytes(1, 400, 2)
	want := 2.0 * 1 * 400 * 2 * 40 * 5120
	if got != want {
		t.Errorf("KV cache = %g, want %g", got, want)
	}
	// GQA shrinks the cache by heads/kvheads.
	g := Llama2_70B()
	gotGQA := g.KVCacheBytes(1, 400, 2)
	wantGQA := 2.0 * 1 * 400 * 2 * 80 * 1024
	if gotGQA != wantGQA {
		t.Errorf("GQA KV cache = %g, want %g", gotGQA, wantGQA)
	}
}

func TestGPTvsLlamaStructure(t *testing.T) {
	g := GPT175B()
	if g.MLP != MLPGELU || !g.TiedEmbeddings || !g.LearnedPositions {
		t.Error("GPT presets must be GELU/tied/learned-positions")
	}
	if g.FFN != 4*g.Hidden {
		t.Errorf("GPT FFN = %d, want 4h", g.FFN)
	}
	l := Llama2_7B()
	if l.MLP != MLPSwiGLU || l.TiedEmbeddings || l.LearnedPositions {
		t.Error("Llama presets must be SwiGLU/untied/RoPE")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"GPT-175B", "gpt175b", "Llama2-13B", "llama2_13b"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("gpt-9000b"); err == nil {
		t.Error("unknown model should error")
	}
}

func TestMLPKindString(t *testing.T) {
	if MLPGELU.String() != "gelu" || MLPSwiGLU.String() != "swiglu" {
		t.Error("MLPKind names wrong")
	}
}

func TestLayerParamsComposition(t *testing.T) {
	c := GPT175B()
	sum := c.AttnParams() + c.MLPParams() + c.NormParams()
	if c.LayerParams() != sum {
		t.Error("LayerParams must equal the sum of its parts")
	}
	// GPT attention is 4h² + biases.
	h := float64(c.Hidden)
	if c.AttnParams() < 4*h*h || c.AttnParams() > 4*h*h+8*h {
		t.Errorf("GPT attention params = %g, want ≈ 4h²", c.AttnParams())
	}
}

// Property: KV cache scales linearly in batch and context.
func TestKVCacheLinearityProperty(t *testing.T) {
	c := Llama2_13B()
	f := func(b, ctx uint8) bool {
		batch, context := int(b)+1, int(ctx)+1
		base := c.KVCacheBytes(batch, context, 2)
		return c.KVCacheBytes(2*batch, context, 2) == 2*base &&
			c.KVCacheBytes(batch, 2*context, 2) == 2*base
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: parameter count is monotone in every structural dimension.
func TestParamsMonotoneProperty(t *testing.T) {
	f := func(l, h8, a uint8) bool {
		layers := int(l)%32 + 1
		heads := int(a)%16 + 1
		hidden := heads * (int(h8)%64 + 1) * 8
		c := gpt("prop", layers, hidden, heads)
		grown := gpt("prop2", layers+1, hidden, heads)
		return grown.Params() > c.Params()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
