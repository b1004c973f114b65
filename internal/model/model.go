// Package model describes decoder-only transformer LLMs at the granularity
// the Optimus performance model needs: layer counts, hidden sizes, head
// structure, feed-forward shape and vocabulary. It provides the exact model
// zoo the paper evaluates — the GPT family of the training studies
// (Tables 1, 3; Figs. 4-7) and the Llama-2 family of the inference studies
// (Tables 2, 4; Figs. 8-9) — plus parameter-count accounting used by the
// memory-footprint and communication models.
package model

import "fmt"

// MLPKind distinguishes the two feed-forward flavours in the zoo.
type MLPKind int

const (
	// MLPGELU is the classic two-matrix GELU MLP of the GPT family
	// (h → f → h).
	MLPGELU MLPKind = iota
	// MLPSwiGLU is the three-matrix gated MLP of the Llama family
	// (gate and up projections h → f, down projection f → h).
	MLPSwiGLU
)

// String names the MLP flavour.
func (k MLPKind) String() string {
	switch k {
	case MLPGELU:
		return "gelu"
	case MLPSwiGLU:
		return "swiglu"
	default:
		return fmt.Sprintf("MLPKind(%d)", int(k))
	}
}

// Config is one decoder-only transformer model.
type Config struct {
	Name string

	// Layers is the number of transformer layers.
	Layers int
	// Hidden is the model (embedding) dimension h.
	Hidden int
	// Heads is the number of attention heads a.
	Heads int
	// KVHeads is the number of key/value heads; equal to Heads for
	// multi-head attention, smaller for grouped-query attention
	// (Llama2-70B uses 8).
	KVHeads int
	// FFN is the feed-forward intermediate dimension f (4h for GPTs).
	FFN int
	// MLP selects the feed-forward flavour.
	MLP MLPKind
	// Vocab is the vocabulary size V.
	Vocab int
	// MaxSeq is the trained context length (also the positional-embedding
	// table size for learned positions).
	MaxSeq int
	// LearnedPositions reports whether the model has a learned positional
	// embedding table (GPTs do; Llama uses RoPE, which has no parameters).
	LearnedPositions bool
	// TiedEmbeddings reports whether input and output embeddings share
	// weights (GPT-2/3 style).
	TiedEmbeddings bool
}

// HeadDim returns the per-head dimension h/a.
func (c *Config) HeadDim() int { return c.Hidden / c.Heads }

// KVDim returns the total key (or value) projection width: HeadDim×KVHeads.
func (c *Config) KVDim() int { return c.HeadDim() * c.KVHeads }

// Validate checks structural invariants.
func (c Config) Validate() error {
	switch {
	case c.Layers <= 0 || c.Hidden <= 0 || c.Heads <= 0 || c.Vocab <= 0 || c.FFN <= 0:
		return fmt.Errorf("model %s: non-positive dimension", c.Name)
	case c.Hidden%c.Heads != 0:
		return fmt.Errorf("model %s: hidden %d not divisible by heads %d", c.Name, c.Hidden, c.Heads)
	case c.KVHeads <= 0 || c.Heads%c.KVHeads != 0:
		return fmt.Errorf("model %s: heads %d not divisible by kv-heads %d", c.Name, c.Heads, c.KVHeads)
	}
	return nil
}

// AttnParams returns the attention-block parameter count per layer:
// Q and output projections (h×h each) plus K and V projections
// (h×kvdim each). Biases are included for GPT-style models.
func (c *Config) AttnParams() float64 {
	h := float64(c.Hidden)
	kv := float64(c.KVDim())
	p := 2*h*h + 2*h*kv
	if c.MLP == MLPGELU { // GPT family carries biases
		p += 2*h + 2*kv
	}
	return p
}

// MLPParams returns the feed-forward parameter count per layer.
func (c *Config) MLPParams() float64 {
	h, f := float64(c.Hidden), float64(c.FFN)
	switch c.MLP {
	case MLPSwiGLU:
		return 3 * h * f
	default:
		return 2*h*f + h + f // two matrices plus biases
	}
}

// NormParams returns the normalization parameter count per layer (two
// norms; LayerNorm has scale+bias, RMSNorm scale only — the difference is
// negligible, both modeled as 2h per norm for GPT and h for Llama).
func (c *Config) NormParams() float64 {
	h := float64(c.Hidden)
	if c.MLP == MLPSwiGLU {
		return 2 * h
	}
	return 4 * h
}

// LayerParams returns the per-layer parameter count.
func (c *Config) LayerParams() float64 {
	return c.AttnParams() + c.MLPParams() + c.NormParams()
}

// EmbeddingParams returns the embedding parameter count: the token table,
// the learned position table if present, and the untied output head.
func (c Config) EmbeddingParams() float64 {
	h := float64(c.Hidden)
	p := float64(c.Vocab) * h
	if c.LearnedPositions {
		p += float64(c.MaxSeq) * h
	}
	if !c.TiedEmbeddings {
		p += float64(c.Vocab) * h
	}
	return p
}

// Params returns the total parameter count.
func (c Config) Params() float64 {
	return float64(c.Layers)*c.LayerParams() + c.EmbeddingParams()
}

// KVCacheBytes returns the key/value cache size for a batch of sequences at
// the given context length and element size (paper §3.5):
// 2 × batch × context × elemBytes × layers × kv-projection width.
func (c Config) KVCacheBytes(batch, context int, elemBytes float64) float64 {
	return 2 * float64(batch) * float64(context) * elemBytes *
		float64(c.Layers) * float64(c.KVDim())
}

// String renders the headline shape.
func (c Config) String() string {
	return fmt.Sprintf("%s (L=%d h=%d a=%d kv=%d f=%d V=%d, %.1fB params)",
		c.Name, c.Layers, c.Hidden, c.Heads, c.KVHeads, c.FFN, c.Vocab, c.Params()/1e9)
}
