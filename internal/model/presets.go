package model

import "fmt"

// gpt builds a GPT-family config: 4h feed-forward, GELU MLP with biases,
// learned positions, tied embeddings, 51200-token vocabulary and 2048
// context — the configuration of the Megatron-LM scaling studies the paper
// validates against (Tables 1 and 3).
func gpt(name string, layers, hidden, heads int) Config {
	return Config{
		Name:             name,
		Layers:           layers,
		Hidden:           hidden,
		Heads:            heads,
		KVHeads:          heads,
		FFN:              4 * hidden,
		MLP:              MLPGELU,
		Vocab:            51200,
		MaxSeq:           2048,
		LearnedPositions: true,
		TiedEmbeddings:   true,
	}
}

// llama builds a Llama-2-family config: SwiGLU MLP, RoPE positions, untied
// embeddings, 32000-token vocabulary and 4096 context.
func llama(name string, layers, hidden, heads, kvHeads, ffn int) Config {
	return Config{
		Name:    name,
		Layers:  layers,
		Hidden:  hidden,
		Heads:   heads,
		KVHeads: kvHeads,
		FFN:     ffn,
		MLP:     MLPSwiGLU,
		Vocab:   32000,
		MaxSeq:  4096,
	}
}

// The GPT model zoo of the paper's training studies. Shapes follow the
// Megatron-LM publications the paper validates against ([28] Table 1,
// [14] Table 3).
func GPT7B() Config    { return gpt("GPT-7B", 32, 4096, 32) }
func GPT22B() Config   { return gpt("GPT-22B", 48, 6144, 48) }
func GPT175B() Config  { return gpt("GPT-175B", 96, 12288, 96) }
func gpt310B() Config  { return gpt("GPT-310B", 96, 16384, 128) }
func gpt530B() Config  { return gpt("GPT-530B", 105, 20480, 128) }
func gpt1008B() Config { return gpt("GPT-1008B", 128, 25600, 160) }

// The smaller rungs of the Megatron-LM scaling ladder ([28] Table 1),
// useful for sweeps below the paper's validation sizes.
func gpt1_7B() Config { return gpt("GPT-1.7B", 24, 2304, 24) }
func gpt3_6B() Config { return gpt("GPT-3.6B", 30, 3072, 32) }
func gpt18B() Config  { return gpt("GPT-18B", 40, 6144, 48) }
func gpt39B() Config  { return gpt("GPT-39B", 48, 8192, 64) }
func gpt76B() Config  { return gpt("GPT-76B", 60, 10240, 80) }
func gpt145B() Config { return gpt("GPT-145B", 80, 12288, 96) }

// The Llama-2 zoo of the paper's inference studies (Tables 2, 4; Figs. 8-9).
func Llama2_7B() Config  { return llama("Llama2-7B", 32, 4096, 32, 32, 11008) }
func Llama2_13B() Config { return llama("Llama2-13B", 40, 5120, 40, 40, 13824) }
func Llama2_70B() Config { return llama("Llama2-70B", 80, 8192, 64, 8, 28672) }

// All returns the full preset zoo: the paper's evaluation models first,
// then the smaller scaling-ladder rungs.
func All() []Config {
	return []Config{
		GPT7B(), GPT22B(), GPT175B(), gpt310B(), gpt530B(), gpt1008B(),
		Llama2_7B(), Llama2_13B(), Llama2_70B(),
		gpt1_7B(), gpt3_6B(), gpt18B(), gpt39B(), gpt76B(), gpt145B(),
	}
}

// ByName looks up a preset by its conventional name, case-insensitively.
func ByName(name string) (Config, error) {
	want := fold(name)
	for _, c := range All() {
		if fold(c.Name) == want {
			return c, nil
		}
	}
	return Config{}, fmt.Errorf("model: unknown preset %q", name)
}

// fold lower-cases ASCII and drops '-' and '_' so "gpt175b" matches
// "GPT-175B".
func fold(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '-' || c == '_' {
			continue
		}
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		out = append(out, c)
	}
	return string(out)
}
