package moe

import (
	"fmt"

	"hybrimoe/internal/quant"
	"hybrimoe/internal/stats"
	"hybrimoe/internal/tensor"
)

// TinyModel is a functional MoE with real weights at scaled-down
// dimensions. It executes genuine router logits, top-k gating, shared
// experts and INT4 routed experts so the gating/caching/scheduling
// machinery can be exercised end-to-end with actual arithmetic. The
// large-model experiments use synthetic traces instead (internal/trace);
// this model validates that the synthetic statistics match a real
// forward pass.
type TinyModel struct {
	Cfg *Config
	// gates[l] is the router weight matrix of layer l (experts×hidden).
	gates []*tensor.Matrix
	// experts[l][e] holds the INT4 routed expert weights.
	experts [][]expertWeights
	// shared[l][s] holds fp32 shared experts (always resident).
	shared [][]expertWeights2
	// normGain[l] is the pre-FFN RMSNorm gain.
	normGain [][]float32
}

type expertWeights struct {
	gate, up, down *quant.Matrix
}

type expertWeights2 struct {
	gate, up, down *tensor.Matrix
}

// NewTinyModel builds a functional model from cfg with deterministic
// random weights. Dimensions come straight from cfg, so pass a scaled
// configuration (e.g. TinyConfig) unless you enjoy waiting.
func NewTinyModel(cfg *Config, seed uint64) (*TinyModel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := stats.NewRNG(seed)
	m := &TinyModel{Cfg: cfg}
	for l := 0; l < cfg.Layers; l++ {
		g := tensor.NewMatrix(cfg.RoutedExperts, cfg.Hidden)
		g.FillRandom(rng)
		m.gates = append(m.gates, g)

		var row []expertWeights
		for e := 0; e < cfg.RoutedExperts; e++ {
			wg := tensor.NewMatrix(cfg.Intermediate, cfg.Hidden)
			wu := tensor.NewMatrix(cfg.Intermediate, cfg.Hidden)
			wd := tensor.NewMatrix(cfg.Hidden, cfg.Intermediate)
			wg.FillRandom(rng)
			wu.FillRandom(rng)
			wd.FillRandom(rng)
			gsz := groupSizeFor(cfg.Hidden)
			row = append(row, expertWeights{
				gate: quant.Quantize(wg, 4, gsz),
				up:   quant.Quantize(wu, 4, gsz),
				down: quant.Quantize(wd, 4, groupSizeFor(cfg.Intermediate)),
			})
		}
		m.experts = append(m.experts, row)

		var srow []expertWeights2
		for s := 0; s < cfg.SharedExperts; s++ {
			wg := tensor.NewMatrix(cfg.SharedIntermediate, cfg.Hidden)
			wu := tensor.NewMatrix(cfg.SharedIntermediate, cfg.Hidden)
			wd := tensor.NewMatrix(cfg.Hidden, cfg.SharedIntermediate)
			wg.FillRandom(rng)
			wu.FillRandom(rng)
			wd.FillRandom(rng)
			srow = append(srow, expertWeights2{gate: wg, up: wu, down: wd})
		}
		m.shared = append(m.shared, srow)

		gain := make([]float32, cfg.Hidden)
		tensor.Fill(gain, 1)
		m.normGain = append(m.normGain, gain)
	}
	return m, nil
}

func groupSizeFor(cols int) int {
	if cols < quant.DefaultGroupSize {
		return cols
	}
	return quant.DefaultGroupSize
}

// Routing is the router decision for one token at one layer.
type Routing struct {
	Layer int
	// Scores holds the full softmax-normalised router distribution over
	// all routed experts (the raw signal MRS caching consumes).
	Scores []float32
	// Experts lists the selected top-k expert indices in descending
	// score order.
	Experts []int
	// Weights are the renormalised gate weights of the selected experts.
	Weights []float32
}

// Route computes the router decision of layer l for hidden state x
// without executing experts. The full-distribution scores use a softmax
// over all logits, matching how MRS consumes "routing scores of all
// experts".
func (m *TinyModel) Route(l int, x []float32) Routing {
	logits := make([]float32, m.Cfg.RoutedExperts)
	tensor.MatVec(logits, m.gates[l], x)
	scores := make([]float32, len(logits))
	tensor.Softmax(scores, logits)
	experts, weights := tensor.SoftmaxTopK(logits, m.Cfg.ActivatedExperts)
	return Routing{Layer: l, Scores: scores, Experts: experts, Weights: weights}
}

// ForwardLayer runs one full MoE block for a single token: RMSNorm,
// shared experts, routed experts (INT4 kernels) combined by gate
// weights, and the residual connection. It returns the new hidden state
// and the routing decision actually used.
func (m *TinyModel) ForwardLayer(l int, x []float32) ([]float32, Routing) {
	if l < 0 || l >= m.Cfg.Layers {
		panic(fmt.Sprintf("moe: layer %d out of range [0,%d)", l, m.Cfg.Layers))
	}
	normed := make([]float32, len(x))
	tensor.RMSNorm(normed, x, m.normGain[l], 1e-6)

	routing := m.Route(l, normed)

	out := make([]float32, len(x))
	copy(out, x) // residual

	for _, sw := range m.shared[l] {
		y := tensor.GatedFFN(sw.gate, sw.up, sw.down, normed)
		tensor.Axpy(out, 1, y)
	}

	for i, e := range routing.Experts {
		y := m.runExpert(l, e, normed)
		tensor.Axpy(out, routing.Weights[i], y)
	}
	return out, routing
}

func (m *TinyModel) runExpert(l, e int, x []float32) []float32 {
	w := m.experts[l][e]
	inter := m.Cfg.Intermediate
	g := make([]float32, inter)
	u := make([]float32, inter)
	w.gate.MatVec(g, x)
	w.up.MatVec(u, x)
	tensor.SiLU(g)
	for i := range g {
		g[i] *= u[i]
	}
	out := make([]float32, m.Cfg.Hidden)
	w.down.MatVec(out, g)
	return out
}

// TinyConfig returns a scaled-down configuration preserving cfg's
// expert-count structure (routed/activated/shared) with small dims, for
// functional tests and the tiny_moe example.
func TinyConfig(base *Config) *Config {
	c := *base
	c.Name = base.Name + "-tiny"
	c.Layers = minInt(base.Layers, 4)
	c.Hidden = 64
	c.Intermediate = 96
	if c.SharedExperts > 0 {
		c.SharedIntermediate = 96
	}
	return &c
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
