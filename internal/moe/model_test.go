package moe

import (
	"math"
	"testing"

	"hybrimoe/internal/stats"
	"hybrimoe/internal/tensor"
)

func tinyDeepSeek(t *testing.T) *TinyModel {
	t.Helper()
	cfg := TinyConfig(DeepSeek())
	m, err := NewTinyModel(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func randomHidden(rng *stats.RNG, n int) []float32 {
	x := make([]float32, n)
	for i := range x {
		x[i] = float32(rng.NormMeanStd(0, 1))
	}
	return x
}

func TestTinyConfigPreservesStructure(t *testing.T) {
	c := TinyConfig(DeepSeek())
	if c.RoutedExperts != 64 || c.ActivatedExperts != 6 || c.SharedExperts != 2 {
		t.Fatalf("tiny config lost expert structure: %+v", c)
	}
	if c.Layers != 4 || c.Hidden != 64 {
		t.Fatalf("tiny config not scaled: %+v", c)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRouteProducesValidDecision(t *testing.T) {
	m := tinyDeepSeek(t)
	rng := stats.NewRNG(7)
	x := randomHidden(rng, m.Cfg.Hidden)
	r := m.Route(0, x)
	if len(r.Experts) != m.Cfg.ActivatedExperts {
		t.Fatalf("selected %d experts, want %d", len(r.Experts), m.Cfg.ActivatedExperts)
	}
	if len(r.Scores) != m.Cfg.RoutedExperts {
		t.Fatalf("score vector length %d, want %d", len(r.Scores), m.Cfg.RoutedExperts)
	}
	var sum float64
	for _, s := range r.Scores {
		if s < 0 {
			t.Fatal("negative score")
		}
		sum += float64(s)
	}
	if math.Abs(sum-1) > 1e-4 {
		t.Fatalf("scores sum to %v, want 1", sum)
	}
	var wsum float64
	for _, w := range r.Weights {
		wsum += float64(w)
	}
	if math.Abs(wsum-1) > 1e-4 {
		t.Fatalf("gate weights sum to %v, want 1", wsum)
	}
	// Selected experts must be the score top-k.
	top := tensor.TopK(r.Scores, m.Cfg.ActivatedExperts)
	for i := range top {
		if top[i] != r.Experts[i] {
			t.Fatalf("selected experts %v are not the score top-k %v", r.Experts, top)
		}
	}
	// Duplicates are a routing bug.
	seen := map[int]bool{}
	for _, e := range r.Experts {
		if seen[e] {
			t.Fatalf("duplicate expert %d in %v", e, r.Experts)
		}
		seen[e] = true
	}
}

func TestRouteDeterministic(t *testing.T) {
	cfg := TinyConfig(DeepSeek())
	m1, _ := NewTinyModel(cfg, 42)
	m2, _ := NewTinyModel(cfg, 42)
	rng := stats.NewRNG(9)
	x := randomHidden(rng, cfg.Hidden)
	r1, r2 := m1.Route(0, x), m2.Route(0, x)
	for i := range r1.Experts {
		if r1.Experts[i] != r2.Experts[i] {
			t.Fatal("same seed must give identical routing")
		}
	}
}

func TestForwardLayerResidualAndFinite(t *testing.T) {
	m := tinyDeepSeek(t)
	rng := stats.NewRNG(11)
	x := randomHidden(rng, m.Cfg.Hidden)
	out, r := m.ForwardLayer(0, x)
	if len(out) != len(x) {
		t.Fatalf("output width %d != input %d", len(out), len(x))
	}
	if len(r.Experts) != m.Cfg.ActivatedExperts {
		t.Fatal("forward must report routing used")
	}
	var changed bool
	for i := range out {
		if math.IsNaN(float64(out[i])) || math.IsInf(float64(out[i]), 0) {
			t.Fatal("non-finite activation")
		}
		if out[i] != x[i] {
			changed = true
		}
	}
	if !changed {
		t.Fatal("layer left hidden state untouched")
	}
}

func TestForwardLayerPanicsOutOfRange(t *testing.T) {
	m := tinyDeepSeek(t)
	defer func() {
		if recover() == nil {
			t.Fatal("bad layer should panic")
		}
	}()
	m.ForwardLayer(99, make([]float32, m.Cfg.Hidden))
}

func TestInterLayerScoreSimilarity(t *testing.T) {
	// The prefetch opportunity (§III Opportunity 1): hidden states of
	// adjacent layers are similar (residual stream), so routing the
	// *same* hidden state through adjacent gates approximates the next
	// layer's decision. Verify hidden-state cosine similarity across one
	// layer is high in the functional model.
	m := tinyDeepSeek(t)
	rng := stats.NewRNG(17)
	var acc stats.Running
	for trial := 0; trial < 20; trial++ {
		x := randomHidden(rng, m.Cfg.Hidden)
		h1, _ := m.ForwardLayer(0, x)
		acc.Add(tensor.CosineSimilarity(x, h1))
	}
	if acc.Mean() < 0.7 {
		t.Fatalf("adjacent hidden-state similarity = %v, want > 0.7 (residual stream)", acc.Mean())
	}
}

func TestMixtralTinyNoShared(t *testing.T) {
	cfg := TinyConfig(Mixtral())
	m, err := NewTinyModel(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(19)
	x := randomHidden(rng, cfg.Hidden)
	out, r := m.ForwardLayer(0, x)
	if len(out) != cfg.Hidden || len(r.Experts) != 2 {
		t.Fatalf("Mixtral tiny forward broken: %d experts", len(r.Experts))
	}
}

func TestNewTinyModelRejectsInvalid(t *testing.T) {
	bad := &Config{Name: "bad"}
	if _, err := NewTinyModel(bad, 1); err == nil {
		t.Fatal("invalid config should error")
	}
}
