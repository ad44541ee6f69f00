package trace

import (
	"fmt"
	"reflect"
	"testing"

	"hybrimoe/internal/moe"
	"hybrimoe/internal/tensor"
)

// refPrefillLoads recomputes PrefillLoads with the allocating stable
// argsort (tensor.TopK) on the same draws: per token, one noise draw
// per expert in index order, then the float32-narrowed top-k.
func refPrefillLoads(g *Generator, layer, tokens int) []int {
	loads := make([]int, g.cfg.RoutedExperts)
	perTok := make([]float32, g.cfg.RoutedExperts)
	for t := 0; t < tokens; t++ {
		for e, v := range g.latent[layer] {
			perTok[e] = float32(v + g.rng.NormMeanStd(0, g.opts.TokenNoise))
		}
		for _, e := range tensor.TopK(perTok, g.cfg.ActivatedExperts) {
			loads[e]++
		}
	}
	return loads
}

// TestPrefillLoadsMatchStableArgsort pins the scratch-reusing top-k on
// the prefill path to the stable-argsort reference: two generators on
// one seed, one through PrefillLoads and one through the reference,
// must produce equal loads element for element and stay in lockstep.
func TestPrefillLoadsMatchStableArgsort(t *testing.T) {
	for _, cfg := range []*moe.Config{moe.DeepSeek(), moe.Mixtral(), moe.Qwen2()} {
		for _, tokens := range []int{1, 37, 512} {
			t.Run(fmt.Sprintf("%s/%d", cfg.Name, tokens), func(t *testing.T) {
				got, want := New(cfg, DefaultOptions(3)), New(cfg, DefaultOptions(3))
				for iter := 0; iter < 2; iter++ {
					got.Advance()
					want.Advance()
					for _, layer := range []int{0, cfg.Layers / 2, cfg.Layers - 1} {
						g, w := got.PrefillLoads(layer, tokens), refPrefillLoads(want, layer, tokens)
						if !reflect.DeepEqual(g, w) {
							t.Fatalf("iter %d layer %d: loads %v, reference %v", iter, layer, g, w)
						}
					}
				}
				if a, b := got.rng.Uint64(), want.rng.Uint64(); a != b {
					t.Fatalf("draw streams diverged: %d vs %d", a, b)
				}
			})
		}
	}
}
