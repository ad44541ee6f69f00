package exp

import (
	"fmt"

	"hybrimoe/internal/cache"
	"hybrimoe/internal/engine"
	"hybrimoe/internal/hw"
	"hybrimoe/internal/moe"
	"hybrimoe/internal/report"
	"hybrimoe/internal/trace"
)

// Fig7 reproduces the prefill comparison: TTFT for every model, input
// length and cache ratio, across the four frameworks, with the speedup
// over kTransformers that the paper's secondary axis shows.
func Fig7(p Params) *report.Table {
	t := report.NewTable("Fig 7: prefill TTFT across lengths and cache ratios",
		"model", "cache", "len", "llama.cpp(s)", "AdapMoE(s)", "KTrans(s)", "HybriMoE(s)", "speedup-vs-KTrans")
	platform := hw.A6000Platform()
	for _, cfg := range moe.AllModels() {
		for _, ratio := range CacheRatios {
			for _, length := range PrefillLengths {
				lats := make(map[string]float64, 4)
				for _, fw := range engine.AllFrameworks() {
					lats[fw.Name] = mustEngine(cfg, platform, fw, ratio, p.Seed).RunPrefill(length).Total
				}
				t.AddRow(cfg.Name, pct(ratio), length,
					lats["llama.cpp"], lats["AdapMoE"], lats["KTransformers"], lats["HybriMoE"],
					lats["KTransformers"]/lats["HybriMoE"])
			}
		}
	}
	return t
}

// Fig7MeanSpeedup computes the average HybriMoE speedup over
// kTransformers across the Fig. 7 grid (the paper reports 1.33×).
func Fig7MeanSpeedup(p Params) float64 {
	platform := hw.A6000Platform()
	var sum float64
	var n int
	for _, cfg := range moe.AllModels() {
		for _, ratio := range CacheRatios {
			for _, length := range PrefillLengths {
				kt := mustEngine(cfg, platform, engine.KTransformersFramework(), ratio, p.Seed).RunPrefill(length).Total
				hy := mustEngine(cfg, platform, engine.HybriMoEFramework(), ratio, p.Seed).RunPrefill(length).Total
				sum += kt / hy
				n++
			}
		}
	}
	return sum / float64(n)
}

// Fig8 reproduces the decode comparison: mean TBT per model and cache
// ratio across the four frameworks, plus the speedup over kTransformers.
func Fig8(p Params) *report.Table {
	t := report.NewTable("Fig 8: decode TBT across cache ratios",
		"model", "cache", "llama.cpp(s)", "AdapMoE(s)", "KTrans(s)", "HybriMoE(s)", "speedup-vs-KTrans")
	platform := hw.A6000Platform()
	for _, cfg := range moe.AllModels() {
		for _, ratio := range CacheRatios {
			lats := make(map[string]float64, 4)
			for _, fw := range engine.AllFrameworks() {
				lats[fw.Name] = mustEngine(cfg, platform, fw, ratio, p.Seed).RunDecode(p.DecodeSteps).Mean()
			}
			t.AddRow(cfg.Name, pct(ratio),
				lats["llama.cpp"], lats["AdapMoE"], lats["KTransformers"], lats["HybriMoE"],
				lats["KTransformers"]/lats["HybriMoE"])
		}
	}
	return t
}

// Fig8MeanSpeedup computes the average decode speedup over
// kTransformers (the paper reports 1.70×).
func Fig8MeanSpeedup(p Params) float64 {
	platform := hw.A6000Platform()
	var sum float64
	var n int
	for _, cfg := range moe.AllModels() {
		for _, ratio := range CacheRatios {
			kt := mustEngine(cfg, platform, engine.KTransformersFramework(), ratio, p.Seed).RunDecode(p.DecodeSteps).Mean()
			hy := mustEngine(cfg, platform, engine.HybriMoEFramework(), ratio, p.Seed).RunDecode(p.DecodeSteps).Mean()
			sum += kt / hy
			n++
		}
	}
	return sum / float64(n)
}

// Table3 reproduces the ablation: Qwen2 at 25% cache, prefill (128
// tokens) and decode, with each technique enabled alone and together.
func Table3(p Params) *report.Table {
	t := report.NewTable("Table III: speedup breakdown (Qwen2, 25% cache)",
		"stage", "technique", "latency(s)", "speedup")
	platform := hw.A6000Platform()
	cfg := moe.Qwen2()

	var prefillBase, decodeBase float64
	for _, fw := range engine.AblationFrameworks() {
		if fw.Name == "Baseline+Caching" {
			// The paper's Table III reports no prefill row for caching:
			// a single prefill forward never revisits an expert, so
			// cache policy cannot help that stage.
			continue
		}
		pre := mustEngine(cfg, platform, fw, 0.25, p.Seed).RunPrefill(128).Total
		if fw.Name == "Baseline" {
			prefillBase = pre
		}
		t.AddRow("prefill", fw.Name, pre, prefillBase/pre)
	}
	for _, fw := range engine.AblationFrameworks() {
		dec := mustEngine(cfg, platform, fw, 0.25, p.Seed).RunDecode(p.DecodeSteps).Mean()
		if fw.Name == "Baseline" {
			decodeBase = dec
		}
		t.AddRow("decode", fw.Name, dec, decodeBase/dec)
	}
	return t
}

// Fig9 reproduces the cache-policy study: steady-state hit rate of MRS
// vs LRU for all three models across cached-expert percentages, using
// the pure cache simulation (no scheduling in the loop, exactly like
// the paper's hit-rate counters).
func Fig9(p Params) *report.Table {
	t := report.NewTable("Fig 9: cache hit rate, MRS vs LRU",
		"model", "cached-%", "LRU", "MRS", "delta")
	for _, cfg := range moe.AllModels() {
		for _, pctCap := range []int{30, 40, 50, 60, 70, 75} {
			ratio := float64(pctCap) / 100
			lru := CacheHitRate(cfg, cache.NewLRU(), ratio, p.HitRateIters, p.Seed)
			mrs := CacheHitRate(cfg, cache.NewMRS(cache.DefaultAlpha, 2*cfg.ActivatedExperts), ratio, p.HitRateIters, p.Seed)
			t.AddRow(cfg.Name, pctCap, lru, mrs, mrs-lru)
		}
	}
	return t
}

// CacheHitRate drives a cache with policy through iters decode
// iterations of cfg's synthetic trace at the given capacity ratio and
// returns the steady-state hit rate (first quarter excluded as warm-up).
func CacheHitRate(cfg *moe.Config, policy cache.Policy, ratio float64, iters int, seed uint64) float64 {
	g := trace.New(cfg, trace.DefaultOptions(seed))
	c := cache.New(cfg.CacheCapacity(ratio), policy)
	var warm []moe.ExpertID
	for l := 0; l < cfg.Layers; l++ {
		for e := 0; e < cfg.RoutedExperts; e++ {
			warm = append(warm, moe.ExpertID{Layer: l, Index: e})
		}
	}
	c.Warm(warm)
	// The current layer's activated experts are protected from eviction.
	layer, active := 0, make([]bool, cfg.RoutedExperts)
	protected := func(x moe.ExpertID) bool { return x.Layer == layer && active[x.Index] }
	for i := 0; i < iters; i++ {
		g.Advance()
		for l := 0; l < cfg.Layers; l++ {
			acts := g.Activated(l)
			layer = l
			clear(active)
			for _, e := range acts {
				active[e] = true
			}
			for _, e := range acts {
				id := moe.ExpertID{Layer: l, Index: e}
				if !c.Lookup(id) {
					c.Insert(id, protected)
				}
			}
			c.ObserveScores(l, g.Scores(l))
		}
		if i == iters/4 {
			c.ResetStats()
		}
	}
	return c.HitRate()
}

func mustEngine(cfg *moe.Config, platform *hw.Platform, fw engine.Framework, ratio float64, seed uint64, opts ...engine.Option) *engine.Engine {
	opts = append([]engine.Option{engine.WithCacheRatio(ratio), engine.WithSeed(seed)}, opts...)
	e, err := engine.New(cfg, platform, fw, opts...)
	if err != nil {
		panic(err)
	}
	return e
}

func pct(ratio float64) string { return fmt.Sprintf("%.0f%%", ratio*100) }
