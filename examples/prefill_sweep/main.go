// Prefill sweep: the paper's prefill-stage scenario (Figure 7) for one
// model. It sweeps prompt lengths and cache ratios, comparing TTFT for
// the four frameworks, and prints a Gantt timeline of one HybriMoE
// prefill so the CPU/GPU/PCIe overlap is visible.
//
// Run with: go run ./examples/prefill_sweep [-model Qwen2]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"hybrimoe/internal/engine"
	"hybrimoe/internal/hw"
	"hybrimoe/internal/moe"
	"hybrimoe/internal/report"
)

func main() {
	model := flag.String("model", "DeepSeek", "model to sweep (DeepSeek, Mixtral, Qwen2)")
	flag.Parse()

	cfg, err := moe.ByName(*model)
	if err != nil {
		log.Fatal(err)
	}
	platform := hw.A6000Platform()

	tbl := report.NewTable(
		fmt.Sprintf("%s prefill TTFT across lengths and cache ratios", cfg.Name),
		"cache", "len", "llama.cpp(s)", "AdapMoE(s)", "KTrans(s)", "HybriMoE(s)", "speedup")
	for _, ratio := range []float64{0.25, 0.50, 0.75} {
		for _, length := range []int{32, 128, 512, 1024} {
			lats := make(map[string]float64)
			for _, fw := range engine.AllFrameworks() {
				e, err := engine.New(cfg, platform, fw, engine.WithCacheRatio(ratio), engine.WithSeed(11))
				if err != nil {
					log.Fatal(err)
				}
				lats[fw.Name] = e.RunPrefill(length).Mean()
			}
			tbl.AddRow(fmt.Sprintf("%.0f%%", ratio*100), length,
				lats["llama.cpp"], lats["AdapMoE"], lats["KTransformers"], lats["HybriMoE"],
				lats["KTransformers"]/lats["HybriMoE"])
		}
	}
	tbl.Render(os.Stdout)

	// One traced prefill to visualise the hybrid overlap.
	e, err := engine.New(cfg, platform, engine.HybriMoEFramework(),
		engine.WithCacheRatio(0.25), engine.WithSeed(11), engine.WithTraceRecording())
	if err != nil {
		log.Fatal(err)
	}
	res := e.RunPrefill(128)
	fmt.Printf("\nHybriMoE prefill-128 at 25%% cache: TTFT %.3fs\n", res.Total)
	fmt.Println("timeline:")
	fmt.Print(e.Gantt(100))
}
