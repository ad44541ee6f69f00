package exp

import (
	"fmt"
	"strings"

	"hybrimoe/internal/engine"
	"hybrimoe/internal/hw"
	"hybrimoe/internal/moe"
	"hybrimoe/internal/report"
	"hybrimoe/internal/workload"
)

// placementRun aggregates one topology × scheduler × cache-ratio
// serving run.
type placementRun struct {
	decodeTokens int
	clockEnd     float64
	tbt          report.LatencyStats
	hitRate      float64
	// gpuBusy sums each device's busy seconds across the run (from the
	// per-device StepEvent vectors).
	gpuBusy []float64
}

// decodeThroughput reports decode tokens per simulated second.
func (r placementRun) decodeThroughput() float64 {
	if r.clockEnd == 0 {
		return 0
	}
	return float64(r.decodeTokens) / r.clockEnd
}

// utilisation renders each GPU's busy fraction as "u0/u1/…".
func (r placementRun) utilisation() string {
	if r.clockEnd == 0 {
		return "-"
	}
	parts := make([]string, len(r.gpuBusy))
	for d, busy := range r.gpuBusy {
		parts[d] = fmt.Sprintf("%.0f%%", 100*busy/r.clockEnd)
	}
	return strings.Join(parts, "/")
}

// drivePlacement serves reqs through the HybriMoE stack planning with
// the named intra-layer scheduler on an n-GPU A6000 platform.
func drivePlacement(p Params, gpus int, schedName string, ratio float64, reqs []workload.Request) placementRun {
	fw := engine.HybriMoEFramework()
	fw.Sched = schedName
	e, err := engine.New(moe.DeepSeek(), hw.MultiA6000Platform(gpus), fw,
		engine.WithCacheRatio(ratio), engine.WithSeed(p.Seed))
	if err != nil {
		panic(err)
	}
	s := e.NewSession(engine.WithMaxConcurrent(3))
	s.Submit(reqs...)

	r := placementRun{gpuBusy: make([]float64, gpus)}
	var tbts []float64
	s.Run(func(ev engine.StepEvent) {
		if ev.End > r.clockEnd {
			r.clockEnd = ev.End
		}
		for d, busy := range ev.GPUBusyByDevice {
			r.gpuBusy[d] += busy
		}
		if ev.Phase == engine.PhaseDecode {
			r.decodeTokens += ev.Tokens
			tbts = append(tbts, ev.Latency)
		}
	})
	r.tbt = report.Latencies(tbts)
	r.hitRate = e.Caches().HitRate()
	return r
}

// PlacementTopologies are the GPU counts the placement study sweeps.
var PlacementTopologies = []int{1, 2, 4}

// placementStudy sweeps GPU topologies × intra-layer schedulers ×
// cache ratios on one fixed mixed-corpus stream served by the HybriMoE
// stack, reporting decode throughput, TBT percentiles, the aggregate
// expert-cache hit rate and each device's busy fraction. The
// single-GPU hybrimoe row is the pre-refactor baseline; expert-parallel
// on the dual/quad presets should beat it on decode throughput — the
// per-device caches double (quadruple) total residency, and cached
// experts execute on their owning GPUs in parallel. There is one cell
// per topology × scheduler × cache-ratio point, all serving one shared
// stream.
type placementStudy struct {
	requests int
}

func (placementStudy) ID() string { return "placement" }
func (placementStudy) Describe() string {
	return "Multi-GPU placement: topology × scheduler × cache ratio"
}

func (s placementStudy) Cells(p Params) []Cell {
	stream := workload.NewStream(p.Seed, workload.AllDatasets()...)
	reqs := stream.NextN(s.requests)
	workload.CapDecode(reqs, p.DecodeSteps)

	var cells []Cell
	for _, gpus := range PlacementTopologies {
		for _, schedName := range []string{"hybrimoe", "expert-parallel"} {
			for _, ratio := range []float64{0.25, 0.50} {
				cells = append(cells, Cell{
					Label: fmt.Sprintf("placement/%dgpu/%s/%.2f", gpus, schedName, ratio),
					Run: func() []Row {
						r := drivePlacement(p, gpus, schedName, ratio, reqs)
						return []Row{{gpus, schedName, ratio, r.decodeThroughput(),
							r.tbt.P50, r.tbt.P95, r.hitRate, r.utilisation()}}
					},
				})
			}
		}
	}
	return cells
}

func (placementStudy) Render(_ Params, results [][]Row) Renderable {
	return tableFromCells("Placement study: GPU topology × scheduler × cache ratio (HybriMoE stack)",
		[]string{"gpus", "sched", "cache", "decode-tok/s", "p50-TBT(s)", "p95-TBT(s)", "hit-rate", "per-GPU-util"}, results)
}
