package exp

import (
	"hybrimoe/internal/cluster"
	"hybrimoe/internal/engine"
	"hybrimoe/internal/hw"
	"hybrimoe/internal/report"
	"hybrimoe/internal/workload"
)

// placementBox builds the box the placement study serves through: the
// HybriMoE stack planning with the named intra-layer scheduler on an
// n-GPU A6000 platform.
func placementBox(p Params, gpus int, schedName string, ratio float64) *cluster.Cluster {
	fw := engine.HybriMoEFramework()
	fw.Sched = schedName
	return box(hw.MultiA6000Platform(gpus), fw, 3,
		engine.WithCacheRatio(ratio), engine.WithSeed(p.Seed))
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
func placementStudy(p Params, requests int) *report.Table {
	stream := workload.NewStream(p.Seed, workload.AllDatasets()...)
	reqs := stream.NextN(requests)
	workload.CapDecode(reqs, p.DecodeSteps)

	var cells []Cell
	for _, gpus := range PlacementTopologies {
		for _, schedName := range []string{"hybrimoe", "expert-parallel"} {
			for _, ratio := range []float64{0.25, 0.50} {
				cells = append(cells, func() []Row {
					r := Drive(placementBox(p, gpus, schedName, ratio), reqs, nil)
					tbt := report.Latencies(r.TBT)
					return []Row{{gpus, schedName, ratio, r.decodeThroughput(),
						tbt.P50, tbt.P95, r.HitRate[0], r.utilisation()}}
				})
			}
		}
	}
	return gridTable(p, "Placement study: GPU topology × scheduler × cache ratio (HybriMoE stack)",
		[]string{"gpus", "sched", "cache", "decode-tok/s", "p50-TBT(s)", "p95-TBT(s)", "hit-rate", "per-GPU-util"}, cells)
}
