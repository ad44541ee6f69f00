package exp

import (
	"fmt"

	"hybrimoe/internal/cluster"
	"hybrimoe/internal/engine"
	"hybrimoe/internal/hw"
	"hybrimoe/internal/moe"
	"hybrimoe/internal/report"
	"hybrimoe/internal/workload"
)

// FleetConcurrent is the per-replica session concurrency every fleet
// consumer uses, matching the open-loop study's serving shape.
const FleetConcurrent = 3

// NewFleet assembles the canonical fleet every consumer (the study, the
// CLI, the benchmark) shares: n HybriMoE replicas on A6000-class boxes,
// seeded per replica from the base seed, steered by the named router.
// Replicas beyond the initial n — born from a scale plan — are built
// with cache warm-up disabled, so a mid-run join pays the cold-cache
// re-warm cost the lifecycle model charges for elasticity.
func NewFleet(n int, routerName string, seed uint64, ratio float64,
	opts ...cluster.Option) (*cluster.Cluster, error) {
	build := func(i int) (*engine.Engine, error) {
		eopts := []engine.Option{
			engine.WithCacheRatio(ratio),
			engine.WithSeed(cluster.ReplicaSeed(seed, i)),
		}
		if i >= n {
			eopts = append(eopts, engine.WithWarmupIters(0))
		}
		return engine.New(moe.DeepSeek(), hw.A6000Platform(), engine.HybriMoEFramework(), eopts...)
	}
	opts = append([]cluster.Option{
		cluster.WithReplicas(n),
		cluster.WithRouter(routerName),
		cluster.WithBuilder(build),
		cluster.WithSeed(seed),
		cluster.WithMaxConcurrent(FleetConcurrent),
	}, opts...)
	return cluster.New(opts...)
}

// fleetGuard builds the study's fleet-level SLO admission guard from a
// calibrated forward (unqueued) p95 TTFT: the budget sits 25% above it,
// so only fleet queueing can breach. Each run gets a fresh policy — the
// guard's quantiles are fleet-aggregate state that must not leak across
// rows.
func fleetGuard(forward float64) func() engine.AdmissionPolicy {
	return func() engine.AdmissionPolicy {
		return &engine.SLOAdmission{TTFTp95: 1.25 * forward, MinSamples: 2, ShedFactor: 1.5}
	}
}

// fleetRequests draws the study's request stream: the mixed corpus with
// Poisson arrivals at rate (closed-loop when rate is 0 — the
// calibration shape). Only the arrival stamps vary with the rate.
func fleetRequests(p Params, requests int, rate float64) []workload.Request {
	stream := workload.NewStream(p.Seed, workload.AllDatasets()...)
	if rate > 0 {
		stream.WithArrivals(workload.Poisson(rate))
	}
	reqs := stream.NextN(requests)
	workload.CapDecode(reqs, p.DecodeSteps)
	return reqs
}

// FleetStudy sweeps fleet size × router × Poisson arrival rate at equal
// per-replica hardware: every row serves the same request sequence
// through the same replicas, and only the dispatch policy differs. A
// single-replica closed-loop run calibrates per-replica capacity (the
// rate grid scales with fleet size) and the forward p95 anchoring the
// fleet-level SLO guard, the open-loop study's idiom lifted to the
// fleet. Reported per row: completions, shed fraction of offered load,
// goodput (completions per simulated second of makespan), p95
// queue-inclusive TTFT, the makespan itself, and the per-replica
// dispatch spread. The locality claim this table carries: at fleet
// scale (the 4-replica rows) affinity routing — steering load toward
// the replica whose cache shards are ready for their next iteration —
// meets or beats content-blind round-robin on goodput at every swept
// rate at equal hardware, because warm steps advance the fleet clock
// less and shed less under the same guard. With only two replicas the
// readiness signal has almost no choice to exploit and the routers
// mostly coincide.
//
// The single-replica calibration runs serially, then one cell per
// replicas × rate × router point. Each (replicas, rate) pair draws its
// request stream once, shared read-only across that pair's router
// cells.
func FleetStudy(p Params, requests int, replicaCounts []int, ratio float64) *report.Table {
	// Single-replica closed-loop calibration: capacity in completions
	// per busy second, and the unqueued forward p95 for the SLO target.
	base := Drive(fleet(p, ratio, 1, "round-robin"), fleetRequests(p, requests, 0), nil)
	perReplica := float64(base.Completed) / base.Makespan
	adm := fleetGuard(report.Latencies(base.TTFT).P95)

	var cells []Cell
	for _, n := range replicaCounts {
		for _, mult := range []float64{1.5, 4} {
			rate := mult * perReplica * float64(n)
			reqs := fleetRequests(p, requests, rate)
			for _, routerName := range cluster.RouterNames() {
				cells = append(cells, func() []Row {
					r := Drive(fleet(p, ratio, n, routerName, cluster.WithAdmission(adm())), reqs, nil)
					return []Row{{n, routerName, rate, r.Completed, r.shedFraction(),
						r.goodput(), report.Latencies(r.TTFT).P95, r.Makespan, fmt.Sprint(r.Routed)}}
				})
			}
		}
	}
	return gridTable(p, "Fleet study: replicas × router × Poisson arrival rate (HybriMoE)",
		[]string{"replicas", "router", "rate(req/s)", "completed", "shed-fraction",
			"goodput(req/s)", "p95-TTFT(s)", "makespan(s)", "routed"}, cells)
}
