package exp

import (
	"fmt"

	"hybrimoe/internal/cluster"
	"hybrimoe/internal/report"
)

// churnScenario is one failure/elasticity shape the study sweeps.
type churnScenario struct {
	name string
	// opts builds the scenario's lifecycle options from the calibrated
	// stall and scale stamps.
	opts func(stallAt, scaleAt float64) []cluster.Option
	// stalls reports whether the scenario includes the injected stall
	// (anchoring the dip-window metrics).
	stalls bool
}

func churnScenarios() []churnScenario {
	return []churnScenario{
		{"steady", func(_, _ float64) []cluster.Option { return nil }, false},
		{"stall", func(stallAt, _ float64) []cluster.Option {
			return []cluster.Option{cluster.WithFailure(1, stallAt, cluster.FailStall)}
		}, true},
		{"stall+standby", func(stallAt, scaleAt float64) []cluster.Option {
			return []cluster.Option{
				cluster.WithFailure(1, stallAt, cluster.FailStall),
				cluster.WithScalePlan(cluster.ScaleEvent{At: scaleAt, Delta: 1}),
			}
		}, true},
	}
}

// churnRouters are the two dispatch policies the churn grid contrasts:
// lease-blind rotation (keeps feeding a silently stalled replica until
// detection) against lease- and readiness-aware affinity.
var churnRouters = []string{"round-robin", "affinity"}

// fleetChurnStudy sweeps churn scenario × router on a fixed fleet: a
// steady baseline, a mid-run replica stall (detected by lease expiry,
// its queue re-routed), and the same stall answered by a cold standby —
// a scale-up scheduled at the stall time, warming while the lease runs
// down so it turns Serving just before detection re-routes the
// displaced queue.
// Reported per row: completions, re-routed and lost requests, aggregate
// goodput, the goodput dip depth inside the outage window, the recovery
// time (detection to last displaced request completing), queue-inclusive
// p95 TTFT, and the cold-vs-warm cache hit split that prices the
// elasticity re-warm. The claims this table carries: a stall dents
// goodput but never strands work (completed + lost == offered, every
// re-routed request finishes), and a scale-up replica serves at a
// visibly lower hit rate until its cache warms — the re-warm cost the
// lifecycle model charges for elasticity, paid under every router.
//
// The serial prologue calibrates per-replica capacity (closed loop), then a
// churn-free span at the swept rate places the stall at 0.3x span, so
// the scenario stamps track workload scale instead of hard-coding
// simulated seconds. The standby scale-up fires at the stall itself:
// its warm-up (DefaultWarmup) is shorter than the stalled replica's
// lease expiry (DefaultLeaseTTL plus jitter), so by detection the cold
// joiner is Serving and absorbs part of the displaced queue — which is
// exactly when its untrustworthy PredictedResidency matters.
func fleetChurnStudy(p Params, requests, replicas int, ratio float64) *report.Table {
	base := Drive(fleet(p, ratio, 1, "round-robin"), fleetRequests(p, requests, 0), nil)
	perReplica := float64(base.Completed) / base.Makespan
	// 1.2x aggregate capacity: enough overload that a lost replica digs
	// a visible backlog, low enough that arrivals outlast the re-warm.
	rate := 1.2 * perReplica * float64(replicas)
	reqs := fleetRequests(p, requests, rate)

	span := Drive(fleet(p, ratio, replicas, "round-robin"), reqs, nil).Makespan
	stallAt := 0.3 * span
	scaleAt := stallAt

	var cells []Cell
	for _, sc := range churnScenarios() {
		for _, routerName := range churnRouters {
			cells = append(cells, func() []Row {
				anchor := 0.0
				if sc.stalls {
					anchor = stallAt
				}
				r := Drive(fleet(p, ratio, replicas, routerName, sc.opts(stallAt, scaleAt)...), reqs, nil)
				coldHit, warmHit := r.hitSplit(replicas)
				return []Row{{sc.name, routerName, r.Completed, r.Rerouted, r.Lost,
					r.goodput(), r.dipDepth(anchor), r.recovery(), report.Latencies(r.TTFT).P95,
					r.routedFrom(replicas), coldHit, warmHit}}
			})
		}
	}
	return gridTable(p,
		fmt.Sprintf("Fleet churn study: scenario × router, %d replicas (stall at 0.3 span, standby scale-up at the stall)", replicas),
		[]string{"scenario", "router", "completed", "rerouted", "lost", "goodput(req/s)",
			"dip-depth", "recovery(s)", "p95-TTFT(s)", "cold-routed", "cold-hit", "warm-hit"}, cells)
}
