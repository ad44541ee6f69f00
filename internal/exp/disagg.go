package exp

import (
	"fmt"

	"hybrimoe/internal/cluster"
	"hybrimoe/internal/engine"
	"hybrimoe/internal/report"
	"hybrimoe/internal/workload"
)

// disaggRun extends fleetRun with the stage-split accounting a
// disaggregation run produces: how many requests migrated, how warm the
// priced working set landed, and the inter-token gap distribution the
// interference claim is judged on.
type disaggRun struct {
	fleetRun
	handoffs                int
	warmExperts, allExperts int
	// gapQ summarises inter-token gaps: consecutive decode completions
	// per request, with the first gap anchored at the prefill completion
	// so migration transfer and decode-pool queueing are charged to it.
	gapQ report.LatencyStats
}

// warmFrac is the fraction of migrated working-set experts already
// resident on the adopting decode replica (0 when nothing migrated).
func (r disaggRun) warmFrac() float64 {
	if r.allExperts == 0 {
		return 0
	}
	return float64(r.warmExperts) / float64(r.allExperts)
}

// driveDisagg serves reqs through an n-replica affinity-routed fleet
// under the given pool spec (zero spec = the mixed baseline), measuring
// time-between-tokens as the per-request inter-token gap stream rather
// than raw step latency: a decode step that waited behind a neighbour's
// long prefill shows up as a stretched gap even though the step itself
// was cheap, which is exactly the interference disaggregation removes.
func driveDisagg(p Params, ratio float64, n int, reqs []workload.Request,
	spec cluster.PoolSpec) disaggRun {
	c, err := NewFleet(n, "affinity", p.Seed, ratio, append(workerOpts(p), poolOpts(spec)...)...)
	if err != nil {
		panic(err)
	}
	c.Submit(reqs...)

	r := disaggRun{fleetRun: fleetRun{offered: len(reqs)}}
	var (
		ttftQ, gaps []float64
		prefillEnd  = map[int]float64{}
		lastDecode  = map[int]float64{}
	)
	c.Run(func(ev cluster.Event) {
		if ev.Kind != cluster.EventStep {
			// Handoff and lifecycle records carry no compute; their cost
			// already lands in the first decode gap via ReadyAt.
			return
		}
		if ev.End > r.clockEnd {
			r.clockEnd = ev.End
		}
		switch ev.Phase {
		case engine.PhasePrefill:
			ttftQ = append(ttftQ, ev.Queued+ev.Latency)
			prefillEnd[ev.Request] = ev.End
		case engine.PhaseDecode:
			prev, ok := lastDecode[ev.Request]
			if !ok {
				prev = prefillEnd[ev.Request]
			}
			gaps = append(gaps, ev.End-prev)
			lastDecode[ev.Request] = ev.End
		}
		if ev.Done {
			r.completed++
		}
	})
	r.ttftQ = report.Latencies(ttftQ)
	r.gapQ = report.Latencies(gaps)
	r.routed = c.Routed()
	r.pools = c.Pools()
	r.handoffs = c.Handoffs()
	r.warmExperts, r.allExperts = c.MigratedExperts()
	return r
}

// disaggConfigs is the pool grid the study contrasts, mixed baseline
// first in each rate group so Render can anchor the isolation delta.
func disaggConfigs() []cluster.PoolSpec {
	return []cluster.PoolSpec{
		{},                      // mixed: every replica serves both stages
		{Prefill: 1, Decode: 2}, // decode-heavy split
		{Prefill: 2, Decode: 1}, // prefill-heavy split
	}
}

// disaggStudy sweeps pool split × Poisson arrival rate on a fixed
// 3-replica fleet, contrasting mixed colocation against
// prefill/decode disaggregation with priced working-set migration. The
// serial prologue calibrates per-replica capacity closed-loop, then sweeps
// {mixed, 1:2, 2:1} pool splits across two Poisson rates (moderate and
// saturating multiples of aggregate capacity), every cell serving the
// same per-rate request stream through the same three replicas under
// the affinity router. Reported per row: completions, goodput,
// handoffs with the warm fraction of their migrated working sets,
// queue-inclusive p95 TTFT, p95 inter-token gap (TBT — first gap
// anchored at prefill completion so the priced migration transfer is
// charged, not hidden), the isolation delta (mixed p95 gap minus this
// row's, within the rate group), and makespan. The claim this table
// carries: at saturating load a pool split keeps decode replicas free
// of long-prompt prefill steps, so p95 TBT drops below the mixed
// baseline even after paying the interconnect for every migrated KV
// working set — while mixed keeps the edge on TTFT because prefills
// spread over all three boxes. Disaggregation buys steady token
// cadence with prefill throughput, the trade the paper's serving
// problem turns on.
type disaggStudy struct {
	requests int
	ratio    float64
}

func (disaggStudy) ID() string { return "disagg" }
func (disaggStudy) Describe() string {
	return "Disaggregated serving: pool split × arrival rate, TBT isolation vs migration cost"
}

// disaggReplicas is the fixed fleet size the split grid divides.
const disaggReplicas = 3

// disaggGapCol is the p95 inter-token-gap column index in the rows
// Cells emits, which Render reads back to compute isolation deltas.
const disaggGapCol = 7

func (s disaggStudy) Cells(p Params) []Cell {
	base := driveFleet(p, s.ratio, 1, "round-robin", fleetRequests(p, s.requests, 0), nil)
	perReplica := float64(base.completed) / base.clockEnd

	// Rate-major, config-minor grid (mixed first per rate) — Render
	// leans on this order to pair each split with its mixed baseline.
	var cells []Cell
	for _, mult := range []float64{1.2, 2.4} {
		rate := mult * perReplica * disaggReplicas
		reqs := fleetRequests(p, s.requests, rate)
		for _, spec := range disaggConfigs() {
			cells = append(cells, Cell{
				Label: fmt.Sprintf("disagg/%s/%.3g", spec, rate),
				Run: func() []Row {
					r := driveDisagg(p, s.ratio, disaggReplicas, reqs, spec)
					return []Row{{spec.String(), rate, r.completed, r.goodput(),
						r.handoffs, r.warmFrac(), r.ttftQ.P95, r.gapQ.P95,
						r.clockEnd}}
				},
			})
		}
	}
	return cells
}

func (s disaggStudy) Render(_ Params, results [][]Row) Renderable {
	t := report.NewTable(
		fmt.Sprintf("Disaggregation study: pool split × Poisson rate, %d replicas (affinity router, priced KV migration)", disaggReplicas),
		"pools", "rate(req/s)", "completed", "goodput(req/s)", "handoffs",
		"warm-frac", "p95-TTFT(s)", "p95-gap(s)", "isolation-delta(s)", "makespan(s)")
	group := len(disaggConfigs())
	for i, rows := range results {
		mixed := results[i-i%group][0][disaggGapCol].(float64)
		for _, r := range rows {
			delta := mixed - r[disaggGapCol].(float64)
			out := append(append(Row{}, r[:disaggGapCol+1]...), delta)
			out = append(out, r[disaggGapCol+1:]...)
			t.AddRow(out...)
		}
	}
	return t
}
