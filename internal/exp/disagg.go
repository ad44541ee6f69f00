package exp

import (
	"fmt"

	"hybrimoe/internal/cluster"
	"hybrimoe/internal/report"
)

// disaggConfigs is the pool grid the study contrasts, mixed baseline
// first in each rate group so disaggTable can anchor the isolation
// delta.
func disaggConfigs() []cluster.PoolSpec {
	return []cluster.PoolSpec{
		{},                      // mixed: every replica serves both stages
		{Prefill: 1, Decode: 2}, // decode-heavy split
		{Prefill: 2, Decode: 1}, // prefill-heavy split
	}
}

// disaggReplicas is the fixed fleet size the split grid divides.
const disaggReplicas = 3

// disaggGapCol is the p95 inter-token-gap column index in the rows the
// study's cells emit, which disaggTable reads back to compute
// isolation deltas.
const disaggGapCol = 7

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
func disaggStudy(p Params, requests int, ratio float64) *report.Table {
	base := Drive(fleet(p, ratio, 1, "round-robin"), fleetRequests(p, requests, 0), nil)
	perReplica := float64(base.Completed) / base.Makespan

	// Rate-major, config-minor grid (mixed first per rate) — disaggTable
	// leans on this order to pair each split with its mixed baseline.
	var cells []Cell
	for _, mult := range []float64{1.2, 2.4} {
		rate := mult * perReplica * disaggReplicas
		reqs := fleetRequests(p, requests, rate)
		for _, spec := range disaggConfigs() {
			cells = append(cells, func() []Row {
				r := Drive(fleet(p, ratio, disaggReplicas, "affinity", cluster.WithPools(spec)), reqs, nil)
				return []Row{{spec.String(), rate, r.Completed, r.goodput(),
					r.Handoffs, r.warmFrac(), report.Latencies(r.TTFT).P95,
					report.Latencies(r.Gaps).P95, r.Makespan}}
			})
		}
	}
	return disaggTable(runCells(p, cells))
}

// disaggTable renders the study's per-cell rows, inserting each row's
// isolation delta: the p95 gap of its rate group's leading mixed row
// minus its own.
func disaggTable(results [][]Row) *report.Table {
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
