package exp

import (
	"strings"
	"testing"

	"hybrimoe/internal/cluster"
	"hybrimoe/internal/report"
)

// TestDisaggIsolationAtSaturation pins the tentpole acceptance claim at
// the study's saturating rate: splitting the fleet into a 1:2
// prefill/decode disaggregation must drop p95 time-between-tokens below
// the mixed baseline even though every migrated KV working set pays the
// interconnect, and the migrated requests must land warm — the affinity
// router steers each handoff toward the decode replica already holding
// its experts, so the working-set admission finds non-zero residency.
func TestDisaggIsolationAtSaturation(t *testing.T) {
	p := QuickParams()
	const requests, ratio = 18, 0.25

	base := Drive(fleet(p, ratio, 1, "round-robin"), fleetRequests(p, requests, 0), nil)
	perReplica := float64(base.Completed) / base.Makespan
	rate := 2.4 * perReplica * disaggReplicas
	reqs := fleetRequests(p, requests, rate)

	disagg := func(spec cluster.PoolSpec) *Tally {
		return Drive(fleet(p, ratio, disaggReplicas, "affinity", cluster.WithPools(spec)), reqs, nil)
	}
	mixed := disagg(cluster.PoolSpec{})
	split := disagg(cluster.PoolSpec{Prefill: 1, Decode: 2})

	if mixed.Completed != requests || split.Completed != requests {
		t.Fatalf("completions mixed=%d split=%d, want %d each",
			mixed.Completed, split.Completed, requests)
	}
	if mixed.Handoffs != 0 {
		t.Fatalf("mixed baseline migrated %d requests, want 0", mixed.Handoffs)
	}
	if split.Handoffs != requests {
		t.Fatalf("split migrated %d requests, want every one of %d", split.Handoffs, requests)
	}
	if split.MigratedExperts == 0 || split.WarmExperts == 0 {
		t.Fatalf("migrated working sets landed cold: %d/%d experts warm",
			split.WarmExperts, split.MigratedExperts)
	}
	splitGap, mixedGap := report.Latencies(split.Gaps).P95, report.Latencies(mixed.Gaps).P95
	if splitGap >= mixedGap {
		t.Errorf("disaggregated p95 inter-token gap %.4f did not beat mixed %.4f at rate %.2f",
			splitGap, mixedGap, rate)
	}
}

// TestDisaggRenderAnchorsMixedDelta checks the isolation-delta column
// arithmetic on fabricated results: within each rate group the delta is
// the mixed row's p95 gap minus the row's own, so mixed anchors at zero
// and a split that halves the gap shows the saved seconds positively.
func TestDisaggRenderAnchorsMixedDelta(t *testing.T) {
	mk := func(pools string, gap float64) []Row {
		return []Row{{pools, 1.0, 9, 1.5, 0, 0.0, 0.1, gap, 2.0}}
	}
	results := [][]Row{
		mk("mixed", 0.5), mk("1:2", 0.25), mk("2:1", 0.75),
		mk("mixed", 4.0), mk("1:2", 2.0), mk("2:1", 8.0),
	}
	out := disaggTable(results).String()
	if !strings.Contains(out, "isolation-delta(s)") {
		t.Fatalf("render lost the isolation-delta column:\n%s", out)
	}
	for _, want := range []string{"0.25", "-0.25", "2", "-4"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing expected delta %q:\n%s", want, out)
		}
	}
}

// TestDisaggStudyGridShape pins the grid: rate-major, config-minor with
// the mixed baseline leading every rate group — the order disaggTable's
// delta anchoring depends on — read off the rendered pools column.
func TestDisaggStudyGridShape(t *testing.T) {
	out := disaggStudy(QuickParams(), 4, 0.25).String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	var pools []string
	for _, line := range lines[3:] { // title, header, rule
		pools = append(pools, strings.Fields(line)[0])
	}
	const want = "mixed,1:2,2:1,mixed,1:2,2:1" // 2 rates × mixed-first configs
	if got := strings.Join(pools, ","); got != want {
		t.Fatalf("pools column %s, want %s:\n%s", got, want, out)
	}
}

// TestDisaggRunDerivedMetrics keeps warmFrac honest on its edges.
func TestDisaggRunDerivedMetrics(t *testing.T) {
	var zero Tally
	if zero.warmFrac() != 0 {
		t.Fatal("zero-value Tally must not divide by zero")
	}
	r := &Tally{WarmExperts: 3, MigratedExperts: 4}
	if got := r.warmFrac(); got != 0.75 {
		t.Fatalf("warmFrac = %v, want 0.75", got)
	}
}
