package exp

import (
	"strings"
	"testing"

	"hybrimoe/internal/cluster"
	"hybrimoe/internal/report"
)

// TestFleetStudyAffinityMeetsRoundRobin pins the fleet study's headline
// claim at the acceptance shape: a 4-replica fleet at equal per-replica
// hardware, swept over the study's Poisson rate grid, where affinity
// routing must match or beat content-blind round-robin on aggregate
// goodput at every rate and strictly beat it at least once. The sweep
// mirrors FleetStudy's calibration exactly (single-replica closed-loop
// capacity and forward p95 anchoring the shared SLO guard) so the test
// guards the same numbers the rendered table reports.
func TestFleetStudyAffinityMeetsRoundRobin(t *testing.T) {
	p := QuickParams()
	const requests, replicas, ratio = 16, 4, 0.25

	base := Drive(fleet(p, ratio, 1, "round-robin"), fleetRequests(p, requests, 0), nil)
	perReplica := float64(base.Completed) / base.Makespan
	guard := fleetGuard(report.Latencies(base.TTFT).P95)

	strictly := false
	for _, mult := range []float64{1.5, 4} {
		rate := mult * perReplica * replicas
		reqs := fleetRequests(p, requests, rate)
		aff := Drive(fleet(p, ratio, replicas, "affinity", cluster.WithAdmission(guard())), reqs, nil)
		rr := Drive(fleet(p, ratio, replicas, "round-robin", cluster.WithAdmission(guard())), reqs, nil)
		if aff.goodput() < rr.goodput() {
			t.Errorf("rate %.2f: affinity goodput %.3f < round-robin %.3f",
				rate, aff.goodput(), rr.goodput())
		}
		if aff.goodput() > rr.goodput() {
			strictly = true
		}
	}
	if !strictly {
		t.Error("affinity never strictly beat round-robin at any swept rate")
	}
}

// TestFleetStudyRendersEveryRouter checks the rendered table carries one
// row per registered router for every replicas × rate cell, so a router
// added to the registry cannot silently drop out of the study.
func TestFleetStudyRendersEveryRouter(t *testing.T) {
	p := QuickParams()
	table := FleetStudy(p, 8, []int{2}, 0.25)
	var sb strings.Builder
	table.Render(&sb)
	out := sb.String()
	for _, name := range cluster.RouterNames() {
		if want, got := 2, strings.Count(out, name+" "); got != want {
			t.Errorf("router %q appears %d times, want %d (one per rate)\n%s",
				name, got, want, out)
		}
	}
}

// TestFleetRunDerivedMetrics keeps the tally honest on its derived
// ratios.
func TestFleetRunDerivedMetrics(t *testing.T) {
	r := &Tally{Offered: 8, Completed: 6, Shed: 2, Makespan: 3.0}
	if got := r.shedFraction(); got != 0.25 {
		t.Fatalf("shedFraction = %v, want 0.25", got)
	}
	if got := r.goodput(); got != 2.0 {
		t.Fatalf("goodput = %v, want 2.0", got)
	}
	var zero Tally
	if zero.shedFraction() != 0 || zero.goodput() != 0 {
		t.Fatal("zero-value Tally must not divide by zero")
	}
}
