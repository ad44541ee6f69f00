package main

import (
	"strings"
	"testing"

	"hybrimoe/internal/cache"
	"hybrimoe/internal/cluster"
	"hybrimoe/internal/engine"
	"hybrimoe/internal/exp"
	"hybrimoe/internal/prefetch"
	"hybrimoe/internal/reqsched"
	"hybrimoe/internal/sched"
	"hybrimoe/internal/workload"
)

// runExpFleet drives exp.NewFleet's fleet over the same trace, through
// the benchmark's collector, so the two builders compare by digest.
func runExpFleet(t *testing.T, spec fleetSpec, seed uint64, reqs []workload.Request) outcome {
	t.Helper()
	c, err := exp.NewFleet(spec.replicas, "affinity", seed, fleetRatio,
		append(spec.extra(nil), cluster.WithWorkers(2))...)
	if err != nil {
		t.Fatal(err)
	}
	return runFleet(c, reqs, nil)
}

func runOwnFleet(t *testing.T, spec fleetSpec, seed uint64, reqs []workload.Request, rec *recorder) outcome {
	t.Helper()
	c, err := buildFleet(spec, seed, rec, cluster.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	return runFleet(c, reqs, rec)
}

// TestFleetBuilderMatchesNewFleet pins the benchmark's fleet builder to
// exp.NewFleet: same seed and options, same event digest, traced or not.
func TestFleetBuilderMatchesNewFleet(t *testing.T) {
	const seed = 3
	// The whole churn trace reaches the stall, the cold join and the
	// guard's trip; -short keeps only its head.
	churn := mustPrepare(t, "fleet-disagg-churn", seed).reqs
	if testing.Short() {
		churn = churn[:40]
	}
	for _, tc := range []struct {
		name string
		spec fleetSpec
		reqs []workload.Request
	}{
		{"fleet-steady", steadySpec, mustPrepare(t, "fleet-steady", seed).reqs[:40]},
		{"fleet-disagg-churn", churnSpec, churn},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := runExpFleet(t, tc.spec, seed, tc.reqs)
			got := runOwnFleet(t, tc.spec, seed, tc.reqs, nil)
			traced := runOwnFleet(t, tc.spec, seed, tc.reqs, newRecorder())
			if got.digest != want.digest || traced.digest != want.digest {
				t.Fatalf("digests: exp.NewFleet %016x, builder %016x, traced builder %016x",
					want.digest, got.digest, traced.digest)
			}
			for _, o := range []outcome{want, got, traced} {
				if len(o.failures) > 0 {
					t.Fatalf("output checks failed: %v", o.failures)
				}
			}
		})
	}
}

func mustPrepare(t *testing.T, name string, seed uint64) *inputs {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	return w.prepare(seed)
}

// TestPaperSpeedupsMatchExp pins paper-offline's speedups to the
// experiment package's definitions at the same seed and decode steps.
func TestPaperSpeedupsMatchExp(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the Fig. 7/8 grids twice")
	}
	const seed = 5
	in := mustPrepare(t, "paper-offline", seed)
	batch, err := in.setup(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	o := batch()
	p := exp.Params{Seed: seed, DecodeSteps: paperDecodeSteps}
	if want := exp.Fig7MeanSpeedup(p); o.speedPrefill != want {
		t.Errorf("prefill speedup %v, exp.Fig7MeanSpeedup %v", o.speedPrefill, want)
	}
	if want := exp.Fig8MeanSpeedup(p); o.speedDecode != want {
		t.Errorf("decode speedup %v, exp.Fig8MeanSpeedup %v", o.speedDecode, want)
	}
	if len(o.failures) > 0 {
		t.Errorf("output checks failed: %v", o.failures)
	}
}

// TestDecoratorsForwardIdentity checks that every decorator reports the
// wrapped plugin's name and that schedulers keep the DeviceAware marker.
func TestDecoratorsForwardIdentity(t *testing.T) {
	p := &probe{t: newTracer().newTrack()}
	for _, name := range undecorated(sched.Names()) {
		inner, err := sched.New(name, sched.Config{GPULayer: func(int) bool { return false }})
		if err != nil {
			t.Fatal(err)
		}
		w := wrapScheduler(inner, p)
		if w.Name() != inner.Name() {
			t.Errorf("scheduler %s: decorated Name %q, want %q", name, w.Name(), inner.Name())
		}
		if sched.IsDeviceAware(w) != sched.IsDeviceAware(inner) {
			t.Errorf("scheduler %s: decorated DeviceAware %v, want %v", name, sched.IsDeviceAware(w), sched.IsDeviceAware(inner))
		}
	}
	for _, name := range undecorated(cache.Names()) {
		inner, _ := cache.NewPolicy(name, 2)
		if w := (&timedPolicy{inner: inner, p: p}); w.Name() != inner.Name() {
			t.Errorf("cache policy %s: decorated Name %q", name, w.Name())
		}
	}
	for _, name := range prefetch.Names() {
		inner, _ := prefetch.New(name)
		if w := (&timedPrefetcher{inner: inner, p: p}); w.Name() != inner.Name() {
			t.Errorf("prefetcher %s: decorated Name %q", name, w.Name())
		}
	}
	for _, name := range undecorated(reqsched.Names()) {
		inner, _ := reqsched.New(name)
		if w := (&timedReqSched{inner: inner}); w.Name() != inner.Name() {
			t.Errorf("request scheduler %s: decorated Name %q", name, w.Name())
		}
	}
	r, _ := cluster.NewRouter("affinity", cluster.RouterConfig{Replicas: 2})
	if w := newRecorder().router(r); w.Name() != r.Name() {
		t.Errorf("router: decorated Name %q", w.Name())
	}
	a := engine.NewSLOAdmission(1, 0)
	if w := newRecorder().admission(a); w.Name() != a.Name() {
		t.Errorf("admission: decorated Name %q", w.Name())
	}
}

// undecorated drops the benchmark's own registry entries.
func undecorated(names []string) []string {
	var out []string
	for _, n := range names {
		if !strings.HasPrefix(n, decoratedPrefix) {
			out = append(out, n)
		}
	}
	return out
}

// TestSelfTimeSubtractsCoveredChildTime checks the span arithmetic: a
// span's self time is its duration minus the union of its children's
// intervals (overlapping children on other tracks count once), and
// grandchildren only reduce their own parent.
func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	tr := newTracer()
	eng := tr.newTrack()
	put := func(t *track, k spanKind, start, end int64, parent spanRef) spanRef {
		t.spans = append(t.spans, span{start: start, end: end, parent: parent, req: -1, kind: k})
		return mkRef(t.id, int32(len(t.spans)-1))
	}
	step := put(tr.main, kClusterStep, 0, 100, noSpan)
	sel := put(eng, kPrefetchSelect, 10, 30, step)
	put(eng, kSchedPlan, 15, 20, sel)
	put(tr.shared, kReqschedNext, 25, 50, step) // overlaps the select
	put(tr.main, kRouterPick, 90, 120, step)    // clipped at the step's end

	ks := tr.summarize()
	for _, c := range []struct {
		k    spanKind
		self int64
	}{
		{kClusterStep, 100 - (50 - 10) - (100 - 90)},
		{kPrefetchSelect, 20 - 5},
		{kSchedPlan, 5},
		{kReqschedNext, 25},
		{kRouterPick, 30},
	} {
		if got := ks[c.k].selfNs; got != c.self {
			t.Errorf("%s self %d, want %d", kindNames[c.k], got, c.self)
		}
	}
	if ks[kClusterStep].totalNs != 100 || ks[kClusterStep].calls != 1 {
		t.Errorf("cluster.step total %d calls %d", ks[kClusterStep].totalNs, ks[kClusterStep].calls)
	}
}

// TestTrackNestingFollowsTheCallStack checks parent links recorded live:
// engine-track spans with nothing open on their own track hang off the
// innermost open main-track span.
func TestTrackNestingFollowsTheCallStack(t *testing.T) {
	tr := newTracer()
	eng := tr.newTrack()
	step := tr.main.begin(kClusterStep, -1)
	sel := eng.begin(kPrefetchSelect, -1)
	plan := eng.begin(kSchedPlan, -1)
	eng.end(plan)
	eng.end(sel)
	tr.main.end(step)
	after := eng.begin(kCacheTouch, -1)
	eng.end(after)

	if got := eng.spans[sel].parent; got != mkRef(tr.main.id, step) {
		t.Errorf("select parent %v, want the cluster step", got)
	}
	if got := eng.spans[plan].parent; got != mkRef(eng.id, sel) {
		t.Errorf("plan parent %v, want the select", got)
	}
	if got := eng.spans[after].parent; got != noSpan {
		t.Errorf("span after the step closed has parent %v", got)
	}
}

// TestPercentileRule checks nearest-rank quantiles and the rule that a
// tail is reported valid only with ten samples beyond it.
func TestPercentileRule(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	if got := quantile(xs, 0.95); got != 190 {
		t.Errorf("p95 of 1..200 = %v, want 190", got)
	}
	if got := quantile(xs, 0.5); got != 100 {
		t.Errorf("p50 of 1..200 = %v, want 100", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile %v", got)
	}
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{{200, 0.95, true}, {199, 0.95, false}, {1000, 0.99, true}, {999, 0.99, false}, {20, 0.5, true}} {
		if got := tailValid(c.n, c.p); got != c.want {
			t.Errorf("tailValid(%d, %v) = %v", c.n, c.p, got)
		}
	}
}

// TestSLOAttainCountsShedAndLostAsMisses feeds the fleet collector one
// request per fate and checks slo_attain's denominator is the offered
// load: shed and lost requests are misses, not exclusions.
func TestSLOAttainCountsShedAndLostAsMisses(t *testing.T) {
	reqs := []workload.Request{
		{ID: 0, PromptTokens: 10, DecodeTokens: 2}, // meets the SLO
		{ID: 1, PromptTokens: 10, DecodeTokens: 1}, // finishes, TTFT too long
		{ID: 2, PromptTokens: 10, DecodeTokens: 1}, // shed at the door
		{ID: 3, PromptTokens: 10, DecodeTokens: 4}, // lost mid-decode
	}
	fc := newFleetCollector(reqs)
	step := func(id int, ph engine.Phase, end, lat float64, done bool) {
		fc.add(cluster.Event{Replica: 0, StepEvent: engine.StepEvent{
			Request: id, Phase: ph, Tokens: 1, Start: end - lat, End: end, Latency: lat, Done: done,
			Hits: 1, BatchSize: 1,
		}})
	}
	step(0, engine.PhasePrefill, 0.2, 0.2, false)
	step(0, engine.PhaseDecode, 0.25, 0.05, false)
	step(0, engine.PhaseDecode, 0.3, 0.05, true)
	step(1, engine.PhasePrefill, 2*ttftLimit, 2*ttftLimit, false)
	step(1, engine.PhaseDecode, 2*ttftLimit+0.01, 0.01, true)
	fc.add(cluster.Event{Replica: cluster.FleetReplica, StepEvent: engine.StepEvent{Request: 2, Phase: engine.PhaseShed, Done: true}})
	step(3, engine.PhasePrefill, 0.1, 0.1, false)
	step(3, engine.PhaseDecode, 0.15, 0.05, false)
	fc.o.lost = 1

	o := fc.check(fc.o.sim.hits + fc.o.sim.misses)
	if len(o.failures) > 0 {
		t.Fatalf("checks failed: %v", o.failures)
	}
	if o.sloMet != 1 || o.sloOffered != 4 {
		t.Errorf("slo %d of %d, want 1 of 4", o.sloMet, o.sloOffered)
	}
	if o.done != 2 || o.shed != 1 {
		t.Errorf("done %d shed %d, want 2 and 1", o.done, o.shed)
	}

	fc.o.lost = 0
	if o := fc.check(fc.o.sim.hits + fc.o.sim.misses); len(o.failures) == 0 {
		t.Error("conservation check passed with a request unaccounted for")
	}
}
