package cluster

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"hybrimoe/internal/engine"
	"hybrimoe/internal/workload"
)

// parallelScenario is one fleet shape the serial ≡ parallel contract is
// pinned over. Every scenario is rebuilt from scratch per worker count
// so no state leaks between runs.
type parallelScenario struct {
	name string
	opts func(t *testing.T) []Option
	reqs func() []workload.Request
}

// parallelScenarios spans the coupling surfaces a parallel window must
// not perturb: plain routing, stateful affinity routing, fleet
// admission (shed/defer + the observe-fed quantiles), failure churn
// with re-routes, elastic scale-down draining, merged batches (whose
// trailing members are still queued for emission when the batch's
// requests have all finished), and a disaggregated fleet (which must
// silently fall back to the serial path).
func parallelScenarios() []parallelScenario {
	return []parallelScenario{
		{
			name: "burst-round-robin",
			opts: func(t *testing.T) []Option {
				return []Option{
					WithReplicas(4), WithRouter("round-robin"), WithSeed(900),
					WithBuilder(buildReplica(t, 900)), WithMaxConcurrent(2),
				}
			},
			reqs: func() []workload.Request { return burstRequests(900, 24, 10) },
		},
		{
			name: "burst-affinity",
			opts: func(t *testing.T) []Option {
				return []Option{
					WithReplicas(4), WithRouter("affinity"), WithSeed(910),
					WithBuilder(buildReplica(t, 910)), WithMaxConcurrent(2),
				}
			},
			reqs: func() []workload.Request { return burstRequests(910, 24, 10) },
		},
		{
			name: "admission-guarded",
			opts: func(t *testing.T) []Option {
				return []Option{
					WithReplicas(3), WithRouter("least-loaded"), WithSeed(920),
					WithBuilder(buildReplica(t, 920)), WithMaxConcurrent(2),
					WithAdmission(&engine.SLOAdmission{TTFTp95: 0.05, MinSamples: 2, ShedFactor: 1.2}),
				}
			},
			reqs: func() []workload.Request { return burstRequests(920, 24, 16) },
		},
		{
			name: "churn-stall-scale-up",
			opts: func(t *testing.T) []Option {
				return []Option{
					WithReplicas(3), WithRouter("round-robin"), WithSeed(800),
					WithBuilder(buildReplica(t, 800)), WithMaxConcurrent(2),
					WithFailure(1, 0.2, FailStall),
					WithScalePlan(ScaleEvent{At: 0.35, Delta: 1}),
				}
			},
			reqs: func() []workload.Request { return burstRequests(800, 20, 12) },
		},
		{
			name: "scale-down-drain",
			opts: func(t *testing.T) []Option {
				return []Option{
					WithReplicas(4), WithRouter("round-robin"), WithSeed(930),
					WithBuilder(buildReplica(t, 930)), WithMaxConcurrent(2),
					WithScalePlan(ScaleEvent{At: 0.2, Delta: -2}, ScaleEvent{At: 0.5, Delta: 1}),
				}
			},
			reqs: func() []workload.Request { return burstRequests(930, 20, 12) },
		},
		{
			name: "batched-greedy",
			opts: func(t *testing.T) []Option {
				return []Option{
					WithReplicas(3), WithRouter("affinity"), WithSeed(970),
					WithBuilder(buildReplica(t, 970, engine.WithBatchPolicy("greedy", 256))),
					WithMaxConcurrent(4),
				}
			},
			reqs: func() []workload.Request { return burstRequests(970, 12, 0) },
		},
		{
			name: "pooled-1-2",
			opts: func(t *testing.T) []Option {
				return []Option{
					WithReplicas(3), WithRouter("affinity"), WithSeed(840),
					WithBuilder(buildReplica(t, 840)), WithMaxConcurrent(2),
					WithPools(PoolSpec{Prefill: 1, Decode: 2}),
				}
			},
			reqs: func() []workload.Request { return burstRequests(840, 10, 12) },
		},
	}
}

// runScenario drains one freshly-built cluster, checks that every
// offered request is accounted for, and returns its serialised event
// log plus the counters a divergent merge would skew.
func runScenario(t *testing.T, sc parallelScenario, workers int) ([]byte, map[string]int) {
	t.Helper()
	opts := append(sc.opts(t), WithWorkers(workers))
	c, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	reqs := sc.reqs()
	c.Submit(reqs...)
	var events []Event
	c.Run(func(ev Event) { events = append(events, ev) })
	if len(events) == 0 {
		t.Fatalf("%s emitted no events", sc.name)
	}
	checkConservation(t, c, events, len(reqs))
	var buf bytes.Buffer
	if err := WriteEventLog(&buf, events); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), map[string]int{
		"steps":    c.Steps(),
		"shed":     c.Shed(),
		"deferred": c.Deferred(),
		"rerouted": c.Rerouted(),
		"lost":     c.Lost(),
		"handoffs": c.Handoffs(),
	}
}

// checkConservation asserts that every offered request ends exactly one
// way: a Done compute event, a shed (at the fleet door or by a replica
// session), or lost with a dead replica. A driver that stops stepping a
// replica before its queued emissions drain breaks the sum.
func checkConservation(t *testing.T, c *Cluster, events []Event, offered int) {
	t.Helper()
	done := 0
	for _, ev := range events {
		if ev.Kind == EventStep && ev.Done &&
			(ev.Phase == engine.PhasePrefill || ev.Phase == engine.PhaseDecode) {
			done++
		}
	}
	shed := c.Shed()
	for i := 0; i < c.Replicas(); i++ {
		shed += c.Session(i).Shed()
	}
	if done+shed+c.Lost() != offered {
		t.Fatalf("done %d + shed %d + lost %d != offered %d", done, shed, c.Lost(), offered)
	}
}

// TestParallelMatchesSerial is the determinism contract: at every
// worker count, over every fleet shape, the emitted event stream is
// byte-identical to the serial path's and every fleet counter agrees.
// This is the test CI runs under -race — the worker pool's only shared
// mutable state must be the per-replica stacks it partitions.
func TestParallelMatchesSerial(t *testing.T) {
	for _, sc := range parallelScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			want, wantCounters := runScenario(t, sc, 1)
			for _, workers := range []int{2, 4, 8} {
				got, gotCounters := runScenario(t, sc, workers)
				if diff := diffJSONL(want, got); diff != "" {
					t.Fatalf("workers=%d stream diverged from serial:\n%s", workers, diff)
				}
				for k, v := range wantCounters {
					if gotCounters[k] != v {
						t.Fatalf("workers=%d %s = %d, serial %d", workers, k, gotCounters[k], v)
					}
				}
			}
		})
	}
}

// TestParallelGoldensUnregenerated reruns the committed fleet goldens
// with WithWorkers(4): the parallel mode must reproduce the exact bytes
// the serial path committed, with no regeneration. (The two engine-level
// goldens never touch cluster code and are pinned by their own test.)
func TestParallelGoldensUnregenerated(t *testing.T) {
	cases := []struct {
		golden string
		opts   []Option
		reqs   []workload.Request
	}{
		{
			golden: "golden_fleet-churn.jsonl",
			opts: []Option{
				WithReplicas(3), WithRouter("round-robin"), WithSeed(800),
				WithBuilder(buildReplica(t, 800)), WithMaxConcurrent(2),
				WithFailure(1, 0.2, FailStall),
				WithScalePlan(ScaleEvent{At: 0.35, Delta: 1}),
				WithWorkers(4),
			},
			reqs: burstRequests(800, 20, 12),
		},
		{
			golden: "golden_disagg-handoff.jsonl",
			opts: []Option{
				WithReplicas(3), WithRouter("affinity"), WithSeed(840),
				WithBuilder(buildReplica(t, 840)), WithMaxConcurrent(2),
				WithPools(PoolSpec{Prefill: 1, Decode: 2}),
				WithWorkers(4),
			},
			reqs: burstRequests(840, 10, 12),
		},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatalf("missing golden: %v", err)
			}
			c, err := New(tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			c.Submit(tc.reqs...)
			var events []Event
			c.Run(func(ev Event) { events = append(events, ev) })
			var buf bytes.Buffer
			if err := WriteEventLog(&buf, events); err != nil {
				t.Fatal(err)
			}
			if diff := diffJSONL(want, buf.Bytes()); diff != "" {
				t.Fatalf("WithWorkers(4) drifted from committed %s:\n%s", tc.golden, diff)
			}
		})
	}
}

// TestQueueRingPopsWithoutAllocating is the head-drop alloc regression
// pin: draining the fleet emission queue through Step must not allocate
// once the ring's backing array exists — the old c.queue[1:] re-slice
// kept the drained prefix live and forced append to grow a fresh array
// every refill cycle.
func TestQueueRingPopsWithoutAllocating(t *testing.T) {
	c, err := New(WithBuilder(buildReplica(t, 940)))
	if err != nil {
		t.Fatal(err)
	}
	fill := func() {
		for i := 0; i < 64; i++ {
			c.queue = append(c.queue, Event{Replica: FleetReplica, StepEvent: engine.StepEvent{
				Request: i, Phase: engine.PhaseShed, Done: true,
			}})
		}
	}
	fill() // establish ring capacity before measuring
	for c.qhead < len(c.queue) {
		if _, ok := c.Step(); !ok {
			t.Fatal("Step refused with queued events")
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		fill()
		for i := 0; i < 64; i++ {
			if _, ok := c.Step(); !ok {
				t.Fatal("Step refused with queued events")
			}
		}
	})
	if allocs > 0 {
		t.Fatalf("queue ring drain allocated %.1f times per refill cycle, want 0", allocs)
	}
	if len(c.queue) != 0 || c.qhead != 0 {
		t.Fatalf("drained ring not reset: len %d head %d", len(c.queue), c.qhead)
	}
}

// TestViewsScratchReused pins the dispatch-time allocation diet: after
// one warm-up, assembling router views reuses the per-cluster scratch
// buffer instead of allocating per dispatched request.
func TestViewsScratchReused(t *testing.T) {
	c, err := New(WithReplicas(4), WithBuilder(buildReplica(t, 950)))
	if err != nil {
		t.Fatal(err)
	}
	head := &fleetRequest{req: workload.Request{ID: 1, PromptTokens: 8, DecodeTokens: 2}}
	c.views(0, head) // size the scratch
	allocs := testing.AllocsPerRun(10, func() {
		if len(c.views(0, head)) != 4 {
			t.Fatal("expected all four replicas in view")
		}
	})
	if allocs > 0 {
		t.Fatalf("views allocated %.1f times per call after warm-up, want 0", allocs)
	}
}

// TestClusterWorkersValidation mirrors the option-validation idiom for
// the new knob.
func TestClusterWorkersValidation(t *testing.T) {
	build := buildReplica(t, 960)
	for _, n := range []int{0, -1} {
		if _, err := New(WithBuilder(build), WithWorkers(n)); err == nil {
			t.Fatalf("WithWorkers(%d) accepted", n)
		}
	}
	for _, n := range []int{1, 2, 16} {
		if _, err := New(WithBuilder(build), WithWorkers(n)); err != nil {
			t.Fatalf("WithWorkers(%d) rejected: %v", n, err)
		}
	}
}

// TestParallelSingleReplica pins the degenerate window: one replica,
// many workers — every window has exactly one candidate, runs inline,
// and still reproduces the bare-session stream the 1-replica cluster
// contract promises.
func TestParallelSingleReplica(t *testing.T) {
	const seed, n, rate = 600, 14, 6.0
	serial, err := New(WithBuilder(buildReplica(t, seed)), WithMaxConcurrent(3))
	if err != nil {
		t.Fatal(err)
	}
	serial.Submit(burstRequests(seed, n, rate)...)
	var want []Event
	serial.Run(func(ev Event) { want = append(want, ev) })

	par, err := New(WithBuilder(buildReplica(t, seed)), WithMaxConcurrent(3), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	par.Submit(burstRequests(seed, n, rate)...)
	i := 0
	par.Run(func(ev Event) {
		if i >= len(want) {
			t.Fatalf("parallel emitted extra event %d: %+v", i, ev)
		}
		if fmt.Sprintf("%+v", ev) != fmt.Sprintf("%+v", want[i]) {
			t.Fatalf("event %d diverged:\n  serial:   %+v\n  parallel: %+v", i, want[i], ev)
		}
		i++
	})
	if i != len(want) {
		t.Fatalf("parallel emitted %d events, serial %d", i, len(want))
	}
}
