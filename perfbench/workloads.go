package main

import (
	"fmt"
	"runtime"

	"hybrimoe/internal/cluster"
	"hybrimoe/internal/engine"
	"hybrimoe/internal/exp"
	"hybrimoe/internal/hw"
	"hybrimoe/internal/moe"
	"hybrimoe/internal/workload"
)

// Fixed workload parameters. Rates are in simulated requests per
// second; limits in simulated seconds.
const (
	// fleetRatio is the expert-cache ratio of every fleet replica (the
	// production shape: DeepSeek, 25% MRS cache).
	fleetRatio = 0.25
	// decodeCap clamps every fleet request's decode length. Short
	// requests buy samples: at 4 decode steps a run holds twice the
	// requests it would at 8 for the same host time, and the TTFT and
	// TBT tails of a 200-request run moved 15-60% between seeds.
	decodeCap = 4
	// traceSeed draws the fleet workloads' request trace (prompt and
	// decode lengths, arrival stamps), the same for every seed; see
	// fleetInputs.
	traceSeed = 2025

	steadyReplicas = 4
	// steadyRequests keeps a batch near 25 host CPU seconds on a 2-core
	// host, with 15 TTFT samples beyond the p95.
	steadyRequests = 300
	// steadyRate is about two-thirds of the 4-replica fleet's capacity
	// (18 req/s closed loop at decodeCap), so the backlog stays flat.
	steadyRate = 12.0

	churnReplicas = 3
	churnRequests = 520
	// churnRate is the bursty stream's long-run mean. Arrivals come at
	// 1.25x that during on phases and 0.75x during off phases, each
	// phase lasting 2 mean gaps on average, so on phases drive the single
	// prefill replica near its capacity. A higher mean, or sharper or
	// longer bursts, lets one burst's backlog set the TTFT tail, which
	// then swings 2-3x between seeds.
	churnRate = 3.5
	// churnStallAt stalls decode replica 2 about 0.3 into the arrival
	// span; a cold replica joins at the same instant.
	churnStallAt = 45.0
	// churnAdmitTTFT is the fleet-door guard's p95 TTFT target. It sits
	// below what the prefill replica delivers, so the guard trips as
	// soon as it acts, once it holds churnGuardSamples observations
	// (twenty beyond its p95). The guard's quantiles never forget, so
	// once tripped it sheds every later arrival: the last 120 of the
	// 520 requests.
	churnAdmitTTFT    = 0.12
	churnGuardSamples = 400

	// ttftLimit and tbtLimit are the SLO a request must meet to count
	// toward slo_attain: queue-inclusive TTFT and mean inter-token gap.
	ttftLimit = 1.0
	tbtLimit  = 0.1

	// paperDecodeSteps is the Fig. 8 decode length per cell.
	paperDecodeSteps = 50
	// speedupSample is how many of a fleet workload's requests are
	// replayed on fresh HybriMoE and kTransformers engines for its
	// speedup metrics.
	speedupSample = 8
)

// Paper references (HybriMoE, DAC'25): mean speedups over kTransformers.
const (
	paperPrefillSpeedup = 1.33
	paperDecodeSpeedup  = 1.70
)

// outcome is what one batch simulated, plus its output-check failures.
type outcome struct {
	offered, done, shed, lost int
	// tokens counts the simulated prompt and decode tokens processed.
	tokens int
	// ttft and tbt are the simulated latency samples in seconds: TTFT
	// per prefill (queue-inclusive), TBT per decode step (fleets: the
	// inter-token gap, first gap anchored at prefill completion).
	ttft, tbt []float64
	// sloMet counts requests that finished within ttftLimit and
	// tbtLimit; sloOffered is the denominator.
	sloMet, sloOffered int
	digest             uint64
	failures           []string
	// speedups over kTransformers (paper-offline: the Fig. 7/8 grids).
	speedPrefill, speedDecode float64
	sim                       simLayers
}

// simLayers holds the simulated per-layer counters of a batch.
type simLayers struct {
	hits, misses            int64
	steps, batchSum, events int
	// modelledStepTime sums the simulated step latency of HybriMoE
	// engines, the denominator of the busy shares.
	modelledStepTime                  float64
	queueWaits                        []float64
	handoffs, warmExperts, allExperts int
	rerouted, deferred                int
}

func (o *outcome) failf(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// addStep folds one compute step into the simulated layer counters.
func (s *simLayers) addStep(ev engine.StepEvent) {
	s.hits += ev.Hits
	s.misses += ev.Misses
	s.steps++
	s.batchSum += ev.BatchSize
}

// workloadDef is one named workload; prepare draws its inputs from the
// seed.
type workloadDef struct {
	name, why string
	prepare   func(seed uint64) *inputs
}

// inputs are a workload's generated inputs for one seed. setup builds
// the engines or fleet of one batch (timed as set-up) and returns the
// batch itself (timed as the run).
type inputs struct {
	seed  uint64
	reqs  []workload.Request
	setup func(in *inputs, rec *recorder) (func() outcome, error)
	// speedups computes the speedup metrics outside the timed batch
	// (nil when the batch itself yields them).
	speedups func(in *inputs) (pre, dec float64, err error)
}

var workloads = []workloadDef{
	{
		name: "paper-offline",
		why:  "Fig. 7/8 grids, HybriMoE vs kTransformers (paper: 1.33x prefill, 1.70x decode), 3 models x 25/50/75% cache; fleet layers idle, so fleet work predicts no change",
		prepare: func(seed uint64) *inputs {
			return &inputs{seed: seed, setup: setupPaper}
		},
	},
	{
		name: "fleet-steady",
		why:  "4-replica DeepSeek fleet, affinity router, fixed 300-request trace at Poisson 12 req/s (2/3 capacity), decode cap 4, SLO TTFT 1 s, mean TBT 0.1 s; MRS eviction and prefetch hot",
		prepare: func(seed uint64) *inputs {
			return fleetInputs(seed, steadyRequests, workload.Poisson(steadyRate), setupSteady)
		},
	},
	{
		name: "fleet-disagg-churn",
		why:  "1 prefill + 2 decode replicas, fixed 520-request bursty 3.5 req/s trace, SLO guard (p95 TTFT 0.12 s) sheds after 400 samples, stall + cold join; seed 1 default, 7919 held out",
		prepare: func(seed uint64) *inputs {
			arrivals := workload.Bursty(1.25*churnRate, 0.75*churnRate, 2/churnRate, 2/churnRate)
			return fleetInputs(seed, churnRequests, arrivals, setupChurn)
		},
	},
}

func findWorkload(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// fleetInputs replays one request trace on every seed: n requests with
// prompt and decode lengths from the three corpora and arrival stamps
// from the given process, all drawn under traceSeed. The seed draws
// every replica's routing trace and the router's. With arrivals drawn
// from the seed, one burst's backlog set the tails: across seeds 1-10
// the p95 TTFT moved 16% on fleet-disagg-churn and the p99 TBT 16% on
// fleet-steady (and p95 TTFT 26% over another ten seeds), against 1-4%
// with the trace fixed. A redrawn request sample moved the p95 TTFT of
// 200 requests 35%.
func fleetInputs(seed uint64, n int, arrivals workload.ArrivalProcess,
	setup func(*inputs, *recorder) (func() outcome, error)) *inputs {
	reqs := workload.NewStream(traceSeed, workload.AllDatasets()...).WithArrivals(arrivals).NextN(n)
	workload.CapDecode(reqs, decodeCap)
	return &inputs{seed: seed, reqs: reqs, setup: setup, speedups: sampledSpeedups}
}

// ---- paper-offline ----

// paperCell is one engine run of the Fig. 7 or Fig. 8 grid.
type paperCell struct {
	prefill   bool
	length    int // prompt tokens (Fig. 7) or decode steps (Fig. 8)
	modelled  bool
	eng       *engine.Engine
	ses       *engine.Session
	total     float64
	latencies []float64
}

// setupPaper builds a fresh engine and session per grid cell, in the
// order exp.Fig7MeanSpeedup and exp.Fig8MeanSpeedup build theirs.
func setupPaper(in *inputs, rec *recorder) (func() outcome, error) {
	platform := hw.A6000Platform()
	var cells []*paperCell
	add := func(cfg *moe.Config, ratio float64, prefill bool, length int) error {
		for _, fw := range []engine.Framework{engine.KTransformersFramework(), engine.HybriMoEFramework()} {
			e, err := rec.newEngine(cfg, platform, fw, engine.WithCacheRatio(ratio), engine.WithSeed(in.seed))
			if err != nil {
				return err
			}
			cells = append(cells, &paperCell{prefill: prefill, length: length,
				modelled: fw.Name == engine.HybriMoEFramework().Name, eng: e, ses: e.NewSession()})
		}
		return nil
	}
	for _, cfg := range moe.AllModels() {
		for _, ratio := range exp.CacheRatios {
			for _, length := range exp.PrefillLengths {
				if err := add(cfg, ratio, true, length); err != nil {
					return nil, err
				}
			}
		}
	}
	for _, cfg := range moe.AllModels() {
		for _, ratio := range exp.CacheRatios {
			if err := add(cfg, ratio, false, paperDecodeSteps); err != nil {
				return nil, err
			}
		}
	}
	return func() outcome { return runPaper(cells, rec) }, nil
}

func runPaper(cells []*paperCell, rec *recorder) outcome {
	var o outcome
	d := newDigest()
	for ci, c := range cells {
		req := workload.Request{PromptTokens: c.length}
		if !c.prefill {
			req = workload.Request{DecodeTokens: c.length}
		}
		c.ses.Submit(req)
		o.offered++
		done, decoded := false, 0
		var lookups int64
		for {
			i := rec.begin(kSessionStep)
			ev, ok := c.ses.Step()
			if !ok {
				rec.end(i, -1)
				break
			}
			rec.end(i, ev.Request)
			d.event(ci, "", ev)
			o.sim.addStep(ev)
			if c.modelled {
				o.sim.modelledStepTime += ev.Latency
			}
			o.tokens += ev.Tokens
			c.total += ev.Latency
			c.latencies = append(c.latencies, ev.Latency)
			lookups += ev.Hits + ev.Misses
			if ev.Phase == engine.PhaseDecode {
				decoded++
			}
			done = done || ev.Done
		}
		if done {
			o.done++
		}
		if decoded != req.DecodeTokens {
			o.failf("paper cell %d decoded %d of %d tokens", ci, decoded, req.DecodeTokens)
		}
		caches := c.eng.Caches()
		if got := caches.Hits() + caches.Misses(); got != lookups {
			o.failf("paper cell %d: cache counters saw %d lookups, step events %d", ci, got, lookups)
		}
		if !c.modelled {
			continue
		}
		o.sloOffered++
		if c.prefill {
			o.ttft = append(o.ttft, c.total)
			if c.total <= ttftLimit {
				o.sloMet++
			}
		} else {
			o.tbt = append(o.tbt, c.latencies...)
			if c.total/float64(len(c.latencies)) <= tbtLimit {
				o.sloMet++
			}
		}
	}
	o.digest = d.sum()
	// Cells alternate kTransformers, HybriMoE; the speedups are the mean
	// per-pair ratios, in the grid order and arithmetic of
	// exp.Fig7MeanSpeedup and exp.Fig8MeanSpeedup.
	var preSum, decSum float64
	var preN, decN int
	for i := 0; i+1 < len(cells); i += 2 {
		kt, hy := cells[i], cells[i+1]
		if kt.prefill {
			preSum += kt.total / hy.total
			preN++
			continue
		}
		decSum += (kt.total / float64(len(kt.latencies))) / (hy.total / float64(len(hy.latencies)))
		decN++
	}
	o.speedPrefill = preSum / float64(preN)
	o.speedDecode = decSum / float64(decN)
	if o.done != o.offered {
		o.failf("paper grid finished %d of %d runs", o.done, o.offered)
	}
	return o
}

// ---- fleets ----

// fleetSpec is a fleet workload's configuration on top of the canonical
// fleet exp.NewFleet assembles.
type fleetSpec struct {
	replicas int
	extra    func(rec *recorder) []cluster.Option
}

var steadySpec = fleetSpec{replicas: steadyReplicas, extra: func(*recorder) []cluster.Option { return nil }}

var churnSpec = fleetSpec{replicas: churnReplicas, extra: func(rec *recorder) []cluster.Option {
	return []cluster.Option{
		cluster.WithPools(cluster.PoolSpec{Prefill: 1, Decode: 2}),
		cluster.WithAdmission(rec.admission(&engine.SLOAdmission{TTFTp95: churnAdmitTTFT, MinSamples: churnGuardSamples, ShedFactor: 1.5})),
		cluster.WithFailure(2, churnStallAt, cluster.FailStall),
		cluster.WithScalePlan(cluster.ScaleEvent{At: churnStallAt, Delta: 1}),
	}
}}

// workers is the replica-stepping parallelism: one goroutine per CPU.
func workers() int { return runtime.NumCPU() }

// buildFleet assembles exactly what exp.NewFleet(spec.replicas,
// "affinity", seed, fleetRatio, opts...) would — same builder, router
// configuration and concurrency — but with the benchmark's engine and
// router construction, so a traced fleet carries the decorators.
func buildFleet(spec fleetSpec, seed uint64, rec *recorder, opts ...cluster.Option) (*cluster.Cluster, error) {
	n := spec.replicas
	build := func(i int) (*engine.Engine, error) {
		eopts := []engine.Option{
			engine.WithCacheRatio(fleetRatio),
			engine.WithSeed(cluster.ReplicaSeed(seed, i)),
		}
		if i >= n {
			eopts = append(eopts, engine.WithWarmupIters(0))
		}
		return rec.newEngine(moe.DeepSeek(), hw.A6000Platform(), engine.HybriMoEFramework(), eopts...)
	}
	router, err := cluster.NewRouter("affinity", cluster.RouterConfig{
		Replicas: n, Seed: seed, LeaseTTL: cluster.DefaultLeaseTTL,
	})
	if err != nil {
		return nil, err
	}
	all := []cluster.Option{
		cluster.WithReplicas(n),
		cluster.WithRouterInstance(rec.router(router)),
		cluster.WithBuilder(build),
		cluster.WithSeed(seed),
		cluster.WithMaxConcurrent(exp.FleetConcurrent),
	}
	all = append(all, spec.extra(rec)...)
	return cluster.New(append(all, opts...)...)
}

func setupSteady(in *inputs, rec *recorder) (func() outcome, error) {
	return setupFleet(steadySpec, in, rec)
}

func setupChurn(in *inputs, rec *recorder) (func() outcome, error) {
	return setupFleet(churnSpec, in, rec)
}

func setupFleet(spec fleetSpec, in *inputs, rec *recorder) (func() outcome, error) {
	c, err := buildFleet(spec, in.seed, rec, cluster.WithWorkers(workers()))
	if err != nil {
		return nil, err
	}
	return func() outcome { return runFleet(c, in.reqs, rec) }, nil
}

// runFleet submits the whole trace and steps the fleet until it drains.
func runFleet(c *cluster.Cluster, reqs []workload.Request, rec *recorder) outcome {
	fc := newFleetCollector(reqs)
	c.Submit(reqs...)
	for {
		i := rec.begin(kClusterStep)
		ev, ok := c.Step()
		if !ok {
			rec.end(i, -1)
			break
		}
		rec.end(i, ev.Request)
		fc.add(ev)
	}
	return fc.finish(c)
}

// fleetCollector folds a fleet's event stream into an outcome. Request
// IDs are the trace positions (workload.Stream numbers them from 0).
type fleetCollector struct {
	o       outcome
	d       *digest
	reqs    []workload.Request
	last    []float64 // previous token's completion stamp
	ttft    []float64
	gapSum  []float64
	decoded []int
	started []bool
	done    []bool
}

func newFleetCollector(reqs []workload.Request) *fleetCollector {
	n := len(reqs)
	return &fleetCollector{
		o:    outcome{offered: n},
		d:    newDigest(),
		reqs: reqs, last: make([]float64, n), ttft: make([]float64, n),
		gapSum: make([]float64, n), decoded: make([]int, n),
		started: make([]bool, n), done: make([]bool, n),
	}
}

func (fc *fleetCollector) add(ev cluster.Event) {
	o := &fc.o
	fc.d.event(ev.Replica, string(ev.Kind), ev.StepEvent)
	o.sim.events++
	if ev.Kind != cluster.EventStep {
		return
	}
	id := ev.Request
	switch ev.Phase {
	case engine.PhaseShed:
		o.shed++
		return
	case engine.PhaseDeferred:
		return
	case engine.PhasePrefill:
		fc.ttft[id] = ev.Queued + ev.Latency
		fc.started[id] = true
		fc.last[id] = ev.End
		o.ttft = append(o.ttft, fc.ttft[id])
		o.sim.queueWaits = append(o.sim.queueWaits, ev.Queued)
	case engine.PhaseDecode:
		gap := ev.End - fc.last[id]
		fc.last[id] = ev.End
		fc.gapSum[id] += gap
		fc.decoded[id]++
		o.tbt = append(o.tbt, gap)
	}
	o.tokens += ev.Tokens
	o.sim.addStep(ev.StepEvent)
	o.sim.modelledStepTime += ev.Latency
	if ev.Done {
		fc.done[id] = true
		o.done++
	}
}

// finish reads the cluster's counters and runs the output checks.
func (fc *fleetCollector) finish(c *cluster.Cluster) outcome {
	o := &fc.o
	o.lost = c.Lost()
	o.sim.rerouted = c.Rerouted()
	o.sim.handoffs = c.Handoffs()
	o.sim.warmExperts, o.sim.allExperts = c.MigratedExperts()
	o.sim.deferred = c.Deferred()
	var lookups int64
	for i := 0; i < c.Replicas(); i++ {
		caches := c.Engine(i).Caches()
		lookups += caches.Hits() + caches.Misses()
		o.sim.deferred += c.Session(i).Deferred()
	}
	return fc.check(lookups)
}

// check returns the collected outcome with its SLO count and the
// output checks applied: cache lookups (the engines' counter total)
// and requests are conserved, and every finished request decoded what
// it asked for.
func (fc *fleetCollector) check(lookups int64) outcome {
	o := fc.o
	o.failures = nil
	o.digest = fc.d.sum()
	if got := o.sim.hits + o.sim.misses; got != lookups {
		o.failf("step events report %d cache lookups, cache counters %d", got, lookups)
	}
	if o.done+o.shed+o.lost != o.offered {
		o.failf("requests not conserved: done %d + shed %d + lost %d != offered %d",
			o.done, o.shed, o.lost, o.offered)
	}
	o.sloMet, o.sloOffered = 0, o.offered
	for id, r := range fc.reqs {
		if !fc.done[id] {
			continue
		}
		if fc.decoded[id] != r.DecodeTokens {
			o.failf("request %d decoded %d of %d tokens", id, fc.decoded[id], r.DecodeTokens)
		}
		meanGap := 0.0
		if fc.decoded[id] > 0 {
			meanGap = fc.gapSum[id] / float64(fc.decoded[id])
		}
		if fc.started[id] && fc.ttft[id] <= ttftLimit && meanGap <= tbtLimit {
			o.sloMet++
		}
	}
	return o
}

// sampledSpeedups replays the first speedupSample requests of a fleet
// trace, each on fresh HybriMoE and kTransformers engines configured as
// replica 0, and returns the mean kTransformers/HybriMoE ratios of
// prefill TTFT and mean decode TBT: the Fig. 7/8 definition over the
// workload's own requests.
func sampledSpeedups(in *inputs) (pre, dec float64, err error) {
	platform := hw.A6000Platform()
	run := func(fw engine.Framework) (*engine.Engine, error) {
		return engine.New(moe.DeepSeek(), platform, fw,
			engine.WithCacheRatio(fleetRatio), engine.WithSeed(cluster.ReplicaSeed(in.seed, 0)))
	}
	n := min(speedupSample, len(in.reqs))
	for _, r := range in.reqs[:n] {
		var lat [2][2]float64
		for k, fw := range []engine.Framework{engine.KTransformersFramework(), engine.HybriMoEFramework()} {
			pe, err := run(fw)
			if err != nil {
				return 0, 0, err
			}
			de, err := run(fw)
			if err != nil {
				return 0, 0, err
			}
			lat[k][0] = pe.RunPrefill(r.PromptTokens).Total
			lat[k][1] = de.RunDecode(r.DecodeTokens).Mean()
		}
		pre += lat[0][0] / lat[1][0]
		dec += lat[0][1] / lat[1][1]
	}
	return pre / float64(n), dec / float64(n), nil
}
