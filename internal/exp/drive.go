package exp

import (
	"fmt"
	"strings"

	"hybrimoe/internal/cluster"
	"hybrimoe/internal/engine"
	"hybrimoe/internal/hw"
	"hybrimoe/internal/moe"
	"hybrimoe/internal/workload"
)

// Tally is one serving run folded from its cluster event stream in a
// single pass: the counts, latency samples and per-replica sums every
// serving study and `hybrimoe serve` report, plus the cluster counters
// read once the run drains. Study-specific numbers are small methods
// over it rather than event loops of their own.
type Tally struct {
	// Offered counts the submitted requests.
	Offered int
	// Completed counts Done prefill and decode events. Shed counts shed
	// records, from the fleet door and session admission alike. OnTime
	// and Violated split the completions that carry a deadline.
	Completed, Shed, OnTime, Violated int
	// Makespan is the latest End over step events (lifecycle records
	// carry no compute).
	Makespan float64
	// Forward samples the prefill forward alone (ev.Latency), TTFT the
	// queue-inclusive time to first token, Queue the arrival → prefill
	// wait, and TBT the decode step latency. Gaps samples each request's
	// inter-token gaps, the first anchored at its prefill's end so a
	// handoff's transfer and decode-pool queueing are charged to it: a
	// decode step that waited behind a neighbour's long prefill shows up
	// as a stretched gap even though the step itself was cheap, which is
	// exactly the interference disaggregation removes.
	Forward, TTFT, Queue, TBT, Gaps []float64
	// DecodeTokens sums decoded tokens; RequestSteps counts compute
	// events (one per request per iteration).
	DecodeTokens, RequestSteps int
	// Hits and Misses sum each replica's cache lookups (indexed by
	// replica); GPUBusy sums each GPU's busy seconds over every replica.
	Hits, Misses []int64
	GPUBusy      []float64
	// Classes slices completions, violations and sheds per SLO class
	// (workload.Request.Class, echoed on every event).
	Classes map[string]*ClassCounts
	// DoneAt stamps each completed request's finish, ReroutedIDs lists
	// the requests reclaimed from dead replicas, and DeadAt is the latest
	// replica death (0 when none died).
	DoneAt      map[int]float64
	ReroutedIDs []int
	DeadAt      float64

	// Read from the cluster after the run. Deferred counts admission
	// deferral verdicts at the fleet door and in every session; Batches
	// and HitRate are per replica.
	Deferred                     int
	Routed                       []int
	Rerouted, Lost, Handoffs     int
	WarmExperts, MigratedExperts int
	Batches                      []int
	HitRate                      []float64
}

// ClassCounts is one SLO class's outcomes within a run.
type ClassCounts struct {
	Completed, Violated, Shed int
}

// Drive submits reqs to c, drains it, and returns the run's tally. each
// (when non-nil) sees every event first, in stream order — the CLI
// prints its transcript from it.
func Drive(c *cluster.Cluster, reqs []workload.Request, each func(cluster.Event)) *Tally {
	t := &Tally{
		Offered: len(reqs),
		Classes: map[string]*ClassCounts{},
		DoneAt:  map[int]float64{},
	}
	prefillEnd := map[int]float64{}
	lastDecode := map[int]float64{}
	c.Submit(reqs...)
	c.Run(func(ev cluster.Event) {
		if each != nil {
			each(ev)
		}
		switch ev.Kind {
		case cluster.EventRerouted:
			t.ReroutedIDs = append(t.ReroutedIDs, ev.Request)
		case cluster.EventReplicaDead:
			t.DeadAt = max(t.DeadAt, ev.End)
		}
		if ev.Kind != cluster.EventStep {
			// Lifecycle and handoff records carry no compute.
			return
		}
		t.Makespan = max(t.Makespan, ev.End)
		if ev.Replica != cluster.FleetReplica {
			t.Hits = grow(t.Hits, ev.Replica+1)
			t.Misses = grow(t.Misses, ev.Replica+1)
			t.Hits[ev.Replica] += ev.Hits
			t.Misses[ev.Replica] += ev.Misses
		}
		t.GPUBusy = grow(t.GPUBusy, len(ev.GPUBusyByDevice))
		for d, busy := range ev.GPUBusyByDevice {
			t.GPUBusy[d] += busy
		}
		switch ev.Phase {
		case engine.PhasePrefill:
			t.Forward = append(t.Forward, ev.Latency)
			t.TTFT = append(t.TTFT, ev.Queued+ev.Latency)
			t.Queue = append(t.Queue, ev.Queued)
			prefillEnd[ev.Request] = ev.End
		case engine.PhaseDecode:
			t.TBT = append(t.TBT, ev.Latency)
			t.DecodeTokens += ev.Tokens
			prev, ok := lastDecode[ev.Request]
			if !ok {
				prev = prefillEnd[ev.Request]
			}
			t.Gaps = append(t.Gaps, ev.End-prev)
			lastDecode[ev.Request] = ev.End
		case engine.PhaseShed:
			t.Shed++
			t.class(ev.Class).Shed++
			return
		default:
			return
		}
		t.RequestSteps++
		if !ev.Done {
			return
		}
		t.Completed++
		t.class(ev.Class).Completed++
		t.DoneAt[ev.Request] = ev.End
		if ev.Deadline > 0 {
			if ev.End <= ev.Deadline {
				t.OnTime++
			} else {
				t.Violated++
				t.class(ev.Class).Violated++
			}
		}
	})
	t.Deferred = c.Deferred()
	t.Routed = c.Routed()
	t.Rerouted, t.Lost, t.Handoffs = c.Rerouted(), c.Lost(), c.Handoffs()
	t.WarmExperts, t.MigratedExperts = c.MigratedExperts()
	for i := 0; i < c.Replicas(); i++ {
		t.Deferred += c.Session(i).Deferred()
		t.Batches = append(t.Batches, c.Session(i).Batches())
		t.HitRate = append(t.HitRate, c.Engine(i).Caches().HitRate())
	}
	return t
}

// grow extends s with zeros to at least n elements.
func grow[T int64 | float64](s []T, n int) []T {
	for len(s) < n {
		s = append(s, 0)
	}
	return s
}

// class returns (allocating on demand) the counts for SLO class c.
func (t *Tally) class(c string) *ClassCounts {
	s, ok := t.Classes[c]
	if !ok {
		s = &ClassCounts{}
		t.Classes[c] = s
	}
	return s
}

// frac is num/den, 0 when den is 0.
func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// goodput reports completions per simulated second of makespan — shed
// requests deliver nothing, so admission raises it exactly when
// dropping load lets the rest finish sooner.
func (t *Tally) goodput() float64 { return frac(float64(t.Completed), t.Makespan) }

// onTimeGoodput reports deadline-met completions per simulated second.
func (t *Tally) onTimeGoodput() float64 { return frac(float64(t.OnTime), t.Makespan) }

func (t *Tally) shedFraction() float64 { return frac(float64(t.Shed), float64(t.Offered)) }

func (t *Tally) violationRate() float64 {
	return frac(float64(t.Violated), float64(t.Completed))
}

// decodeThroughput reports decode tokens per simulated second over the
// whole run — the quantity continuous batching exists to raise.
func (t *Tally) decodeThroughput() float64 {
	return frac(float64(t.DecodeTokens), t.Makespan)
}

// MeanBatch reports the mean number of requests advanced per engine
// iteration, over every replica.
func (t *Tally) MeanBatch() float64 {
	return frac(float64(t.RequestSteps), float64(t.Iterations()))
}

// Iterations sums the engine iterations every replica ran.
func (t *Tally) Iterations() int {
	n := 0
	for _, b := range t.Batches {
		n += b
	}
	return n
}

// classViolationRate reports violated/completed for class c.
func (t *Tally) classViolationRate(c string) float64 {
	s := t.Classes[c]
	if s == nil {
		return 0
	}
	return frac(float64(s.Violated), float64(s.Completed))
}

// classShedRate reports class c's sheds over its offered count.
func (t *Tally) classShedRate(c string, offered int) float64 {
	s := t.Classes[c]
	if s == nil {
		return 0
	}
	return frac(float64(s.Shed), float64(offered))
}

// utilisation renders each GPU's busy fraction of the makespan as
// "u0/u1/…".
func (t *Tally) utilisation() string {
	if t.Makespan == 0 {
		return "-"
	}
	parts := make([]string, len(t.GPUBusy))
	for d, busy := range t.GPUBusy {
		parts[d] = fmt.Sprintf("%.0f%%", 100*busy/t.Makespan)
	}
	return strings.Join(parts, "/")
}

// warmFrac is the fraction of migrated working-set experts already
// resident on the adopting decode replica (0 when nothing migrated).
func (t *Tally) warmFrac() float64 {
	return frac(float64(t.WarmExperts), float64(t.MigratedExperts))
}

// recoverAt is the completion stamp of the last re-routed request — the
// moment the displaced queue has fully drained elsewhere (0 when none
// completed).
func (t *Tally) recoverAt() float64 {
	at := 0.0
	for _, id := range t.ReroutedIDs {
		if done, ok := t.DoneAt[id]; ok && done > at {
			at = done
		}
	}
	return at
}

// recovery is the time from failure detection to recovery.
func (t *Tally) recovery() float64 {
	at := t.recoverAt()
	if at == 0 {
		return 0
	}
	return at - t.DeadAt
}

// dipDepth is 1 − (goodput inside the (stallAt, recovery] outage
// window) / (goodput after recovery); 0 for churn-free runs (stallAt 0)
// or when either window is empty.
func (t *Tally) dipDepth(stallAt float64) float64 {
	rec := t.recoverAt()
	if stallAt <= 0 || rec <= stallAt || t.Makespan <= rec {
		return 0
	}
	dip, post := 0, 0
	for _, at := range t.DoneAt {
		switch {
		case at > stallAt && at <= rec:
			dip++
		case at > rec:
			post++
		}
	}
	postRate := float64(post) / (t.Makespan - rec)
	if postRate == 0 {
		return 0
	}
	return 1 - float64(dip)/(rec-stallAt)/postRate
}

// hitSplit reports the aggregate cache hit fraction of the replicas
// born at index n or later (scale-up joins, cold) and of the original
// fleet (warm).
func (t *Tally) hitSplit(n int) (cold, warm float64) {
	var ch, cm, wh, wm int64
	for i, h := range t.Hits {
		if i >= n {
			ch, cm = ch+h, cm+t.Misses[i]
		} else {
			wh, wm = wh+h, wm+t.Misses[i]
		}
	}
	return frac(float64(ch), float64(ch+cm)), frac(float64(wh), float64(wh+wm))
}

// routedFrom sums the dispatches to replicas at index n or later.
func (t *Tally) routedFrom(n int) int {
	sum := 0
	for i := n; i < len(t.Routed); i++ {
		sum += t.Routed[i]
	}
	return sum
}

// box builds the 1-replica cluster the single-box studies serve
// through: one DeepSeek engine on platform under fw, carrying the
// study's engine options (request scheduler, batch former, session
// admission), with up to concurrent requests in flight.
func box(platform *hw.Platform, fw engine.Framework, concurrent int, opts ...engine.Option) *cluster.Cluster {
	c, err := cluster.New(
		cluster.WithBuilder(func(int) (*engine.Engine, error) {
			return engine.New(moe.DeepSeek(), platform, fw, opts...)
		}),
		cluster.WithMaxConcurrent(concurrent))
	if err != nil {
		panic(err)
	}
	return c
}

// hybriBox is the box the serving-policy, open-loop and batching
// studies share: the HybriMoE framework on one A6000 under the named
// request scheduler and batch former (packing to BatchBudget), with
// optional session admission.
func hybriBox(p Params, ratio float64, concurrent int, schedName, batchName string,
	adm engine.AdmissionPolicy) *cluster.Cluster {
	opts := []engine.Option{
		engine.WithCacheRatio(ratio),
		engine.WithSeed(p.Seed),
		engine.WithRequestScheduler(schedName),
		engine.WithBatchPolicy(batchName, BatchBudget),
	}
	if adm != nil {
		opts = append(opts, engine.WithAdmission(adm))
	}
	return box(hw.A6000Platform(), engine.HybriMoEFramework(), concurrent, opts...)
}

// fleet builds NewFleet's n-replica fleet for a study cell, with the
// cell's cluster-worker count and any further cluster options.
func fleet(p Params, ratio float64, n int, routerName string, opts ...cluster.Option) *cluster.Cluster {
	if p.ClusterWorkers > 1 {
		opts = append(opts, cluster.WithWorkers(p.ClusterWorkers))
	}
	c, err := NewFleet(n, routerName, p.Seed, ratio, opts...)
	if err != nil {
		panic(err)
	}
	return c
}
