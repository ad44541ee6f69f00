package main

import (
	"fmt"
	"sync"

	"hybrimoe/internal/cache"
	"hybrimoe/internal/cluster"
	"hybrimoe/internal/engine"
	"hybrimoe/internal/hw"
	"hybrimoe/internal/moe"
	"hybrimoe/internal/prefetch"
	"hybrimoe/internal/reqsched"
	"hybrimoe/internal/sched"
	"hybrimoe/internal/workload"
)

// Timing decorators over the public plugin interfaces. Every built-in
// scheduler, cache policy and request scheduler is registered a second
// time under decoratedName(name); a traced engine is built from a
// Framework naming those, so each plugin call opens a span. Decorators
// forward every call unchanged and only observe, which the traced run
// checks by comparing its event digest with the untraced run's.

const decoratedPrefix = "perfbench/"

func decoratedName(name string) string { return decoratedPrefix + name }

// probe is one traced engine's recording context: its span track and
// the counters its plugin calls feed.
type probe struct {
	t *track
	// modelled marks a HybriMoE engine, whose applied plans feed the
	// simulated sched.cpu_op_share.
	modelled bool
	// selectDepth is non-zero inside Prefetcher.Select, whose nested
	// Plan calls price hypothetical placements and are never applied.
	selectDepth int
	// pending holds the picks of the last Select until the engine admits
	// them; prefetched holds admitted picks not yet hit or evicted.
	pending, prefetched map[moe.ExpertID]bool

	// cpuOps and gpuOps count the applied plans' compute ops; cpuBusy,
	// gpuBusy and linkBusy sum the simulated durations of their CPU
	// compute, GPU compute and transfer ops.
	cpuOps, gpuOps             int
	cpuBusy, gpuBusy, linkBusy float64
	// picks counts Select's picks; prefetchAdmits the picks admitted
	// to the cache, prefetchUseful those hit before eviction.
	picks, prefetchAdmits, prefetchUseful int
}

// building is the probe of the engine under construction. Registry
// factories take no context, so the traced builder publishes the probe
// here for the duration of engine.New, under buildMu.
var (
	buildMu  sync.Mutex
	building *probe
)

func currentProbe(plugin string) *probe {
	if building == nil {
		panic(fmt.Sprintf("perfbench: %s built outside a traced engine build", plugin))
	}
	return building
}

func init() {
	for _, name := range sched.Names() {
		sched.Register(decoratedName(name), func(c sched.Config) sched.Scheduler {
			inner, err := sched.New(name, c)
			if err != nil {
				panic(err)
			}
			return wrapScheduler(inner, currentProbe("scheduler "+name))
		})
	}
	for _, name := range cache.Names() {
		cache.Register(decoratedName(name), func(k int) cache.Policy {
			inner, err := cache.NewPolicy(name, k)
			if err != nil {
				panic(err)
			}
			return &timedPolicy{inner: inner, p: currentProbe("cache policy " + name)}
		})
	}
	for _, name := range reqsched.Names() {
		reqsched.Register(decoratedName(name), func() reqsched.Scheduler {
			inner, err := reqsched.New(name)
			if err != nil {
				panic(err)
			}
			return &timedReqSched{inner: inner, rec: activeRecorder}
		})
	}
}

// activeRecorder is the recorder of the traced run in progress (nil
// otherwise). Sessions build their request scheduler outside
// engine.New, so that decorator records on the recorder's shared track.
var activeRecorder *recorder

// timedScheduler decorates sched.Scheduler.Plan.
type timedScheduler struct {
	inner sched.Scheduler
	p     *probe
}

// timedDeviceScheduler keeps the sched.DeviceAware marker of the
// scheduler it decorates, so the engine plans across every GPU exactly
// as it would undecorated.
type timedDeviceScheduler struct{ *timedScheduler }

func (timedDeviceScheduler) PlansDevices() {}

func wrapScheduler(inner sched.Scheduler, p *probe) sched.Scheduler {
	w := &timedScheduler{inner: inner, p: p}
	if sched.IsDeviceAware(inner) {
		return timedDeviceScheduler{w}
	}
	return w
}

func (w *timedScheduler) Name() string { return w.inner.Name() }

func (w *timedScheduler) Plan(tasks []sched.Task, pl *hw.Platform, res sched.Resources) *sched.Plan {
	p := w.p
	applied := p.selectDepth == 0
	if applied {
		// The engine plans the next layer: the last Select's picks that
		// were not admitted by now never will be.
		clear(p.pending)
	}
	i := p.t.begin(kSchedPlan, -1)
	plan := w.inner.Plan(tasks, pl, res)
	p.t.end(i)
	if applied && p.modelled {
		for _, op := range plan.Ops {
			d := op.End - op.Start
			switch op.Kind {
			case sched.OpComputeCPU:
				p.cpuOps++
				p.cpuBusy += d
			case sched.OpComputeGPU:
				p.gpuOps++
				p.gpuBusy += d
			case sched.OpTransfer:
				p.linkBusy += d
			}
		}
	}
	return plan
}

// timedPolicy decorates cache.Policy.
type timedPolicy struct {
	inner cache.Policy
	p     *probe
}

func (w *timedPolicy) Name() string { return w.inner.Name() }

func (w *timedPolicy) Touch(id moe.ExpertID) {
	i := w.p.t.begin(kCacheTouch, -1)
	w.inner.Touch(id)
	w.p.t.end(i)
	if w.p.prefetched[id] {
		w.p.prefetchUseful++
		delete(w.p.prefetched, id)
	}
}

func (w *timedPolicy) Admit(id moe.ExpertID) {
	i := w.p.t.begin(kCacheAdmit, -1)
	w.inner.Admit(id)
	w.p.t.end(i)
	if w.p.pending[id] {
		delete(w.p.pending, id)
		w.p.prefetched[id] = true
		w.p.prefetchAdmits++
	}
}

func (w *timedPolicy) Forget(id moe.ExpertID) {
	i := w.p.t.begin(kCacheForget, -1)
	w.inner.Forget(id)
	w.p.t.end(i)
	delete(w.p.prefetched, id)
}

func (w *timedPolicy) Victim(candidates []moe.ExpertID) moe.ExpertID {
	i := w.p.t.begin(kCacheVictim, -1)
	v := w.inner.Victim(candidates)
	w.p.t.end(i)
	return v
}

func (w *timedPolicy) ObserveScores(layer int, scores []float64) {
	i := w.p.t.begin(kCacheObserve, -1)
	w.inner.ObserveScores(layer, scores)
	w.p.t.end(i)
}

// timedPrefetcher decorates prefetch.Prefetcher.Select.
type timedPrefetcher struct {
	inner prefetch.Prefetcher
	p     *probe
}

func (w *timedPrefetcher) Name() string { return w.inner.Name() }

func (w *timedPrefetcher) Select(ctx prefetch.Context) []moe.ExpertID {
	p := w.p
	p.selectDepth++
	i := p.t.begin(kPrefetchSelect, -1)
	picks := w.inner.Select(ctx)
	p.t.end(i)
	p.selectDepth--
	p.picks += len(picks)
	clear(p.pending)
	for _, id := range picks {
		p.pending[id] = true
	}
	return picks
}

// timedReqSched decorates reqsched.Scheduler.Next.
type timedReqSched struct {
	inner reqsched.Scheduler
	rec   *recorder
}

func (w *timedReqSched) Name() string { return w.inner.Name() }

func (w *timedReqSched) Next(now float64, active []reqsched.Request) int {
	i := w.rec.tr.shared.begin(kReqschedNext, -1)
	idx := w.inner.Next(now, active)
	w.rec.tr.shared.end(i)
	return idx
}

func (w *timedReqSched) Stepped(idx int, removed []int) { w.inner.Stepped(idx, removed) }

// timedRouter decorates cluster.Router.Pick; it runs on the driving
// goroutine, inside Cluster.Step.
type timedRouter struct {
	inner cluster.Router
	rec   *recorder
}

func (w *timedRouter) Name() string { return w.inner.Name() }

func (w *timedRouter) Pick(req workload.Request, views []cluster.ReplicaView) int {
	i := w.rec.tr.main.begin(kRouterPick, int32(req.ID))
	pick := w.inner.Pick(req, views)
	w.rec.tr.main.end(i)
	w.rec.pickCalls++
	if bestReady(views, pick) {
		w.rec.pickBestReady++
	}
	return pick
}

// bestReady reports whether the picked replica has the highest
// predicted-expert readiness (resident / predicted) among the views.
func bestReady(views []cluster.ReplicaView, pick int) bool {
	ready := func(v cluster.ReplicaView) float64 {
		if v.Predicted == 0 {
			return 0
		}
		return float64(v.Resident) / float64(v.Predicted)
	}
	best, picked := -1.0, -1.0
	for _, v := range views {
		best = max(best, ready(v))
		if v.Index == pick {
			picked = ready(v)
		}
	}
	return picked == best
}

// timedAdmission decorates engine.AdmissionPolicy.Decide.
type timedAdmission struct {
	inner engine.AdmissionPolicy
	rec   *recorder
}

func (w *timedAdmission) Name() string { return w.inner.Name() }

func (w *timedAdmission) Decide(req workload.Request, snap engine.SLOSnapshot) engine.AdmissionDecision {
	i := w.rec.tr.main.begin(kAdmission, int32(req.ID))
	d := w.inner.Decide(req, snap)
	w.rec.tr.main.end(i)
	w.rec.admissionCalls++
	return d
}
