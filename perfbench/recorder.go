package main

import (
	"hybrimoe/internal/cluster"
	"hybrimoe/internal/engine"
	"hybrimoe/internal/hw"
	"hybrimoe/internal/moe"
	"hybrimoe/internal/prefetch"
)

// recorder is the state of one traced batch: the spans and the probes of
// every engine built. A nil *recorder builds plain, undecorated engines,
// which is how every host metric is measured.
type recorder struct {
	tr     *tracer
	probes []*probe

	pickCalls, pickBestReady, admissionCalls int
}

func newRecorder() *recorder { return &recorder{tr: newTracer()} }

// newEngine builds an engine through engine.New. Traced, the framework's
// scheduler and cache policy are swapped for their decorated registry
// entries, its prefetcher is wrapped, and plans are validated.
func (rec *recorder) newEngine(cfg *moe.Config, platform *hw.Platform, fw engine.Framework,
	opts ...engine.Option) (*engine.Engine, error) {
	if rec == nil {
		return engine.New(cfg, platform, fw, opts...)
	}
	pf, err := prefetch.New(fw.Prefetch)
	if err != nil {
		return nil, err
	}
	buildMu.Lock()
	defer buildMu.Unlock()
	p := &probe{
		t:          rec.tr.newTrack(),
		modelled:   fw.Name == engine.HybriMoEFramework().Name,
		pending:    map[moe.ExpertID]bool{},
		prefetched: map[moe.ExpertID]bool{},
	}
	traced := fw
	traced.Sched = decoratedName(fw.Sched)
	if fw.PrefillSched != "" {
		traced.PrefillSched = decoratedName(fw.PrefillSched)
	}
	traced.CachePolicy = decoratedName(fw.CachePolicy)
	opts = append(opts,
		engine.WithPrefetcher(&timedPrefetcher{inner: pf, p: p}),
		// The engine's default request scheduler, decorated.
		engine.WithRequestScheduler(decoratedName("round-robin")),
		engine.WithPlanValidation(),
	)
	building, activeRecorder = p, rec
	i := rec.tr.main.begin(kEngineNew, -1)
	e, err := engine.New(cfg, platform, traced, opts...)
	rec.tr.main.end(i)
	building = nil
	rec.probes = append(rec.probes, p)
	return e, err
}

// router wraps a fleet router in the timing decorator when tracing.
func (rec *recorder) router(r cluster.Router) cluster.Router {
	if rec == nil {
		return r
	}
	return &timedRouter{inner: r, rec: rec}
}

// admission wraps an admission policy in the timing decorator when
// tracing.
func (rec *recorder) admission(a engine.AdmissionPolicy) engine.AdmissionPolicy {
	if rec == nil {
		return a
	}
	return &timedAdmission{inner: a, rec: rec}
}

// begin and end record a span on the main track; no-ops untraced.
func (rec *recorder) begin(k spanKind) int32 {
	if rec == nil {
		return -1
	}
	return rec.tr.main.begin(k, -1)
}

func (rec *recorder) end(i int32, req int) {
	if rec == nil {
		return
	}
	rec.tr.main.setReq(i, req)
	rec.tr.main.end(i)
}
