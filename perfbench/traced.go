package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct {
	name  string
	value float64
	unit  string
	note  string
	// tableOnly metrics are printed but kept out of the JSON summary:
	// host times of a layer that some workload never runs, which would
	// read a constant 0 there.
	tableOnly bool
}

// tracedRun runs one untraced and one traced batch on the same inputs,
// checks that both simulated the same event stream, writes the spans,
// and reports the per-layer metrics. The untraced batch is the overhead
// baseline and gives the runtime counters. It runs first in the
// process, so it also pays heap growth and page faults, which the
// traced batch does not; the live heap stays below 10 MB, so that is
// small beside a batch of 10-40 CPU seconds.
func tracedRun(in *inputs, out io.Writer, spansPath string) (result, error) {
	var res result
	base, baseHost, err := runBatch(in, nil)
	if err != nil {
		return res, err
	}
	rec := newRecorder()
	o, h, err := runBatch(in, rec)
	if err != nil {
		return res, err
	}
	res.failures = append(res.failures, base.failures...)
	res.failures = append(res.failures, o.failures...)
	if o.digest != base.digest {
		res.failures = append(res.failures, fmt.Sprintf("traced event digest %016x differs from untraced %016x: the decorators perturbed the run", o.digest, base.digest))
	}
	res.Attempted, res.Failed = o.offered, o.shed+o.lost
	fmt.Fprintf(out, "traced batch: %d requests, %d simulated tokens, %d spans; event digest %016x (untraced %016x)\n",
		o.offered, o.tokens, rec.tr.spanCount(), o.digest, base.digest)

	if err := writeSpans(rec.tr, spansPath); err != nil {
		return res, err
	}
	fmt.Fprintln(out, "spans written to", spansPath)

	baseTPS := float64(base.tokens) / baseHost.runS
	for _, m := range layerMetrics(rec, o, h, base, baseHost) {
		if m.tableOnly {
			note := "table only"
			if m.note != "" {
				note = m.note + "; " + note
			}
			fmt.Fprintf(out, "%-32s %14.6g %-8s  (%s)\n", m.name, m.value, m.unit, note)
			continue
		}
		res.report(out, m.name, m.value, m.unit, m.note)
	}
	fmt.Fprintf(out, "untraced sim_tok_per_cpu_s %.6g, traced %.6g (traced engines also validate every plan)\n",
		baseTPS, float64(o.tokens)/h.runS)
	return res, nil
}

func writeSpans(tr *tracer, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// layerMetrics derives every per-layer metric from the traced batch
// (spans, decorator counters, simulated counters) and the untraced
// baseline batch (runtime counters, tracing overhead).
func layerMetrics(rec *recorder, o outcome, h host, base outcome, baseHost host) []layerMetric {
	ks := rec.tr.summarize()
	var p probe
	for _, q := range rec.probes {
		p.cpuOps += q.cpuOps
		p.gpuOps += q.gpuOps
		p.picks += q.picks
		p.prefetchAdmits += q.prefetchAdmits
		p.prefetchUseful += q.prefetchUseful
		p.cpuBusy += q.cpuBusy
		p.gpuBusy += q.gpuBusy
		p.linkBusy += q.linkBusy
	}
	secs := func(ns int64) float64 { return float64(ns) / 1e9 }
	self := func(kinds ...spanKind) float64 {
		var ns int64
		for _, k := range kinds {
			ns += ks[k].selfNs
		}
		return secs(ns)
	}
	// pct reports a span kind's p-quantile duration in microseconds.
	pct := func(name string, k spanKind, q float64, tableOnly bool) layerMetric {
		durs := make([]float64, len(ks[k].durs))
		for i, d := range ks[k].durs {
			durs[i] = float64(d) / 1e3
		}
		note := fmt.Sprintf("n=%d", len(durs))
		if !tailValid(len(durs), q) {
			note += ", fewer than 10 samples beyond"
		}
		return layerMetric{name: name, value: quantile(durs, q), unit: "us", note: note, tableOnly: tableOnly}
	}
	count := func(name string, n int, note string) layerMetric {
		return layerMetric{name: name, value: float64(n), unit: "count", note: note}
	}
	share := func(name string, a, b float64, note string) layerMetric {
		return layerMetric{name: name, value: ratio(a, b), unit: "ratio", note: note}
	}
	s := o.sim
	lookups := s.hits + s.misses
	waits := append([]float64(nil), s.queueWaits...)
	return []layerMetric{
		count("cache.lookups", int(lookups), "hits + misses over step events"),
		share("cache.hit_rate", float64(s.hits), float64(lookups), ""),
		count("cache.evictions", ks[kCacheVictim].calls, "Policy.Victim calls"),
		pct("cache.victim_us_p50", kCacheVictim, 0.50, false),
		pct("cache.victim_us_p99", kCacheVictim, 0.99, false),
		{name: "cache.policy_self_s", value: self(kCacheVictim, kCacheTouch, kCacheAdmit, kCacheForget, kCacheObserve), unit: "s",
			note: "Victim, Touch, Admit, Forget, ObserveScores"},

		count("sched.plan_calls", ks[kSchedPlan].calls, "including plans priced inside prefetch.select"),
		pct("sched.plan_us_p50", kSchedPlan, 0.50, false),
		pct("sched.plan_us_p99", kSchedPlan, 0.99, false),
		{name: "sched.self_s", value: self(kSchedPlan), unit: "s"},
		share("sched.cpu_op_share", float64(p.cpuOps), float64(p.cpuOps+p.gpuOps), "simulated: CPU expert ops of applied HybriMoE plans"),

		count("prefetch.select_calls", ks[kPrefetchSelect].calls, ""),
		pct("prefetch.select_us_p50", kPrefetchSelect, 0.50, false),
		pct("prefetch.select_us_p99", kPrefetchSelect, 0.99, false),
		{name: "prefetch.self_s", value: self(kPrefetchSelect), unit: "s", note: "nested sched.plan excluded"},
		count("prefetch.picks", p.picks, ""),
		share("prefetch.useful_ratio", float64(p.prefetchUseful), float64(p.prefetchAdmits),
			fmt.Sprintf("%d of %d admitted picks hit before eviction", p.prefetchUseful, p.prefetchAdmits)),

		count("reqsched.next_calls", ks[kReqschedNext].calls, ""),
		{name: "reqsched.self_s", value: self(kReqschedNext), unit: "s"},

		{name: "engine.new_s", value: secs(ks[kEngineNew].totalNs), unit: "s",
			note: fmt.Sprintf("%d engines, plan validation and decorators on", ks[kEngineNew].calls)},
		count("engine.steps", s.steps, "compute step events"),
		pct("engine.step_us_p50", kSessionStep, 0.50, true),
		pct("engine.step_us_p99", kSessionStep, 0.99, true),
		{name: "engine.self_s", value: self(kSessionStep), unit: "s", tableOnly: true,
			note: "Session.Step outside plugin spans: trace generation, cache bookkeeping; paper-offline only"},
		{name: "engine.outside_plugins_s", value: self(kSessionStep, kClusterStep), unit: "s",
			note: "self time of the step spans: engine.self_s + cluster.self_s"},
		{name: "engine.batch_mean", value: ratio(float64(s.batchSum), float64(s.steps)), unit: "req",
			note: "requests per engine iteration"},
		{name: "engine.queue_wait_p95_ms", value: 1e3 * quantile(waits, 0.95), unit: "ms", tableOnly: true,
			note: fmt.Sprintf("simulated, n=%d", len(waits))},
		share("engine.cpu_busy_share", p.cpuBusy, s.modelledStepTime, "simulated: applied-plan CPU expert time / HybriMoE step time"),
		share("engine.gpu_busy_share", p.gpuBusy, s.modelledStepTime, "simulated: applied-plan GPU expert time"),
		share("engine.link_busy_share", p.linkBusy, s.modelledStepTime, "simulated: applied-plan demand transfers"),
		count("engine.admission_calls", rec.admissionCalls, ""),
		{name: "engine.admission_self_s", value: self(kAdmission), unit: "s", tableOnly: true},
		count("engine.shed", o.shed, ""),
		count("engine.deferred", s.deferred, "deferral verdicts"),

		count("cluster.events", s.events, ""),
		pct("cluster.step_us_p50", kClusterStep, 0.50, true),
		pct("cluster.step_us_p99", kClusterStep, 0.99, true),
		{name: "cluster.self_s", value: self(kClusterStep), unit: "s", tableOnly: true,
			note: "Cluster.Step outside plugin spans, engine work included"},
		count("cluster.pick_calls", rec.pickCalls, ""),
		pct("cluster.pick_us_p50", kRouterPick, 0.50, true),
		pct("cluster.pick_us_p99", kRouterPick, 0.99, true),
		{name: "cluster.router_self_s", value: self(kRouterPick), unit: "s", tableOnly: true},
		share("cluster.pick_best_ready_ratio", float64(rec.pickBestReady), float64(rec.pickCalls), "picks of a replica with top predicted readiness"),
		count("cluster.handoffs", s.handoffs, ""),
		share("cluster.handoff_warm_ratio", float64(s.warmExperts), float64(s.allExperts),
			fmt.Sprintf("%d of %d migrated experts warm", s.warmExperts, s.allExperts)),
		count("cluster.rerouted", s.rerouted, ""),
		count("cluster.lost", o.lost, ""),

		share("runtime.gc_cpu_frac", baseHost.gcCPU, baseHost.allCPU, "untraced batch"),
		{name: "runtime.mallocs_per_tok", value: ratio(float64(baseHost.mallocs), float64(base.tokens)), unit: "count",
			note: "untraced batch"},
		{name: "runtime.tok_per_wall_s", value: ratio(float64(base.tokens), baseHost.runWall), unit: "tok/s",
			note: "untraced batch, wall clock: counts parallel stepping, and other tenants of a shared host"},
		{name: "tracing.overhead_frac", value: 1 - ratio(float64(o.tokens)/h.runS, float64(base.tokens)/baseHost.runS), unit: "ratio",
			note: "1 - traced / untraced sim_tok_per_cpu_s"},
	}
}
