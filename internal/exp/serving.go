package exp

import (
	"fmt"

	"hybrimoe/internal/engine"
	"hybrimoe/internal/hw"
	"hybrimoe/internal/report"
	"hybrimoe/internal/workload"
)

// ServingStudy goes beyond the paper's per-stage measurements: it
// serves a mixed request stream sampled from the three evaluation
// corpora (MT-Bench, Vicuna-Bench, ChatGPT-Prompts) through the
// engine's streaming Session loop — prefill and decode interleaved,
// cache state carried across requests — and reports TTFT and TBT
// percentiles (p50/p95/p99) per framework, computed from the per-step
// event stream. The shape should match the paper's per-stage findings
// (HybriMoE best on both; the prefill gap driven by scheduling, the
// decode gap by caching and balancing).
func ServingStudy(p Params, requests int, ratio float64) *report.Table {
	platform := hw.A6000Platform()

	// One shared request sequence for every framework (read-only across
	// cells; Submit copies by value).
	stream := workload.NewStream(p.Seed, workload.AllDatasets()...)
	reqs := stream.NextN(requests)
	workload.CapDecode(reqs, p.DecodeSteps)

	var cells []Cell
	for _, fw := range engine.AllFrameworks() {
		cells = append(cells, func() []Row {
			// Two requests in flight so prefill and decode genuinely
			// interleave, the way a continuously-batched server mixes
			// phases.
			r := Drive(box(platform, fw, 2,
				engine.WithCacheRatio(ratio), engine.WithSeed(p.Seed)), reqs, nil)
			ttft := report.Latencies(r.Forward)
			tbt := report.Latencies(r.TBT)
			return []Row{{fw.Name, ttft.Mean, ttft.P50, ttft.P95, ttft.P99,
				tbt.P50, tbt.P95, tbt.P99, r.HitRate[0]}}
		})
	}
	return gridTable(p, "Serving study: mixed corpus stream, end-to-end",
		[]string{"framework", "mean-TTFT(s)", "p50-TTFT(s)", "p95-TTFT(s)", "p99-TTFT(s)",
			"p50-TBT(s)", "p95-TBT(s)", "p99-TBT(s)", "hit-rate"}, cells)
}

// ServingPolicyStudy compares request schedulers and admission policies
// side-by-side on one fixed mixed-corpus stream served by the HybriMoE
// framework. Every request carries a size-proportional completion
// deadline calibrated from a baseline round-robin run (so some
// deadlines are tight under contention), and the SLO admission targets
// are set just below the baseline's p95s (so admission genuinely
// binds). Requests are labelled with an SLO class — priority traffic is
// "interactive", the rest "batch" — and the per-class violation and
// shed rates ride alongside the aggregates, so the table shows whom
// each policy sacrifices, not just how much. Reported per combination:
// goodput (deadline-met completions per simulated second), SLO
// violation rate among completions, shed fraction of offered load,
// per-class violation and shed rates, and the p95 TTFT/TBT the served
// requests saw. The baseline calibration (deadline stamping, admission
// targets) runs serially, then one cell per scheduler × admission point.
func ServingPolicyStudy(p Params, requests int, ratio float64) *report.Table {
	stream := workload.NewStream(p.Seed, workload.AllDatasets()...)
	reqs := stream.NextN(requests)
	workload.CapDecode(reqs, p.DecodeSteps)
	offered := map[string]int{}
	for i := range reqs {
		// Every third request is priority traffic the SLO guard may
		// defer but never shed; it forms the "interactive" SLO class,
		// everything else the "batch" class.
		if i%3 == 0 {
			reqs[i].Priority = 1
			reqs[i].Class = "interactive"
		} else {
			reqs[i].Class = "batch"
		}
		offered[reqs[i].Class]++
	}

	// Calibrate from the historical baseline (round-robin, open door):
	// each request's deadline is a multiple of its baseline completion
	// time — half tight (0.9×, missed unless a policy serves it
	// earlier), half slack (1.15×) — so scheduling order, not raw
	// speed, decides who meets it. The admission guard targets the
	// baseline's p50 TTFT as its p95 budget with a low shed factor, a
	// deliberately strained SLO that forces shed/defer verdicts.
	base := Drive(hybriBox(p, ratio, 3, "round-robin", "none", nil), reqs, nil)
	for i := range reqs {
		slack := 0.9
		if i%2 == 1 {
			slack = 1.15
		}
		reqs[i].Deadline = slack * base.DoneAt[reqs[i].ID]
	}
	ttft, tbt := report.Latencies(base.Forward), report.Latencies(base.TBT)
	adm := func() engine.AdmissionPolicy {
		return &engine.SLOAdmission{
			TTFTp95:    ttft.P50,
			TBTp95:     tbt.P95,
			MinSamples: 4,
			ShedFactor: 1.2,
		}
	}

	var cells []Cell
	for _, schedName := range []string{"fcfs", "round-robin", "sjf", "edf"} {
		for _, withAdm := range []bool{false, true} {
			cells = append(cells, func() []Row {
				policy := engine.AdmissionPolicy(nil)
				admName := "none"
				if withAdm {
					policy = adm()
					admName = policy.Name()
				}
				r := Drive(hybriBox(p, ratio, 3, schedName, "none", policy), reqs, nil)
				return []Row{{schedName, admName, r.Completed, r.Shed,
					r.onTimeGoodput(), r.violationRate(), r.shedFraction(),
					fmt.Sprintf("%.2f/%.2f",
						r.classViolationRate("interactive"), r.classViolationRate("batch")),
					fmt.Sprintf("%.2f/%.2f", r.classShedRate("interactive", offered["interactive"]),
						r.classShedRate("batch", offered["batch"])),
					report.Latencies(r.Forward).P95, report.Latencies(r.TBT).P95}}
			})
		}
	}
	return gridTable(p, "Serving policy study: request schedulers × admission (HybriMoE)",
		[]string{"reqsched", "admission", "completed", "shed",
			"goodput(req/s)", "violation-rate", "shed-fraction",
			"viol[inter/batch]", "shed[inter/batch]", "p95-TTFT(s)", "p95-TBT(s)"}, cells)
}
