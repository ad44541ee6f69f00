// Command perfbench is the repository benchmark: it runs one named
// workload through the simulator's public APIs, checks the outputs, and
// prints end-to-end metrics (host and simulated) or, with -trace 1,
// per-layer metrics from a traced run. The last line of standard output
// is a JSON summary. See README.md for the workloads and metric map.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"
)

const (
	// defaultSeed is the seed workloads are tuned on; heldOutSeed is
	// reserved for confirming a claim on inputs nobody tuned against.
	defaultSeed = 1
	heldOutSeed = 7919
	// A run builds its engines or fleet at least minSetups times, and
	// until setUpBudget is spent, so setup_s is a median of many.
	minSetups   = 5
	setUpBudget = 2 * time.Second
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: paper-offline, fleet-steady or fleet-disagg-churn")
	seed := fs.Uint64("seed", defaultSeed, fmt.Sprintf("input seed (default %d; held-out seed %d)", defaultSeed, heldOutSeed))
	seconds := fs.Int("seconds", 25, "host seconds of batches: another runs while one as long as the last still fits (at least one runs)")
	trace := fs.Int("trace", 0, "1 runs one untraced and one traced batch and reports per-layer metrics")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	spansOut := fs.String("spans", "", "traced run: Chrome trace-event JSON path (default .bench_build/spans-<workload>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	in := w.prepare(*seed)
	out := bufio.NewWriter(stdout)
	defer out.Flush()
	fmt.Fprintf(out, "workload %s seed %d: %s\n", w.name, *seed, w.why)
	fmt.Fprintln(out, "modelled expert caches start warm-started from 32 history iterations (engine.New); that cost is in setup_s")
	var res result
	if *trace == 1 {
		path := *spansOut
		if path == "" {
			path = filepath.Join(".bench_build", "spans-"+w.name+".json")
		}
		res, err = tracedRun(in, out, path)
	} else {
		res, err = untracedRun(in, time.Duration(*seconds)*time.Second, out)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, f := range res.failures {
		fmt.Fprintln(out, "CHECK FAILED:", f)
	}
	res.Correct = len(res.failures) == 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(out, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the JSON summary line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	failures  []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints one metric line and records it in the JSON summary.
func (r *result) report(out io.Writer, name string, v float64, unit, note string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
	if note != "" {
		note = "  (" + note + ")"
	}
	fmt.Fprintf(out, "%-32s %14.6g %-8s%s\n", name, v, unit, note)
}

// host is what one batch cost the host. Set-up and run are timed in
// process CPU seconds (user + system, all threads): on a shared host the
// wall clock also counts the time other tenants hold the cores. With a
// second benchmark beside it, fleet-steady's wall-clock rate moved 40%
// over ten runs and its CPU rate 13%. runWall is the wall-clock run
// time, which parallel stepping shortens.
type host struct {
	setupS, runS, runWall float64
	allocBytes, mallocs   uint64
	gcCPU, allCPU         float64
	// heapMB is the live heap after the run, the engines or fleet still
	// held, in MiB.
	heapMB float64
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// processCPU is the user plus system CPU time the process has used, in
// seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func readCPU() (gc, all float64) {
	metrics.Read(cpuMetrics)
	return cpuMetrics[0].Value.Float64(), cpuMetrics[1].Value.Float64()
}

// runBatch builds one batch (timed as set-up) and runs it (timed as the
// run), from a freshly collected heap.
func runBatch(in *inputs, rec *recorder) (outcome, host, error) {
	var h host
	runtime.GC()
	c0 := processCPU()
	batch, err := in.setup(in, rec)
	if err != nil {
		return outcome{}, h, err
	}
	h.setupS = processCPU() - c0
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0, all0 := readCPU()
	c1, t1 := processCPU(), time.Now()
	o := batch()
	h.runS, h.runWall = processCPU()-c1, time.Since(t1).Seconds()
	gc1, all1 := readCPU()
	runtime.ReadMemStats(&m1)
	h.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	h.mallocs = m1.Mallocs - m0.Mallocs
	h.gcCPU, h.allCPU = gc1-gc0, all1-all0
	// A full collection leaves exactly what the simulation still holds.
	// The process's peak resident set moved 10.7-14.6 MB between
	// identical fleet-steady runs (GC timing), so it is not reported.
	runtime.GC()
	runtime.ReadMemStats(&m1)
	h.heapMB = float64(m1.HeapAlloc) / (1 << 20)
	runtime.KeepAlive(batch)
	return o, h, nil
}

// untracedRun repeats the batch while another fits the time budget and
// reports the end-to-end metrics: host ones as medians over batches,
// simulated ones from the (identical) batches' outcome.
func untracedRun(in *inputs, budget time.Duration, out io.Writer) (result, error) {
	var res result
	var outs []outcome
	var hosts []host
	// Batches repeat while the next one, as long as the last, still
	// fits the budget.
	start := time.Now()
	var last time.Duration
	for len(outs) == 0 || time.Since(start)+last <= budget {
		t := time.Now()
		o, h, err := runBatch(in, nil)
		if err != nil {
			return res, err
		}
		last = time.Since(t)
		outs, hosts = append(outs, o), append(hosts, h)
	}
	var setups []float64
	var spent float64
	for _, h := range hosts {
		setups = append(setups, h.setupS)
		spent += h.setupS
	}
	for len(setups) < minSetups || spent < setUpBudget.Seconds() {
		runtime.GC()
		c := processCPU()
		if _, err := in.setup(in, nil); err != nil {
			return res, err
		}
		setups = append(setups, processCPU()-c)
		spent += setups[len(setups)-1]
	}
	o := outs[0]
	res.failures = append(res.failures, o.failures...)
	for i, oi := range outs[1:] {
		if oi.digest != o.digest {
			res.failures = append(res.failures, fmt.Sprintf("batch %d event digest %016x differs from batch 0's %016x", i+1, oi.digest, o.digest))
		}
	}
	if err := fillSpeedups(in, &o); err != nil {
		return res, err
	}
	for range outs {
		res.Attempted += o.offered
		res.Failed += o.shed + o.lost
	}

	var tps, wall, kbpt, heap []float64
	for _, h := range hosts {
		tps = append(tps, float64(o.tokens)/h.runS)
		wall = append(wall, float64(o.tokens)/h.runWall)
		kbpt = append(kbpt, float64(h.allocBytes)/float64(o.tokens)/1024)
		heap = append(heap, h.heapMB)
	}
	fmt.Fprintf(out, "%d batches of %d requests, %d simulated tokens each; event digest %016x\n",
		len(outs), o.offered, o.tokens, o.digest)
	batches := fmt.Sprintf("median of %d batches", len(hosts))
	res.report(out, "sim_tok_per_cpu_s", median(tps), "tok/s", batches+"; process CPU seconds")
	fmt.Fprintf(out, "%-32s %14.6g %-8s  (%s; wall clock, not in the summary)\n", "sim_tok_per_wall_s", median(wall), "tok/s", batches)
	res.report(out, "setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups; process CPU seconds", len(setups)))
	res.report(out, "alloc_kb_per_tok", median(kbpt), "KB/tok", batches)
	res.report(out, "live_heap_mb", median(heap), "MB", batches+"; live heap after the run, engines held")
	reportLatency(&res, out, "sim_ttft", o.ttft, 0.50, 0.95)
	reportLatency(&res, out, "sim_tbt", o.tbt, 0.50, 0.99)
	res.report(out, "slo_attain", ratio(float64(o.sloMet), float64(o.sloOffered)), "ratio",
		fmt.Sprintf("%d of %d within TTFT %gs and mean TBT %gs", o.sloMet, o.sloOffered, ttftLimit, tbtLimit))
	res.report(out, "done_frac", ratio(float64(o.done), float64(o.offered)), "ratio",
		fmt.Sprintf("failed_frac %.4g: shed %d + lost %d of %d offered", ratio(float64(o.shed+o.lost), float64(o.offered)), o.shed, o.lost, o.offered))
	res.report(out, "speedup_prefill_vs_ktrans", o.speedPrefill, "x",
		fmt.Sprintf("paper %.2fx, error %+.1f%%", paperPrefillSpeedup, 100*(o.speedPrefill/paperPrefillSpeedup-1)))
	res.report(out, "speedup_decode_vs_ktrans", o.speedDecode, "x",
		fmt.Sprintf("paper %.2fx, error %+.1f%%", paperDecodeSpeedup, 100*(o.speedDecode/paperDecodeSpeedup-1)))
	return res, nil
}

// fillSpeedups computes a fleet workload's speedups outside the timed
// batch; paper-offline's batch computed its own.
func fillSpeedups(in *inputs, o *outcome) error {
	if in.speedups == nil {
		return nil
	}
	var err error
	o.speedPrefill, o.speedDecode, err = in.speedups(in)
	return err
}

// reportLatency reports the median and a tail percentile of simulated
// latency samples (seconds) in milliseconds, with the sample count.
func reportLatency(res *result, out io.Writer, prefix string, xs []float64, lo, hi float64) {
	xs = append([]float64(nil), xs...)
	for _, p := range []float64{lo, hi} {
		note := fmt.Sprintf("n=%d", len(xs))
		if !tailValid(len(xs), p) {
			note += ", fewer than 10 samples beyond this percentile"
		}
		res.report(out, fmt.Sprintf("%s_p%d_ms", prefix, int(p*100+0.5)), 1e3*quantile(xs, p), "ms", note)
	}
}
