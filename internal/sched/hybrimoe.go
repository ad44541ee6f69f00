package sched

import (
	"sort"

	"hybrimoe/internal/hw"
)

// HybriMoE is the paper's dynamic intra-layer scheduler (§IV-B). It
// turns the NP-hard mapping problem into a greedy simulation constrained
// by three priority rules:
//
//   - GPU priority: compute cached experts, highest load first;
//   - CPU priority: compute uncached experts, lowest load first; steal
//     low-load cached experts from the GPU queue when otherwise idle;
//   - transfer priority: move the highest-load uncached experts to the
//     GPU first.
//
// The planning loop iteratively fills the CPU, GPU and PCIe timelines:
// at each step it evaluates the next operation each timeline could run,
// commits the one that completes earliest (ties prefer CPU, then GPU,
// then PCIe), and — when a transfer commits — moves the expert into the
// GPU queue in descending load order with availability at the transfer's
// end, exactly the simulation the paper describes.
type HybriMoE struct{}

// NewHybriMoE returns the dynamic hybrid scheduler.
func NewHybriMoE() *HybriMoE { return &HybriMoE{} }

// Name implements Scheduler.
func (s *HybriMoE) Name() string { return "HybriMoE" }

// gpuEntry is a GPU-queue element: a task plus the time it becomes
// available on the GPU (0 for cached experts, transfer end for in-flight
// ones).
type gpuEntry struct {
	task    Task
	readyAt float64
	// viaTransfer marks entries produced by a committed transfer; the
	// CPU must not steal them (the weights are already in flight).
	viaTransfer bool
}

// Plan implements Scheduler. It runs the greedy timeline-filling
// simulation and, because the paper's simulation phase "evaluates
// scheduling strategies" before committing, also simulates the static
// cached→GPU / uncached→CPU mapping and returns whichever plan finishes
// first. The greedy pass wins whenever rebalancing helps; the fallback
// guarantees HybriMoE never does worse than the kTransformers mapping.
func (s *HybriMoE) Plan(tasks []Task, p *hw.Platform, res Resources) *Plan {
	greedy := s.planGreedy(tasks, p, res)
	static := buildAssignment(tasks, p, res, func(i int) bool { return !tasks[i].Cached })
	if static != nil && static.Makespan < greedy.Makespan {
		return static
	}
	return greedy
}

func (s *HybriMoE) planGreedy(tasks []Task, p *hw.Platform, res Resources) *Plan {
	res.validate()
	plan := &Plan{}
	if len(tasks) == 0 {
		return plan
	}

	// CPU queue: uncached, ascending load.
	var cpuQ []Task
	// GPU queue: cached, descending load.
	var gpuQ []gpuEntry
	for _, t := range tasks {
		if t.Cached {
			gpuQ = append(gpuQ, gpuEntry{task: t})
		} else {
			cpuQ = append(cpuQ, t)
		}
	}
	sort.SliceStable(cpuQ, func(i, j int) bool { return cpuQ[i].Load < cpuQ[j].Load })
	sort.SliceStable(gpuQ, func(i, j int) bool { return gpuQ[i].task.Load > gpuQ[j].task.Load })

	cpuBusy, gpuBusy, linkBusy := res.CPUFree, res.GPUFreeAt(hw.GPU), res.LinkFreeAt(hw.GPU)
	cpuFirst := true

	appendOp := func(op Op) {
		plan.Ops = append(plan.Ops, op)
		if op.Kind != OpTransfer && op.End > plan.Makespan {
			plan.Makespan = op.End
		}
	}

	for len(cpuQ) > 0 || len(gpuQ) > 0 {
		const none = -1
		// Candidate 0: CPU computes its queue head, or steals the
		// lowest-load cached (non-in-flight) expert from the GPU queue.
		cpuTask := none // index into cpuQ, or stolen gpuQ index encoded below
		cpuSteal := none
		var cpuFin float64
		if len(cpuQ) > 0 {
			cpuTask = 0
			t := cpuQ[0]
			cpuFin = cpuBusy + p.CPU.ExpertTime(t.Flops, t.Bytes, cpuFirst)
		} else {
			// Steal: lowest load = scan gpuQ from the back (sorted
			// descending), skipping in-flight transfers.
			for i := len(gpuQ) - 1; i >= 0; i-- {
				if !gpuQ[i].viaTransfer {
					cpuSteal = i
					t := gpuQ[i].task
					cpuFin = cpuBusy + p.CPU.ExpertTime(t.Flops, t.Bytes, cpuFirst)
					break
				}
			}
		}

		// Candidate 1: GPU computes the best available queue entry —
		// the earliest-startable one, preferring higher load on ties
		// (the queue is load-ordered, so the first minimal-start entry
		// wins).
		gpuIdx := none
		var gpuStart, gpuFin float64
		for i, e := range gpuQ {
			start := gpuBusy
			if e.readyAt > start {
				start = e.readyAt
			}
			if gpuIdx == none || start < gpuStart-1e-15 {
				gpuIdx = i
				gpuStart = start
				gpuFin = start + p.GPUs[0].ExpertTime(e.task.Flops, e.task.Bytes)
			}
		}

		// Candidate 2: PCIe transfers the highest-load uncached expert
		// (the CPU queue tail).
		xferIdx := none
		var xferFin float64
		if len(cpuQ) > 0 {
			xferIdx = len(cpuQ) - 1
			xferFin = linkBusy + p.Links[0].TransferTime(cpuQ[xferIdx].Bytes)
		}

		// Commit the earliest-finishing candidate; ties prefer CPU,
		// then GPU, then PCIe (matching the paper's walk-through, which
		// keeps the CPU busy on cheap uncached work).
		const eps = 1e-15
		best := none // 0=CPU, 1=GPU, 2=PCIe
		var bestFin float64
		consider := func(kind int, fin float64, ok bool) {
			if !ok {
				return
			}
			if best == none || fin < bestFin-eps {
				best = kind
				bestFin = fin
			}
		}
		consider(0, cpuFin, cpuTask != none || cpuSteal != none)
		consider(1, gpuFin, gpuIdx != none)
		consider(2, xferFin, xferIdx != none)

		switch best {
		case 0:
			var t Task
			if cpuTask != none {
				t = cpuQ[0]
				cpuQ = cpuQ[1:]
			} else {
				t = gpuQ[cpuSteal].task
				gpuQ = append(gpuQ[:cpuSteal], gpuQ[cpuSteal+1:]...)
			}
			appendOp(Op{Expert: t.ID, Kind: OpComputeCPU, Load: t.Load, Start: cpuBusy, End: cpuFin})
			cpuBusy = cpuFin
			cpuFirst = false
		case 1:
			e := gpuQ[gpuIdx]
			gpuQ = append(gpuQ[:gpuIdx], gpuQ[gpuIdx+1:]...)
			appendOp(Op{Expert: e.task.ID, Kind: OpComputeGPU, Load: e.task.Load, Start: gpuStart, End: gpuFin})
			gpuBusy = gpuFin
		case 2:
			t := cpuQ[xferIdx]
			cpuQ = cpuQ[:xferIdx]
			appendOp(Op{Expert: t.ID, Kind: OpTransfer, Load: t.Load, Start: linkBusy, End: xferFin})
			linkBusy = xferFin
			plan.Transferred = append(plan.Transferred, t.ID)
			// Insert into the GPU queue keeping descending load order.
			entry := gpuEntry{task: t, readyAt: xferFin, viaTransfer: true}
			pos := sort.Search(len(gpuQ), func(i int) bool { return gpuQ[i].task.Load < t.Load })
			gpuQ = append(gpuQ, gpuEntry{})
			copy(gpuQ[pos+1:], gpuQ[pos:])
			gpuQ[pos] = entry
		default:
			panic("sched: no candidate operation (scheduler bug)")
		}
	}
	return plan
}

var _ Scheduler = (*HybriMoE)(nil)

// SimulateMakespan predicts the makespan of scheduling tasks under the
// given resources without materialising the plan — the cheap what-if
// query the impact-driven prefetcher issues (§IV-C). cached is the
// index of one task to treat as already on the GPU, or -1 for none. The
// override flips that task's Cached flag for the duration of the call
// and restores it, so tasks is unchanged on return but must not be read
// concurrently.
func SimulateMakespan(s Scheduler, tasks []Task, p *hw.Platform, res Resources, cached int) float64 {
	if cached < 0 || tasks[cached].Cached {
		return s.Plan(tasks, p, res).Makespan
	}
	tasks[cached].Cached = true
	makespan := s.Plan(tasks, p, res).Makespan
	tasks[cached].Cached = false
	return makespan
}
