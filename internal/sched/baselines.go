package sched

import (
	"sort"

	"hybrimoe/internal/hw"
)

// KTransStatic reproduces the kTransformers scheduling strategy the
// paper uses as its main baseline: a fixed mapping where GPU-resident
// (cached/pinned) experts run on the GPU and everything else runs on the
// CPU. CPU and GPU proceed in parallel but there is no load balancing,
// no work stealing, and no on-demand transfer — exactly the imbalance of
// Figure 1(b).
type KTransStatic struct{}

// NewKTransStatic returns the kTransformers-style baseline.
func NewKTransStatic() *KTransStatic { return &KTransStatic{} }

// Name implements Scheduler.
func (s *KTransStatic) Name() string { return "KTransformers" }

// Plan implements Scheduler.
func (s *KTransStatic) Plan(tasks []Task, p *hw.Platform, res Resources) *Plan {
	res.validate()
	plan := &Plan{}
	var cpuTasks, gpuTasks []Task
	for _, t := range tasks {
		if t.Cached {
			gpuTasks = append(gpuTasks, t)
		} else {
			cpuTasks = append(cpuTasks, t)
		}
	}
	// Descending load on the GPU (hot experts first), ascending on the
	// CPU; order only affects intra-layer progress, not the makespan.
	sort.SliceStable(gpuTasks, func(i, j int) bool { return gpuTasks[i].Load > gpuTasks[j].Load })
	sort.SliceStable(cpuTasks, func(i, j int) bool { return cpuTasks[i].Load < cpuTasks[j].Load })

	gpuBusy := res.GPUFreeAt(hw.GPU)
	for _, t := range gpuTasks {
		end := gpuBusy + p.GPUs[0].ExpertTime(t.Flops, t.Bytes)
		plan.Ops = append(plan.Ops, Op{Expert: t.ID, Kind: OpComputeGPU, Load: t.Load, Start: gpuBusy, End: end})
		gpuBusy = end
	}
	cpuBusy := res.CPUFree
	for i, t := range cpuTasks {
		end := cpuBusy + p.CPU.ExpertTime(t.Flops, t.Bytes, i == 0)
		plan.Ops = append(plan.Ops, Op{Expert: t.ID, Kind: OpComputeCPU, Load: t.Load, Start: cpuBusy, End: end})
		cpuBusy = end
	}
	plan.Makespan = maxFloat(gpuBusy, cpuBusy)
	if len(gpuTasks) == 0 {
		plan.Makespan = cpuBusy
	}
	if len(cpuTasks) == 0 {
		plan.Makespan = gpuBusy
	}
	if len(tasks) == 0 {
		plan.Makespan = 0
	}
	return plan
}

// GPUCentric reproduces the AdapMoE-style strategy: every expert runs on
// the GPU; cache misses stall on on-demand PCIe loads (mitigated by
// whatever prefetching and caching the engine layers on top). The CPU
// does no expert computation.
type GPUCentric struct{}

// NewGPUCentric returns the AdapMoE-style baseline.
func NewGPUCentric() *GPUCentric { return &GPUCentric{} }

// Name implements Scheduler.
func (s *GPUCentric) Name() string { return "AdapMoE" }

// Plan implements Scheduler.
func (s *GPUCentric) Plan(tasks []Task, p *hw.Platform, res Resources) *Plan {
	res.validate()
	plan := &Plan{}
	var cached, missed []Task
	for _, t := range tasks {
		if t.Cached {
			cached = append(cached, t)
		} else {
			missed = append(missed, t)
		}
	}
	sort.SliceStable(cached, func(i, j int) bool { return cached[i].Load > cached[j].Load })
	// Highest-load misses transfer first so the GPU's biggest work
	// arrives earliest.
	sort.SliceStable(missed, func(i, j int) bool { return missed[i].Load > missed[j].Load })

	linkBusy := res.LinkFreeAt(hw.GPU)
	type ready struct {
		task Task
		at   float64
	}
	var pend []ready
	for _, t := range missed {
		end := linkBusy + p.Links[0].TransferTime(t.Bytes)
		plan.Ops = append(plan.Ops, Op{Expert: t.ID, Kind: OpTransfer, Load: t.Load, Start: linkBusy, End: end})
		plan.Transferred = append(plan.Transferred, t.ID)
		linkBusy = end
		pend = append(pend, ready{task: t, at: end})
	}
	// Cached experts are ready immediately.
	for _, t := range cached {
		pend = append([]ready{{task: t}}, pend...)
	}
	// GPU executes in ready order (stable: cached first, then arrival).
	sort.SliceStable(pend, func(i, j int) bool { return pend[i].at < pend[j].at })
	gpuBusy := res.GPUFreeAt(hw.GPU)
	for _, r := range pend {
		start := maxFloat(gpuBusy, r.at)
		end := start + p.GPUs[0].ExpertTime(r.task.Flops, r.task.Bytes)
		plan.Ops = append(plan.Ops, Op{Expert: r.task.ID, Kind: OpComputeGPU, Load: r.task.Load, Start: start, End: end})
		gpuBusy = end
	}
	plan.Makespan = gpuBusy
	if len(tasks) == 0 {
		plan.Makespan = 0
	}
	return plan
}

// StaticSplit reproduces llama.cpp's strategy: whole layers are mapped
// to the GPU or the CPU ahead of time (the -ngl option). A GPU layer
// executes all its experts on the GPU (its weights are resident by
// construction); a CPU layer executes everything on the CPU. There is no
// intra-layer parallelism across devices at all.
type StaticSplit struct {
	// GPULayer reports whether a layer lives on the GPU.
	GPULayer func(layer int) bool
}

// NewStaticSplit returns the llama.cpp-style baseline with the given
// layer placement.
func NewStaticSplit(gpuLayer func(int) bool) *StaticSplit {
	return &StaticSplit{GPULayer: gpuLayer}
}

// Name implements Scheduler.
func (s *StaticSplit) Name() string { return "llama.cpp" }

// Plan implements Scheduler.
func (s *StaticSplit) Plan(tasks []Task, p *hw.Platform, res Resources) *Plan {
	res.validate()
	plan := &Plan{}
	if len(tasks) == 0 {
		return plan
	}
	layer := tasks[0].ID.Layer
	onGPU := s.GPULayer != nil && s.GPULayer(layer)
	ordered := make([]Task, len(tasks))
	copy(ordered, tasks)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Load > ordered[j].Load })
	if onGPU {
		gpuBusy := res.GPUFreeAt(hw.GPU)
		for _, t := range ordered {
			end := gpuBusy + p.GPUs[0].ExpertTime(t.Flops, t.Bytes)
			plan.Ops = append(plan.Ops, Op{Expert: t.ID, Kind: OpComputeGPU, Load: t.Load, Start: gpuBusy, End: end})
			gpuBusy = end
		}
		plan.Makespan = gpuBusy
		return plan
	}
	cpuBusy := res.CPUFree
	for i, t := range ordered {
		end := cpuBusy + p.CPU.ExpertTime(t.Flops, t.Bytes, i == 0)
		plan.Ops = append(plan.Ops, Op{Expert: t.ID, Kind: OpComputeCPU, Load: t.Load, Start: cpuBusy, End: end})
		cpuBusy = end
	}
	plan.Makespan = cpuBusy
	return plan
}

func maxFloat(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

var (
	_ Scheduler = (*KTransStatic)(nil)
	_ Scheduler = (*GPUCentric)(nil)
	_ Scheduler = (*StaticSplit)(nil)
)
