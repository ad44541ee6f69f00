package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"sort"

	"hybrimoe/internal/engine"
)

// digest fingerprints an event stream: every field of every event, in
// emission order. Equal digests mean the simulation made the same
// decisions at the same simulated instants.
type digest struct {
	h   hash.Hash64
	buf []byte
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) event(replica int, kind string, ev engine.StepEvent) {
	b := d.buf[:0]
	b = binary.LittleEndian.AppendUint64(b, uint64(int64(replica)))
	b = append(b, kind...)
	for _, v := range []int64{int64(ev.Request), int64(ev.Phase), int64(ev.Index), int64(ev.Tokens),
		ev.Hits, ev.Misses, int64(ev.Batch), int64(ev.BatchSize)} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	for _, f := range []float64{ev.Latency, ev.Start, ev.End, ev.CPUBusy, ev.GPUBusy, ev.LinkBusy,
		ev.Deadline, ev.Arrival, ev.Queued} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	for _, vs := range [][]float64{ev.GPUBusyByDevice, ev.LinkBusyByDevice} {
		for _, f := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
		}
	}
	b = append(b, ev.Class...)
	var flags byte
	if ev.Done {
		flags |= 1
	}
	if ev.Migrated {
		flags |= 2
	}
	d.buf = append(b, flags)
	d.h.Write(d.buf)
}

func (d *digest) sum() uint64 { return d.h.Sum64() }

// quantile is the nearest-rank p-quantile of xs (sorted in place); 0 for
// an empty sample.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p*float64(len(xs)))) - 1
	return xs[min(max(rank, 0), len(xs)-1)]
}

// tailValid reports whether the p-quantile of n samples has at least
// ten samples beyond it, the condition for reporting it as a tail.
func tailValid(n int, p float64) bool {
	return float64(n)*(1-p) >= 10
}

// median of a small set of per-batch measurements.
func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
