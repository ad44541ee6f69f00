package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sample collects observations for exact quantile queries. It is meant
// for experiment-scale data (thousands of points), not unbounded streams.
// The zero value is ready to use.
type Sample struct {
	xs     []float64
	sorted bool
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// AddN records every value in xs.
func (s *Sample) AddN(xs []float64) {
	s.xs = append(s.xs, xs...)
	s.sorted = false
}

// N reports the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) using linear
// interpolation between order statistics. It panics when the sample is
// empty or q is out of range.
func (s *Sample) Quantile(q float64) float64 {
	if len(s.xs) == 0 {
		panic("stats: quantile of empty sample")
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		panic(fmt.Sprintf("stats: quantile %v out of [0,1]", q))
	}
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	if len(s.xs) == 1 {
		return s.xs[0]
	}
	pos := q * float64(len(s.xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.xs[lo]
	}
	frac := pos - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// Median is shorthand for Quantile(0.5).
func (s *Sample) Median() float64 { return s.Quantile(0.5) }

// Mean reports the arithmetic mean, or 0 when empty.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}
