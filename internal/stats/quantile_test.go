package stats

import (
	"testing"
	"testing/quick"
)

func TestSampleQuantileKnown(t *testing.T) {
	var s Sample
	s.AddN([]float64{1, 2, 3, 4, 5})
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := s.Quantile(c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestSampleQuantileInterpolates(t *testing.T) {
	var s Sample
	s.AddN([]float64{0, 10})
	if got := s.Quantile(0.5); got != 5 {
		t.Errorf("interpolated median = %v, want 5", got)
	}
	if got := s.Quantile(0.1); got != 1 {
		t.Errorf("quantile(0.1) = %v, want 1", got)
	}
}

func TestSampleSingleElement(t *testing.T) {
	var s Sample
	s.Add(3)
	for _, q := range []float64{0, 0.5, 1} {
		if got := s.Quantile(q); got != 3 {
			t.Errorf("quantile(%v) of singleton = %v", q, got)
		}
	}
}

func TestSamplePanics(t *testing.T) {
	var empty Sample
	func() {
		defer func() {
			if recover() == nil {
				t.Error("quantile of empty sample should panic")
			}
		}()
		empty.Quantile(0.5)
	}()
	var s Sample
	s.Add(1)
	for _, q := range []float64{-0.1, 1.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("quantile(%v) should panic", q)
				}
			}()
			s.Quantile(q)
		}()
	}
}

func TestSampleAddAfterQuery(t *testing.T) {
	var s Sample
	s.AddN([]float64{5, 1})
	if got := s.Median(); got != 3 {
		t.Fatalf("median = %v, want 3", got)
	}
	s.Add(100)
	if got := s.Quantile(1); got != 100 {
		t.Fatalf("max after re-add = %v, want 100", got)
	}
}

// Property: quantile is monotone in q and bounded by [min, max].
func TestQuantileMonotoneQuick(t *testing.T) {
	f := func(raw []int16, qa, qb uint8) bool {
		if len(raw) == 0 {
			return true
		}
		var s Sample
		for _, v := range raw {
			s.Add(float64(v))
		}
		a := float64(qa%101) / 100
		b := float64(qb%101) / 100
		if a > b {
			a, b = b, a
		}
		va, vb := s.Quantile(a), s.Quantile(b)
		return va <= vb+1e-9 && va >= s.Quantile(0)-1e-9 && vb <= s.Quantile(1)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
