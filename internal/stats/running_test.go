package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestRunningEmpty(t *testing.T) {
	var r Running
	if r.N() != 0 || r.Mean() != 0 || r.Variance() != 0 || r.StdDev() != 0 {
		t.Fatalf("zero-value Running should report zeros, got %v", r.String())
	}
}

func TestRunningSingle(t *testing.T) {
	var r Running
	r.Add(42)
	if r.N() != 1 || r.Mean() != 42 || r.Variance() != 0 {
		t.Fatalf("single observation: %v", r.String())
	}
	if r.Min() != 42 || r.Max() != 42 {
		t.Fatalf("min/max after single add: %v", r.String())
	}
}

func TestRunningKnownValues(t *testing.T) {
	var r Running
	r.AddN([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if got := r.Mean(); got != 5 {
		t.Errorf("mean = %v, want 5", got)
	}
	// Unbiased sample variance of this classic dataset is 32/7.
	if got, want := r.Variance(), 32.0/7.0; !almostEq(got, want, 1e-12) {
		t.Errorf("variance = %v, want %v", got, want)
	}
	if r.Min() != 2 || r.Max() != 9 {
		t.Errorf("min/max = %v/%v, want 2/9", r.Min(), r.Max())
	}
}

// Property: variance is never negative and mean stays within [min, max].
func TestRunningInvariantsQuick(t *testing.T) {
	f := func(xs []float64) bool {
		var r Running
		n := 0
		for _, x := range xs {
			// Skip non-finite and astronomically large inputs whose
			// squared deltas overflow float64; they are outside the
			// accumulator's supported domain.
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e150 {
				continue
			}
			r.Add(x)
			n++
		}
		if n == 0 {
			return true
		}
		return r.Variance() >= 0 && r.Mean() >= r.Min()-1e-9 && r.Mean() <= r.Max()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
