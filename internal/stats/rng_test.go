package stats

import (
	"math"
	"testing"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 16; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should give different streams")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestRNGFloat64Mean(t *testing.T) {
	r := NewRNG(2)
	var acc Running
	for i := 0; i < 50000; i++ {
		acc.Add(r.Float64())
	}
	if math.Abs(acc.Mean()-0.5) > 0.01 {
		t.Errorf("uniform mean = %v, want ≈0.5", acc.Mean())
	}
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(3)
	var acc Running
	for i := 0; i < 50000; i++ {
		acc.Add(r.Norm())
	}
	if math.Abs(acc.Mean()) > 0.02 {
		t.Errorf("normal mean = %v, want ≈0", acc.Mean())
	}
	if math.Abs(acc.StdDev()-1) > 0.02 {
		t.Errorf("normal sd = %v, want ≈1", acc.StdDev())
	}
}

func TestRNGIntn(t *testing.T) {
	r := NewRNG(4)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Errorf("Intn(7) should hit all values over 1000 draws, hit %d", len(seen))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Intn(0) should panic")
			}
		}()
		r.Intn(0)
	}()
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(5)
	var acc Running
	for i := 0; i < 50000; i++ {
		acc.Add(r.Exp(2))
	}
	if math.Abs(acc.Mean()-0.5) > 0.02 {
		t.Errorf("Exp(2) mean = %v, want ≈0.5", acc.Mean())
	}
}

func TestRNGZipfSkew(t *testing.T) {
	r := NewRNG(6)
	z := NewZipf(50, 1.2)
	counts := make([]int64, 50)
	for i := 0; i < 20000; i++ {
		counts[z.Sample(r)]++
	}
	if counts[0] <= counts[10] {
		t.Errorf("zipf should concentrate on low indices: c0=%d c10=%d", counts[0], counts[10])
	}
	g := GiniCoefficient(counts)
	if g < 0.4 {
		t.Errorf("zipf(1.2) gini = %v, want strongly skewed (>0.4)", g)
	}
}
