package quant

import (
	"math"
	"testing"

	"hybrimoe/internal/stats"
	"hybrimoe/internal/tensor"
)

func TestQuantize8RoundTrip(t *testing.T) {
	rng := stats.NewRNG(31)
	src := randomMatrix(rng, 8, 96)
	q := Quantize(src, 8, 32)
	for r := 0; r < src.Rows; r++ {
		for c := 0; c < src.Cols; c++ {
			scale := float64(q.Scales[r*q.groupsPerRow()+c/q.GroupSize])
			diff := math.Abs(float64(src.At(r, c) - q.At(r, c)))
			if diff > scale/2+1e-7 {
				t.Fatalf("(%d,%d) error %v exceeds half scale %v", r, c, diff, scale/2)
			}
		}
	}
}

func TestQuantize8ZeroAndDefaults(t *testing.T) {
	src := tensor.NewMatrix(2, 256)
	q := Quantize(src, 8, 0)
	if q.GroupSize != DefaultGroupSize {
		t.Fatalf("default group size not applied: %d", q.GroupSize)
	}
	for _, v := range q.Dequantize().Data {
		if v != 0 {
			t.Fatal("zero matrix must round-trip to zero")
		}
	}
}

func TestInt8MoreAccurateThanInt4(t *testing.T) {
	rng := stats.NewRNG(32)
	src := randomMatrix(rng, 32, 256)
	x := make([]float32, 256)
	for i := range x {
		x[i] = float32(rng.NormMeanStd(0, 1))
	}
	q4 := Quantize(src, 4, 128)
	q8 := Quantize(src, 8, 128)
	f4 := MeasureFidelity(src, q4.MatVec, x)
	f8 := MeasureFidelity(src, q8.MatVec, x)
	t.Logf("int4: corr=%.5f relL2=%.4f; int8: corr=%.5f relL2=%.4f",
		f4.Correlation, f4.RelL2Error, f8.Correlation, f8.RelL2Error)
	if f8.RelL2Error >= f4.RelL2Error {
		t.Fatalf("int8 error %v should be below int4 error %v", f8.RelL2Error, f4.RelL2Error)
	}
	if f8.Correlation <= f4.Correlation {
		t.Fatalf("int8 correlation %v should beat int4 %v", f8.Correlation, f4.Correlation)
	}
	if f8.Correlation < 0.999 {
		t.Fatalf("int8 correlation %v too low", f8.Correlation)
	}
}

func TestInt8TwiceTheBytesOfInt4(t *testing.T) {
	b4 := QuantizedSizeBytes(64, 256, 4, 128)
	b8 := QuantizedSizeBytes(64, 256, 8, 128)
	// INT8 weights are exactly 2x the nibble storage; scales match.
	wantWeights4 := int64(64 * 128)
	wantWeights8 := int64(64 * 256)
	if b4-wantWeights4 != b8-wantWeights8 {
		t.Fatalf("scale overhead differs: %d vs %d", b4, b8)
	}
	if b8 <= b4 {
		t.Fatalf("int8 (%d B) should exceed int4 (%d B)", b8, b4)
	}
	// SizeBytes reports the same wire size, whatever the in-memory
	// layout.
	src := tensor.NewMatrix(64, 256)
	if got4, got8 := Quantize(src, 4, 128).SizeBytes(), Quantize(src, 8, 128).SizeBytes(); got4 != b4 || got8 != b8 {
		t.Fatalf("SizeBytes int4 %d int8 %d, want %d and %d", got4, got8, b4, b8)
	}
}

func TestInt8MatVecPanics(t *testing.T) {
	q := Quantize(tensor.NewMatrix(2, 8), 8, 8)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("short x should panic")
			}
		}()
		q.MatVec(make([]float32, 2), make([]float32, 4))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("short dst should panic")
			}
		}()
		q.MatVec(make([]float32, 1), make([]float32, 8))
	}()
}

func TestInt8MatVecMatchesDequantized(t *testing.T) {
	rng := stats.NewRNG(33)
	src := randomMatrix(rng, 6, 64)
	q := Quantize(src, 8, 16)
	x := make([]float32, 64)
	for i := range x {
		x[i] = float32(rng.NormMeanStd(0, 1))
	}
	got := make([]float32, 6)
	q.MatVec(got, x)
	want := make([]float32, 6)
	tensor.MatVec(want, q.Dequantize(), x)
	for i := range got {
		if math.Abs(float64(got[i]-want[i])) > 1e-4 {
			t.Fatalf("int8 MatVec[%d] = %v, dequantized = %v", i, got[i], want[i])
		}
	}
}

func TestMeasureFidelityIdentity(t *testing.T) {
	rng := stats.NewRNG(34)
	src := randomMatrix(rng, 4, 32)
	x := make([]float32, 32)
	for i := range x {
		x[i] = float32(rng.NormMeanStd(0, 1))
	}
	// fp32 against itself: perfect.
	f := MeasureFidelity(src, func(dst, x []float32) { tensor.MatVec(dst, src, x) }, x)
	if math.Abs(f.Correlation-1) > 1e-9 || f.RelL2Error > 1e-9 {
		t.Fatalf("identity fidelity broken: %+v", f)
	}
}
