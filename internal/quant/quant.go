// Package quant implements symmetric 4- and 8-bit group quantization of
// float32 weight matrices. It stands in for the Marlin INT4 kernels the
// paper uses via llama.cpp: expert weights travel as packed integers
// with a per-group float32 scale, cutting the transferred bytes roughly
// 8× vs fp32 at 4 bits (4× vs the fp16 the paper starts from) while
// keeping a real dequantize + matvec compute path for the functional
// model. The 8-bit width is the higher-fidelity leg of the
// mixed-precision trade-off offloading systems such as HOBBIT (which
// the paper cites) make per expert.
package quant

import (
	"fmt"
	"math"

	"hybrimoe/internal/tensor"
)

// DefaultGroupSize matches the 128-wide groups used by Marlin/GPTQ-style
// kernels.
const DefaultGroupSize = 128

// Matrix is a row-major group-quantized matrix. Each row is divided into
// groups of GroupSize consecutive elements sharing one float32 scale.
// Values are signed Bits-wide integers: [-8, 7] at 4 bits, [-128, 127]
// at 8.
type Matrix struct {
	Rows, Cols int
	Bits       int
	GroupSize  int
	// Data holds one quantized value per element, row-major.
	Data []int8
	// Scales: groupsPerRow() float32 per row.
	Scales []float32
}

func (m *Matrix) groupsPerRow() int {
	return (m.Cols + m.GroupSize - 1) / m.GroupSize
}

// SizeBytes reports the wire footprint (packed weights + scales), which
// is what crosses the PCIe link in the offloading scenario.
func (m *Matrix) SizeBytes() int64 {
	return QuantizedSizeBytes(m.Rows, m.Cols, m.Bits, m.GroupSize)
}

// checkBits panics unless bits is a supported width.
func checkBits(bits int) {
	if bits != 4 && bits != 8 {
		panic(fmt.Sprintf("quant: %d-bit quantization unsupported (want 4 or 8)", bits))
	}
}

// Quantize converts a float32 matrix to symmetric bits-wide groups of
// the given size. bits must be 4 or 8; groupSize <= 0 selects
// DefaultGroupSize.
func Quantize(src *tensor.Matrix, bits, groupSize int) *Matrix {
	checkBits(bits)
	if groupSize <= 0 {
		groupSize = DefaultGroupSize
	}
	q := &Matrix{
		Rows:      src.Rows,
		Cols:      src.Cols,
		Bits:      bits,
		GroupSize: groupSize,
		Data:      make([]int8, src.Rows*src.Cols),
	}
	qmax := float64(int(1)<<(bits-1) - 1)
	q.Scales = make([]float32, src.Rows*q.groupsPerRow())
	for r := 0; r < src.Rows; r++ {
		row := src.Row(r)
		for g := 0; g < q.groupsPerRow(); g++ {
			lo := g * groupSize
			hi := min(lo+groupSize, src.Cols)
			var amax float64
			for _, v := range row[lo:hi] {
				if a := math.Abs(float64(v)); a > amax {
					amax = a
				}
			}
			scale := float32(amax / qmax)
			q.Scales[r*q.groupsPerRow()+g] = scale
			if scale == 0 {
				continue // zero group quantizes to zeros
			}
			for c := lo; c < hi; c++ {
				v := math.Round(float64(row[c]) / float64(scale))
				q.Data[r*src.Cols+c] = int8(max(-qmax-1, min(qmax, v)))
			}
		}
	}
	return q
}

// At dequantizes and returns element (r, c).
func (m *Matrix) At(r, c int) float32 {
	return float32(m.Data[r*m.Cols+c]) * m.Scales[r*m.groupsPerRow()+c/m.GroupSize]
}

// Dequantize reconstructs a float32 matrix.
func (m *Matrix) Dequantize() *tensor.Matrix {
	out := tensor.NewMatrix(m.Rows, m.Cols)
	for r := 0; r < m.Rows; r++ {
		row := out.Row(r)
		for c := 0; c < m.Cols; c++ {
			row[c] = m.At(r, c)
		}
	}
	return out
}

// MatVec computes dst = m · x directly on the quantized representation,
// dequantizing on the fly group by group. Panics on shape mismatch.
func (m *Matrix) MatVec(dst, x []float32) {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("quant: MatVec x len %d != cols %d", len(x), m.Cols))
	}
	if len(dst) != m.Rows {
		panic(fmt.Sprintf("quant: MatVec dst len %d != rows %d", len(dst), m.Rows))
	}
	gpr := m.groupsPerRow()
	for r := 0; r < m.Rows; r++ {
		var acc float64
		row := m.Data[r*m.Cols : (r+1)*m.Cols]
		for g := 0; g < gpr; g++ {
			lo := g * m.GroupSize
			hi := min(lo+m.GroupSize, m.Cols)
			scale := float64(m.Scales[r*gpr+g])
			if scale == 0 {
				continue
			}
			var sub float64
			for c := lo; c < hi; c++ {
				sub += float64(row[c]) * float64(x[c])
			}
			acc += scale * sub
		}
		dst[r] = float32(acc)
	}
}

// QuantizedSizeBytes predicts the wire footprint of a rows×cols matrix
// at the given width without materialising it: packed weights
// (ceil(cols·bits/8) bytes per row) plus per-group scales. The hardware
// model uses this to size expert transfers.
func QuantizedSizeBytes(rows, cols, bits, groupSize int) int64 {
	checkBits(bits)
	if groupSize <= 0 {
		groupSize = DefaultGroupSize
	}
	groups := (cols + groupSize - 1) / groupSize
	return int64(rows)*int64((cols*bits+7)/8) + int64(rows)*int64(groups)*4
}

// FidelityStats quantifies reconstruction quality of a quantizer against
// the fp32 reference on a matrix-vector product: the Pearson correlation
// and the relative L2 error of the outputs.
type FidelityStats struct {
	Correlation float64
	RelL2Error  float64
}

// MeasureFidelity runs x through the fp32 matrix and a quantized
// matvec function and compares outputs.
func MeasureFidelity(src *tensor.Matrix, qmv func(dst, x []float32), x []float32) FidelityStats {
	ref := make([]float32, src.Rows)
	tensor.MatVec(ref, src, x)
	got := make([]float32, src.Rows)
	qmv(got, x)
	var dot, nr, ng, errSq float64
	for i := range ref {
		r, g := float64(ref[i]), float64(got[i])
		dot += r * g
		nr += r * r
		ng += g * g
		d := r - g
		errSq += d * d
	}
	out := FidelityStats{}
	if nr > 0 && ng > 0 {
		out.Correlation = dot / math.Sqrt(nr*ng)
	}
	if nr > 0 {
		out.RelL2Error = math.Sqrt(errSq / nr)
	}
	return out
}
