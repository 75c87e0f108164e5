package linalg

import "fmt"

// Tensor32 is the float32 sibling of Tensor: a dense, row-major 2-D tensor
// over one flat float32 buffer. It is the storage type of the speed-tier
// kernels — half the memory traffic of the f64 oracle tier. The f32 family
// is the float32 instantiation of the same generic loop nests and
// microkernels as the f64 family (gemm.go), so the two tiers differ only in
// precision, never in evaluation order: the f64 kernels remain the bitwise
// differential oracle.
type Tensor32 struct {
	Rows, Cols int
	Data       []float32
}

// NewTensor32 returns a zero tensor with the given shape.
func NewTensor32(rows, cols int) *Tensor32 {
	if rows < 0 || cols < 0 {
		panic("linalg: negative tensor dimension")
	}
	return &Tensor32{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// Tensor32View wraps existing flat storage in a tensor header without
// copying. It panics if len(data) != rows*cols.
func Tensor32View(data []float32, rows, cols int) *Tensor32 {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("linalg: Tensor32View len %d != %d×%d", len(data), rows, cols))
	}
	return &Tensor32{Rows: rows, Cols: cols, Data: data}
}

// EnsureTensor32 returns t reshaped to rows×cols, reusing its buffer when
// capacity allows, or a fresh tensor when t is nil or too small. Element
// contents after the call are unspecified — callers overwrite.
func EnsureTensor32(t *Tensor32, rows, cols int) *Tensor32 {
	n := rows * cols
	if t == nil {
		return NewTensor32(rows, cols)
	}
	if cap(t.Data) < n {
		t.Data = make([]float32, n)
	} else {
		t.Data = t.Data[:n]
	}
	t.Rows, t.Cols = rows, cols
	return t
}

// Row returns row i as a slice aliasing the tensor storage.
func (t *Tensor32) Row(i int) []float32 { return t.Data[i*t.Cols : (i+1)*t.Cols] }

// At returns element (i, j).
func (t *Tensor32) At(i, j int) float32 { return t.Data[i*t.Cols+j] }

// Set assigns element (i, j).
func (t *Tensor32) Set(i, j int, v float32) { t.Data[i*t.Cols+j] = v }

// Zero clears every element.
func (t *Tensor32) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// FromRows32 reshapes t to len(rows)×cols and copies the rows in. All rows
// must have length cols. cols disambiguates the width of an empty batch.
func (t *Tensor32) FromRows32(rows [][]float32, cols int) {
	*t = *EnsureTensor32(t, len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("linalg: FromRows32 row %d has %d elements, want %d", i, len(r), cols))
		}
		copy(t.Row(i), r)
	}
}

// FromRows64 reshapes t and narrows f64 rows into the f32 buffer. It is the
// tier-boundary staging copy: callers on the f64 plane pay it once per batch
// when opting into the speed tier.
func (t *Tensor32) FromRows64(rows [][]float64, cols int) {
	*t = *EnsureTensor32(t, len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("linalg: FromRows64 row %d has %d elements, want %d", i, len(r), cols))
		}
		dst := t.Row(i)
		for j, v := range r {
			dst[j] = float32(v)
		}
	}
}

// gemmBlockK32 is the k-panel depth of the blocked f32 kernels: 256 float32s
// of a B row panel (1 KiB, the same cache footprint as the f64 panel) stay
// resident in L1 while a C row accumulates. As in the f64 family, blocking
// and tiling only partition the k loop — the per-element summation order
// stays ascending, so the f32 kernels agree bitwise with the naive f32
// oracles (though not, of course, with the f64 tier).
const gemmBlockK32 = 256

func (t *Tensor32) dims() dims { return dims{t.Rows, t.Cols, len(t.Data)} }

// gemm32 validates the operands of one kernel form and runs it on the f32
// instantiation.
func gemm32(form gemmForm, op string, c, a, b *Tensor32, accumulate bool) {
	m, k, n := gemmDims(form, op, c.dims(), a.dims(), b.dims())
	gemm(form, c.Data, a.Data, b.Data, m, k, n, gemmBlockK32, accumulate)
}

// ref32 is gemm32 for the oracles.
func ref32(form gemmForm, op string, c, a, b *Tensor32) {
	m, k, n := gemmDims(form, op, c.dims(), a.dims(), b.dims())
	refGemm(form, c.Data, a.Data, b.Data, m, k, n)
}

// Gemm32 computes C = A × B with the f32 instantiation of the blocked,
// register-tiled kernel (gemm.go), parallel above the flop cutoff.
// Shapes: A m×k, B k×n, C m×n; C must not alias A or B.
func Gemm32(c, a, b *Tensor32) { gemm32(formNN, "Gemm32", c, a, b, false) }

// GemmAdd32 computes C += A × B (same shapes and kernel as Gemm32). Seeding
// C with a bias row before the call fuses the bias add into the product.
func GemmAdd32(c, a, b *Tensor32) { gemm32(formNN, "GemmAdd32", c, a, b, true) }

// GemmTA32 computes C = Aᵀ × B without materializing the transpose.
// Shapes: A k×m, B k×n, C m×n; C must not alias A or B.
func GemmTA32(c, a, b *Tensor32) { gemm32(formTA, "GemmTA32", c, a, b, false) }

// GemmTAAdd32 computes C += Aᵀ × B (same shapes as GemmTA32).
func GemmTAAdd32(c, a, b *Tensor32) { gemm32(formTA, "GemmTAAdd32", c, a, b, true) }

// GemmTB32 computes C = A × Bᵀ without materializing the transpose.
// Shapes: A m×k, B n×k, C m×n; C must not alias A or B. This is the form the
// inference engine's dense layers use (weights pre-transposed at compile time).
func GemmTB32(c, a, b *Tensor32) { gemm32(formTB, "GemmTB32", c, a, b, false) }

// GemmTBAdd32 computes C += A × Bᵀ (same shapes as GemmTB32).
func GemmTBAdd32(c, a, b *Tensor32) { gemm32(formTB, "GemmTBAdd32", c, a, b, true) }

// TransposeInto32 writes srcᵀ into dst, which must be pre-shaped to
// src.Cols × src.Rows.
func TransposeInto32(dst, src *Tensor32) {
	if dst.Rows != src.Cols || dst.Cols != src.Rows {
		panic(fmt.Sprintf("linalg: TransposeInto32 shape %dx%d, want %dx%d",
			dst.Rows, dst.Cols, src.Cols, src.Rows))
	}
	transpose(dst.Data, src.Data, src.Rows, src.Cols)
}

// RefGemm32 is the unblocked, untiled, single-goroutine f32 reference for
// C = A × B, the differential-test oracle for the f32 kernels (bitwise: both
// sum over k in ascending order).
func RefGemm32(c, a, b *Tensor32) { ref32(formNN, "RefGemm32", c, a, b) }

// RefGemmTA32 is the f32 reference oracle for C = Aᵀ × B.
func RefGemmTA32(c, a, b *Tensor32) { ref32(formTA, "RefGemmTA32", c, a, b) }

// RefGemmTB32 is the f32 reference oracle for C = A × Bᵀ.
func RefGemmTB32(c, a, b *Tensor32) { ref32(formTB, "RefGemmTB32", c, a, b) }
