package linalg

import (
	"fmt"
	"runtime"
)

// The register-tiled microkernels (DESIGN.md, "Memory layout and kernels").
//
// Invariant that makes tiling bitwise-safe: every output element is built by
// exactly the operation sequence of the refGemm oracle — s = 0 (or the old C
// for the axpy Add forms), s = s + a[p]·b[p] for p ascending, then one store
// (or, for GemmTBAdd, one add into C). A tile only decides WHICH elements
// advance together and how long a partial sum stays in a register; it never
// splits, reorders or re-associates one element's sum, and elements do not
// feed each other, so tiling changes the schedule, not a single rounding.
//
// On amd64 with AVX2 a product is one assembly call per row range
// (simd_amd64.s), four output elements to an instruction, each lane doing the
// mul-then-add sequence above. axpyPanelAVX2 (Gemm, GemmTA) keeps a 4-row ×
// 8-column tile of C in registers across all of k (a lone last row, 32
// columns); shortPanelAVX2 takes the products of at most shortSteps k-steps
// from zero a row at a time down 32-column blocks; dotPanelAVX2 (GemmTBAdd)
// runs 4 rows of A × 2 rows of B, a lane per A row. The Go loops below are their
// n mod 4 tail columns and m mod 4 leftover rows, the whole kernel under
// -tags purego and off amd64, and the readable twin the assembly is tested
// against: 2 rows of C × 4, 2 or 1 steps of k for the axpy forms (both C
// elements stay in registers across the steps and share the B loads), 4×2 and
// 4×1 tiles of independent add chains for the dot form.
//
// Two things ride on the store of a finished element and leave its sum alone.
// An Epilogue (the axpy forms) adds a bias to the finished sum, rectifies or
// gates it: element-wise steps on one value each, so doing them in the
// register before the store gives the bits of storing and then making the
// same passes over C. And the class-major form (GemmTC, tcPanelAVX2) keeps a
// lane per row of A, transposing each 4×4 block of A in registers once for all
// the classes, and stores the four row lanes of one column as one vector into
// a row of Cᵀ instead of scattering them down a column of C.

// simdCols is how many leading columns of an n-column row the assembly bodies
// take, four to a vector; the Go loops below them start at that column, and
// are the whole kernel without AVX2.
func simdCols(n int) int {
	if useAVX2 {
		return n &^ 3
	}
	return 0
}

// axpyPair advances columns j and up of rows i and i+1 of C (n columns) by
// depth ∈ {1,2,4} k-steps: c_r[j] += a_r[0]·B[p][j], then a_r[1]·B[p+1][j], …
// in that order.
func axpyPair(c, b []float64, n, j, i, p, depth int, a0, a1 *[4]float64) {
	c0 := c[i*n+j : (i+1)*n]
	c1 := c[(i+1)*n+j : (i+2)*n][:len(c0)]
	b0 := b[p*n+j : (p+1)*n][:len(c0)]
	switch depth {
	case 4:
		b1 := b[(p+1)*n+j : (p+2)*n][:len(c0)]
		b2 := b[(p+2)*n+j : (p+3)*n][:len(c0)]
		b3 := b[(p+3)*n+j : (p+4)*n][:len(c0)]
		a00, a01, a02, a03 := a0[0], a0[1], a0[2], a0[3]
		a10, a11, a12, a13 := a1[0], a1[1], a1[2], a1[3]
		for j, s0 := range c0 {
			s1 := c1[j]
			v0, v1, v2, v3 := b0[j], b1[j], b2[j], b3[j]
			s0 += a00 * v0
			s1 += a10 * v0
			s0 += a01 * v1
			s1 += a11 * v1
			s0 += a02 * v2
			s1 += a12 * v2
			s0 += a03 * v3
			s1 += a13 * v3
			c0[j], c1[j] = s0, s1
		}
	case 2:
		b1 := b[(p+1)*n+j : (p+2)*n][:len(c0)]
		a00, a01 := a0[0], a0[1]
		a10, a11 := a1[0], a1[1]
		for j, s0 := range c0 {
			s1 := c1[j]
			v0, v1 := b0[j], b1[j]
			s0 += a00 * v0
			s1 += a10 * v0
			s0 += a01 * v1
			s1 += a11 * v1
			c0[j], c1[j] = s0, s1
		}
	case 1:
		a00, a10 := a0[0], a1[0]
		for j, v0 := range b0 {
			c0[j] += a00 * v0
			c1[j] += a10 * v0
		}
	}
}

// axpyRow advances columns j and up of the single row i of C (the odd last
// row of a range, or a one-row batch) by the k-steps p, p+1, … with
// coefficients a0, one pass over the row per step.
func axpyRow(c, b []float64, n, j, i, p int, a0 []float64) {
	c0 := c[i*n+j : (i+1)*n]
	for q, av := range a0 {
		bq := b[(p+q)*n+j : (p+q+1)*n][:len(c0)]
		for j, v := range bq {
			c0[j] += av * v
		}
	}
}

// put stores one finished dot product: C = s, or C += s for the Add forms.
func put(dst *float64, s float64, accumulate bool) {
	if accumulate {
		*dst += s
	} else {
		*dst = s
	}
}

// dot4x2 computes the 4×2 tile C[i..i+3][j..j+1] of A × Bᵀ (A rows and B rows
// of length k): eight independent ascending-p dot products.
func dot4x2(c, a, b []float64, k, n, i, j int, accumulate bool) {
	var s00, s01, s10, s11, s20, s21, s30, s31 float64
	b0 := b[j*k : (j+1)*k]
	b1 := b[(j+1)*k : (j+2)*k][:len(b0)]
	a0 := a[i*k : (i+1)*k][:len(b0)]
	a1 := a[(i+1)*k : (i+2)*k][:len(b0)]
	a2 := a[(i+2)*k : (i+3)*k][:len(b0)]
	a3 := a[(i+3)*k : (i+4)*k][:len(b0)]
	for p, u0 := range b0 {
		u1 := b1[p]
		x0, x1, x2, x3 := a0[p], a1[p], a2[p], a3[p]
		s00 += x0 * u0
		s01 += x0 * u1
		s10 += x1 * u0
		s11 += x1 * u1
		s20 += x2 * u0
		s21 += x2 * u1
		s30 += x3 * u0
		s31 += x3 * u1
	}
	put(&c[i*n+j], s00, accumulate)
	put(&c[i*n+j+1], s01, accumulate)
	put(&c[(i+1)*n+j], s10, accumulate)
	put(&c[(i+1)*n+j+1], s11, accumulate)
	put(&c[(i+2)*n+j], s20, accumulate)
	put(&c[(i+2)*n+j+1], s21, accumulate)
	put(&c[(i+3)*n+j], s30, accumulate)
	put(&c[(i+3)*n+j+1], s31, accumulate)
}

// dot4x1 is the odd last column of a 4-row band.
func dot4x1(c, a, b []float64, k, n, i, j int, accumulate bool) {
	var s0, s1, s2, s3 float64
	b0 := b[j*k : (j+1)*k]
	a0 := a[i*k : (i+1)*k][:len(b0)]
	a1 := a[(i+1)*k : (i+2)*k][:len(b0)]
	a2 := a[(i+2)*k : (i+3)*k][:len(b0)]
	a3 := a[(i+3)*k : (i+4)*k][:len(b0)]
	for p, u0 := range b0 {
		s0 += a0[p] * u0
		s1 += a1[p] * u0
		s2 += a2[p] * u0
		s3 += a3[p] * u0
	}
	put(&c[i*n+j], s0, accumulate)
	put(&c[(i+1)*n+j], s1, accumulate)
	put(&c[(i+2)*n+j], s2, accumulate)
	put(&c[(i+3)*n+j], s3, accumulate)
}

// dotRow computes row i of A × Bᵀ, one dot product per element — the
// m mod 4 leftover rows of a range.
func dotRow(c, a, b []float64, k, n, i int, accumulate bool) {
	a0 := a[i*k : (i+1)*k]
	for j := 0; j < n; j++ {
		b0 := b[j*k : (j+1)*k][:len(a0)]
		var s float64
		for p, x0 := range a0 {
			s += x0 * b0[p]
		}
		put(&c[i*n+j], s, accumulate)
	}
}

// gemmForm names the three operand layouts the kernels come in.
type gemmForm uint8

const (
	formNN gemmForm = iota // C = A × B:  A m×k, B k×n
	formTA                 // C = Aᵀ × B: A k×m, B k×n
	formTB                 // C = A × Bᵀ: A m×k, B n×k
)

// gemmDims holds the shape rules of the three forms in one place: it returns
// the product's (m, k, n) and panics unless C is m×n, the shared dimension
// agrees, and every operand's storage matches its shape.
func gemmDims(form gemmForm, op string, c, a, b *Tensor) (m, k, n int) {
	var kb int // the shared dimension as B sees it
	switch form {
	case formNN:
		m, k, n, kb = a.Rows, a.Cols, b.Cols, b.Rows
	case formTA:
		m, k, n, kb = a.Cols, a.Rows, b.Cols, b.Rows
	case formTB:
		m, k, n, kb = a.Rows, a.Cols, b.Rows, b.Cols
	}
	if kb != k || c.Rows != m || c.Cols != n {
		panic(fmt.Sprintf("linalg: %s shape mismatch C(%dx%d) A(%dx%d) B(%dx%d)",
			op, c.Rows, c.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if len(a.Data) != a.Rows*a.Cols || len(b.Data) != b.Rows*b.Cols || len(c.Data) != c.Rows*c.Cols {
		panic(fmt.Sprintf("linalg: %s tensor data length inconsistent with shape", op))
	}
	return m, k, n
}

// Epilogue is what an axpy-form product does to each element of C at its
// store, after the last k-step (GemmWith, GemmTAWith; DESIGN.md, "Memory
// layout and kernels"). The steps run in the order of the fields below, each
// rounded on its own.
type Epilogue struct {
	// Bias, one value per column of C, goes into every row: as the first term
	// of each sum, which then starts from it, or — BiasLast — added to the
	// finished sum. The two orders round differently; each is some layer's
	// contract (nn.Dense).
	Bias     []float64
	BiasLast bool
	// ReLU stores max(v, 0), the builtin's answers for −0 and NaN included
	// (ReLU).
	ReLU bool
	// Gate, C's shape, multiplies each element by 1 where Gate's element is
	// non-zero with the sign bit clear and by 0 elsewhere (ReLUGate).
	Gate []float64
}

// check panics unless the epilogue fits an m×n product.
func (e Epilogue) check(op string, m, n int) {
	if e.Bias != nil && len(e.Bias) != n || e.BiasLast && e.Bias == nil {
		panic(fmt.Sprintf("linalg: %s bias length %d, product has %d columns", op, len(e.Bias), n))
	}
	if e.Gate != nil && len(e.Gate) != m*n {
		panic(fmt.Sprintf("linalg: %s gate length %d, product has %d elements", op, len(e.Gate), m*n))
	}
}

// store runs the epilogue's store steps over columns [j, n) of rows [i0, i1)
// of C in Go: the columns the panel does not take, or all of them.
func (e Epilogue) store(c []float64, n, i0, i1, j int) {
	if !e.BiasLast && !e.ReLU && e.Gate == nil {
		return
	}
	for i := i0; i < i1 && j < n; i++ {
		row := c[i*n+j : (i+1)*n]
		if e.BiasLast {
			for q, v := range e.Bias[j:n] {
				row[q] += v
			}
		}
		if e.ReLU {
			for q, v := range row {
				row[q] = max(v, 0)
			}
		}
		if e.Gate != nil {
			gateRow(row, e.Gate[i*n+j:(i+1)*n])
		}
	}
}

// gemm computes the m×n product C (+)= op(A) × op(B) over flat row-major
// storage, fanning out by output row above the flop cutoff, with the epilogue
// e at the store (axpy forms only).
func gemm(form gemmForm, c, a, b []float64, e Epilogue, m, k, n int, accumulate bool) {
	flops := m * k * n
	if flops < parallelFlopCutoff || m <= 1 || runtime.GOMAXPROCS(0) <= 1 {
		// Serial fast path: the fan-out closure below is never built, so a
		// warm small-batch call allocates nothing.
		gemmRows(form, c, a, b, e, m, k, n, 0, m, accumulate)
		return
	}
	parallelRows(m, flops, func(i0, i1 int) {
		gemmRows(form, c, a, b, e, m, k, n, i0, i1, accumulate)
	})
}

// gemmRows computes output rows [i0, i1) of one product. It slices every
// operand to its full extent first, so a buffer shorter than its shape panics
// here, in Go, before an element of C has moved and before the assembly sees a
// pointer.
func gemmRows(form gemmForm, c, a, b []float64, e Epilogue, m, k, n, i0, i1 int, accumulate bool) {
	c, a, b = c[:m*n], a[:m*k], b[:k*n]
	switch form {
	case formTB:
		gemmTBRows(c, a, b, k, n, i0, i1, accumulate)
	case formTA:
		gemmAxpyRows(c, a, b, e, k, n, i0, i1, 1, m, accumulate)
	default:
		gemmAxpyRows(c, a, b, e, k, n, i0, i1, k, 1, accumulate)
	}
}

// shortSteps is the deepest k the short-k panel takes: a product summed from
// zero with at most a gate at its store, over a handful of k-steps — the class
// head's input gradient, k = classes. Up to here it outruns the axpy panel's
// tiles, whose loads, seeding and store cost more than their few steps
// (BenchmarkGemmForward's head/dH rows).
const shortSteps = 8

// zeroSeed starts every tile of a panel that overwrites C.
var zeroSeed [8]float64

// fillRows sets every len(v)-long row of dst to v.
func fillRows(dst, v []float64) {
	for len(dst) > 0 {
		dst = dst[copy(dst, v):]
	}
}

// gemmAxpyRows computes C[i0:i1] (+)= op(A)[i0:i1] × B, where element (r, p)
// of op(A) is a[r·rowStride + p·stepStride]: strides (k, 1) for A, (1, m) for
// Aᵀ. With AVX2 the panel takes the leading 4·⌊n/4⌋ columns of the whole range
// in one call — a range need not be whole 4-row bands, but parallelRows cuts
// at multiples of 4 rows so that only the true end of the matrix pays for a
// partial band — and the Go loops (row pair, 4-deep k step, j) take the
// columns past them. A panel that takes every column starts its tiles from
// the seed (the bias row, or zeros) in registers; otherwise the seed is
// written to C first and everybody accumulates. The epilogue's store steps
// run in the panel's store for its columns and in Go after the loops for the
// rest; with a seeding bias C is overwritten whatever accumulate says.
func gemmAxpyRows(c, a, b []float64, e Epilogue, k, n, i0, i1, rowStride, stepStride int, accumulate bool) {
	if i0 >= i1 {
		return
	}
	var bias, post, gate []float64
	if e.BiasLast {
		post = e.Bias[:n]
	} else if e.Bias != nil {
		bias = e.Bias[:n]
	}
	if e.Gate != nil {
		gate = e.Gate[i0*n : i1*n]
	}
	j := simdCols(n)
	if k == 0 {
		j = 0
	}
	inPanel := j == n
	var seed []float64
	seedStep := 0
	switch {
	case bias != nil && inPanel:
		seed, seedStep = bias, 1
	case bias != nil:
		fillRows(c[i0*n:i1*n], bias)
	case !accumulate && inPanel:
		seed = zeroSeed[:]
	case !accumulate:
		clear(c[i0*n : i1*n])
	}
	if j > 0 {
		rows := i1 - i0
		last := (rows-1)*rowStride + (k-1)*stepStride
		if k <= shortSteps && !accumulate && bias == nil && post == nil && !e.ReLU {
			shortPanelAVX2(c[i0*n:i1*n], a[i0*rowStride:][:last+1], b, gate, rows, k, n, j, rowStride, stepStride)
		} else {
			axpyPanelAVX2(c[i0*n:i1*n], a[i0*rowStride:][:last+1], b, seed, rows, k, n, j, rowStride, stepStride, seedStep, post, gate, e.ReLU)
		}
		if j == n {
			return
		}
	}
	var a0, a1 [4]float64
	for i := i0; i < i1; i += 2 {
		pair := i+1 < i1
		for p, d := 0, 0; p < k; p += d {
			if d = min(4, k-p); d == 3 {
				d = 2 // the pair tile comes 4, 2 and 1 steps deep
			}
			for q := 0; q < d; q++ {
				a0[q] = a[i*rowStride+(p+q)*stepStride]
				if pair {
					a1[q] = a[(i+1)*rowStride+(p+q)*stepStride]
				}
			}
			if pair {
				axpyPair(c, b, n, j, i, p, d, &a0, &a1)
			} else {
				axpyRow(c, b, n, j, i, p, a0[:d])
			}
		}
	}
	e.store(c, n, i0, i1, j)
}

// gemmTBRows computes C[i0:i1] (+)= (A × Bᵀ)[i0:i1] in 4×2 tiles of dot
// products over two contiguous rows each: the whole 4-row bands in one
// assembly call with AVX2, in the Go tiles without.
func gemmTBRows(c, a, b []float64, k, n, i0, i1 int, accumulate bool) {
	i := i0
	if rows := (i1 - i0) &^ 3; useAVX2 && rows > 0 && k > 0 && n > 0 {
		i += rows
		dotPanelAVX2(c[i0*n:i*n], a[i0*k:i*k], b, rows, k, n, accumulate)
	}
	for ; i+4 <= i1; i += 4 {
		j := 0
		for ; j+2 <= n; j += 2 {
			dot4x2(c, a, b, k, n, i, j, accumulate)
		}
		if j < n {
			dot4x1(c, a, b, k, n, i, j, accumulate)
		}
	}
	for ; i < i1; i++ {
		dotRow(c, a, b, k, n, i, accumulate)
	}
}

// gemmTC computes Cᵀ = (A × B)ᵀ for A m×k and B k×n into ct (n rows, m
// apart), fanning out by rows of A above the flop cutoff: element (j, i) is
// s + Σ_p A[i][p]·B[p][j] over p ascending from s = seed[j] (zero without a
// seed), then + post[j] when there is a post.
func gemmTC(ct, a, b, seed, post []float64, m, k, n int) {
	flops := m * k * n
	if flops < parallelFlopCutoff || m <= 1 || runtime.GOMAXPROCS(0) <= 1 {
		gemmTCRows(ct, a, b, seed, post, m, k, n, 0, m)
		return
	}
	parallelRows(m, flops, func(i0, i1 int) {
		gemmTCRows(ct, a, b, seed, post, m, k, n, i0, i1)
	})
}

// gemmTCRows computes columns [i0, i1) of Cᵀ: with AVX2 the whole 4-row bands
// of A in one assembly call, a lane per row of A, the rest here one element
// at a time. B is read where it lies, column j every n-th element from b[j].
// Like gemmRows it slices every operand to its full extent first.
func gemmTCRows(ct, a, b, seed, post []float64, m, k, n, i0, i1 int) {
	ct, a, b = ct[:n*m], a[:m*k], b[:k*n]
	if seed != nil {
		seed = seed[:n]
	}
	if post != nil {
		post = post[:n]
	}
	i := i0
	if rows := (i1 - i0) &^ 3; useAVX2 && rows > 0 && k > 0 && n > 0 {
		i += rows
		tcPanelAVX2(ct[i0:(n-1)*m+i], a[i0*k:i*k], b, seed, post, rows, k, n, m)
	}
	for ; i < i1; i++ {
		ar := a[i*k : (i+1)*k]
		for j := 0; j < n; j++ {
			var s float64
			if seed != nil {
				s = seed[j]
			}
			for p, x := range ar {
				s += x * b[p*n+j]
			}
			if post != nil {
				s += post[j]
			}
			ct[j*m+i] = s
		}
	}
}
