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
//   - axpy forms (Gemm, GemmTA): 2 rows of C × up to 4 steps of k. Both C
//     elements stay in registers across the k steps and share the 4 B loads:
//     8 memory operations per 8 mul-adds instead of 24. Depths 1–3 are spelled
//     out, so k = 3 (Conv1D, InChannels·Kernel = 3) and k = C (input gradient
//     of a 64→C head) are one tiled pass.
//   - dot form (GemmTB): 4 rows of A × 2 rows of B, eight independent add
//     chains fed by 6 loads per k step; 4×1 takes an odd last column.
//
// On amd64 with AVX2 each of these tiles has an assembly body (simd_amd64.s)
// that runs four output elements per instruction — four columns of C in the
// axpy forms, the four A rows of a dot tile — each lane doing exactly the
// mul-then-add sequence of the loops below, which remain as the tail past the
// last whole vector and as the whole kernel everywhere else.
//
// Leftover rows: the odd last row of an axpy range keeps the 4-deep k step
// (axpyRow), the m mod 4 rows of the dot form run the plain one-chain loop;
// parallelRows cuts ranges at multiples of 4 rows, so only the true end of
// the matrix ever has a leftover.

// simdCols is how many leading columns of an n-column row the assembly bodies
// take, four to a vector; the Go loops below them start at that column, and
// are the whole kernel without AVX2.
func simdCols(n int) int {
	if useAVX2 {
		return n &^ 3
	}
	return 0
}

// axpyPair advances rows i and i+1 of C (n columns) by depth ∈ [1,4] k-steps:
// c_r[j] += a_r[0]·B[p][j], then a_r[1]·B[p+1][j], … in that order.
func axpyPair(c, b []float64, n, i, p, depth int, a0, a1 *[4]float64) {
	j := simdCols(n)
	if j > 0 {
		axpyPairAVX2(c[i*n:i*n+j], c[(i+1)*n:(i+1)*n+j], b[p*n:(p+depth)*n], n, depth, a0, a1)
		if j == n {
			return
		}
	}
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
	case 3:
		b1 := b[(p+1)*n+j : (p+2)*n][:len(c0)]
		b2 := b[(p+2)*n+j : (p+3)*n][:len(c0)]
		a00, a01, a02 := a0[0], a0[1], a0[2]
		a10, a11, a12 := a1[0], a1[1], a1[2]
		for j, s0 := range c0 {
			s1 := c1[j]
			v0, v1, v2 := b0[j], b1[j], b2[j]
			s0 += a00 * v0
			s1 += a10 * v0
			s0 += a01 * v1
			s1 += a11 * v1
			s0 += a02 * v2
			s1 += a12 * v2
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

// axpyRow advances the single row i of C (the odd last row of a range, or a
// one-row batch) by the k-steps p, p+1, … with coefficients a0: 4 steps per
// pass over the row, as axpyPair does, then one pass per remaining step. An
// element still receives a0[0]·B[p][j], a0[1]·B[p+1][j], … in that order.
func axpyRow(c, b []float64, n, i, p int, a0 []float64) {
	j := simdCols(n)
	if j > 0 {
		axpyRowAVX2(c[i*n:i*n+j], b[p*n:(p+len(a0))*n], n, a0)
		if j == n {
			return
		}
	}
	c0 := c[i*n+j : (i+1)*n]
	q := 0
	for ; q+4 <= len(a0); q += 4 {
		b0 := b[(p+q)*n+j : (p+q+1)*n][:len(c0)]
		b1 := b[(p+q+1)*n+j : (p+q+2)*n][:len(c0)]
		b2 := b[(p+q+2)*n+j : (p+q+3)*n][:len(c0)]
		b3 := b[(p+q+3)*n+j : (p+q+4)*n][:len(c0)]
		a00, a01, a02, a03 := a0[q], a0[q+1], a0[q+2], a0[q+3]
		for j, s := range c0 {
			s += a00 * b0[j]
			s += a01 * b1[j]
			s += a02 * b2[j]
			s += a03 * b3[j]
			c0[j] = s
		}
	}
	for ; q < len(a0); q++ {
		av := a0[q]
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
	p0 := simdCols(k)
	if p0 > 0 {
		var s [8]float64
		dot4AVX2(&s, a[i*k:(i+4)*k], k, b[j*k:j*k+p0], b[(j+1)*k:(j+1)*k+p0])
		s00, s10, s20, s30, s01, s11, s21, s31 = s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]
	}
	b0 := b[j*k+p0 : (j+1)*k]
	b1 := b[(j+1)*k+p0 : (j+2)*k][:len(b0)]
	a0 := a[i*k+p0 : (i+1)*k][:len(b0)]
	a1 := a[(i+1)*k+p0 : (i+2)*k][:len(b0)]
	a2 := a[(i+2)*k+p0 : (i+3)*k][:len(b0)]
	a3 := a[(i+3)*k+p0 : (i+4)*k][:len(b0)]
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
	p0 := simdCols(k)
	if p0 > 0 {
		var s [8]float64
		dot4AVX2(&s, a[i*k:(i+4)*k], k, b[j*k:j*k+p0], nil)
		s0, s1, s2, s3 = s[0], s[1], s[2], s[3]
	}
	b0 := b[j*k+p0 : (j+1)*k]
	a0 := a[i*k+p0 : (i+1)*k][:len(b0)]
	a1 := a[(i+1)*k+p0 : (i+2)*k][:len(b0)]
	a2 := a[(i+2)*k+p0 : (i+3)*k][:len(b0)]
	a3 := a[(i+3)*k+p0 : (i+4)*k][:len(b0)]
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

// gemm computes the m×n product C (+)= op(A) × op(B) over flat row-major
// storage, fanning out by output row above the flop cutoff.
func gemm(form gemmForm, c, a, b []float64, m, k, n int, accumulate bool) {
	flops := m * k * n
	if flops < parallelFlopCutoff || m <= 1 || runtime.GOMAXPROCS(0) <= 1 {
		// Serial fast path: the fan-out closure below is never built, so a
		// warm small-batch call allocates nothing.
		gemmRows(form, c, a, b, m, k, n, 0, m, accumulate)
		return
	}
	parallelRows(m, flops, func(i0, i1 int) {
		gemmRows(form, c, a, b, m, k, n, i0, i1, accumulate)
	})
}

// gemmRows computes output rows [i0, i1) of one product.
func gemmRows(form gemmForm, c, a, b []float64, m, k, n, i0, i1 int, accumulate bool) {
	if form == formTB {
		gemmTBRows(c, a, b, k, n, i0, i1, accumulate)
		return
	}
	if !accumulate {
		clear(c[i0*n : i1*n])
	}
	if form == formTA {
		gemmTARows(c, a, b, m, k, n, i0, i1)
	} else {
		gemmNNRows(c, a, b, k, n, i0, i1)
	}
}

// gemmNNRows accumulates C[i0:i1] += A[i0:i1] × B. Loop order: k-panel, row
// pair, 4-deep k step, j. k is cut into gemmBlockK panels so a B panel is
// reused across the row range while still resident in cache; the panel walk
// is ascending, so it only partitions each element's sum.
func gemmNNRows(c, a, b []float64, k, n, i0, i1 int) {
	var a0, a1 [4]float64
	for k0 := 0; k0 < k; k0 += gemmBlockK {
		k1 := min(k0+gemmBlockK, k)
		i := i0
		for ; i+2 <= i1; i += 2 {
			r0, r1 := a[i*k:(i+1)*k], a[(i+1)*k:(i+2)*k]
			for p := k0; p < k1; p += 4 {
				d := min(4, k1-p)
				for q := 0; q < d; q++ {
					a0[q], a1[q] = r0[p+q], r1[p+q]
				}
				axpyPair(c, b, n, i, p, d, &a0, &a1)
			}
		}
		if i < i1 {
			axpyRow(c, b, n, i, k0, a[i*k+k0:i*k+k1])
		}
	}
}

// gemmTARows accumulates C[i0:i1] += (Aᵀ × B)[i0:i1]. The 4-deep k step is
// the outer loop, so A and B stream through once while the written C rows
// form the reuse block; the coefficients of a row pair are the adjacent
// elements A[p..p+3][i], A[p..p+3][i+1].
func gemmTARows(c, a, b []float64, m, k, n, i0, i1 int) {
	var a0, a1 [4]float64
	for p := 0; p < k; p += 4 {
		d := min(4, k-p)
		i := i0
		for ; i+2 <= i1; i += 2 {
			for q := 0; q < d; q++ {
				a0[q], a1[q] = a[(p+q)*m+i], a[(p+q)*m+i+1]
			}
			axpyPair(c, b, n, i, p, d, &a0, &a1)
		}
		if i < i1 {
			for q := 0; q < d; q++ {
				a0[q] = a[(p+q)*m+i]
			}
			axpyRow(c, b, n, i, p, a0[:d])
		}
	}
}

// gemmTBRows computes C[i0:i1] (+)= (A × Bᵀ)[i0:i1] in 4×2 tiles of dot
// products over two contiguous rows each.
func gemmTBRows(c, a, b []float64, k, n, i0, i1 int, accumulate bool) {
	i := i0
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

// refGemm is the oracle the kernels above are differentially tested against:
// C[i][j] = Σ_p op(A)[i][p] · op(B)[p][j], each element on its own, summed
// from zero in ascending p. It states the per-element operation sequence in
// its plainest form and must stay untiled, unblocked and single-goroutine.
func refGemm(form gemmForm, c, a, b []float64, m, k, n int) {
	ai, ap, bp, bj := k, 1, n, 1 // strides of A[i][p] and B[p][j] for formNN
	switch form {
	case formTA:
		ai, ap = 1, m
	case formTB:
		bp, bj = 1, k
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += a[i*ai+p*ap] * b[p*bp+j*bj]
			}
			c[i*n+j] = s
		}
	}
}
