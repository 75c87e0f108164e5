package linalg

// refGemm is the oracle the kernels of gemm.go are differentially tested
// against: C[i][j] = Σ_p op(A)[i][p] · op(B)[p][j], each element on its own,
// summed from zero in ascending p. It states the per-element operation
// sequence in its plainest form and must stay untiled, unblocked and
// single-goroutine.
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

// refOp is gemmOp for the oracles.
func refOp(form gemmForm, op string, c, a, b *Tensor) {
	m, k, n := gemmDims(form, op, c, a, b)
	refGemm(form, c.Data, a.Data, b.Data, m, k, n)
}

// RefGemm is the unblocked, untiled, single-goroutine reference for
// C = A × B: the differential-test oracle for the optimized kernels.
func RefGemm(c, a, b *Tensor) { refOp(formNN, "RefGemm", c, a, b) }

// RefGemmTA is the reference oracle for C = Aᵀ × B.
func RefGemmTA(c, a, b *Tensor) { refOp(formTA, "RefGemmTA", c, a, b) }

// RefGemmTB is the reference oracle for C = A × Bᵀ.
func RefGemmTB(c, a, b *Tensor) { refOp(formTB, "RefGemmTB", c, a, b) }
