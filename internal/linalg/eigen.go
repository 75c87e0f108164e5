package linalg

import (
	"errors"
	"math"
	"sort"
)

// EigenResult holds the eigendecomposition of a symmetric matrix:
// Values[i] is the i-th eigenvalue (descending) and column i of Vectors the
// corresponding unit eigenvector.
type EigenResult struct {
	Values  Vector
	Vectors *Matrix // columns are eigenvectors
}

// maxJacobiSweeps bounds the cyclic Jacobi iteration. Convergence for the
// covariance matrices FreewayML produces (d ≤ a few hundred) takes well under
// this many sweeps.
const maxJacobiSweeps = 100

// SymmetricEigen computes the full eigendecomposition of a symmetric matrix
// using the cyclic Jacobi rotation method. The input is not modified.
// Eigenpairs are returned in order of descending eigenvalue.
func SymmetricEigen(m *Matrix) (*EigenResult, error) {
	if m.Rows != m.Cols {
		return nil, errors.New("linalg: SymmetricEigen requires a square matrix")
	}
	if !m.IsSymmetric(1e-8) {
		return nil, errors.New("linalg: SymmetricEigen requires a symmetric matrix")
	}
	n := m.Rows
	a := m.Clone()
	v := Identity(n)

	for sweep := 0; sweep < maxJacobiSweeps; sweep++ {
		off := offDiagonalNorm(a)
		if off < 1e-12 {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := a.At(p, q)
				if math.Abs(apq) < 1e-15 {
					continue
				}
				jacobiRotate(a, v, p, q)
			}
		}
	}

	// Extract and sort eigenpairs by descending eigenvalue.
	type pair struct {
		val float64
		idx int
	}
	pairs := make([]pair, n)
	for i := 0; i < n; i++ {
		pairs[i] = pair{a.At(i, i), i}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].val > pairs[j].val })

	res := &EigenResult{Values: NewVector(n), Vectors: NewMatrix(n, n)}
	for k, p := range pairs {
		res.Values[k] = p.val
		for i := 0; i < n; i++ {
			res.Vectors.Set(i, k, v.At(i, p.idx))
		}
	}
	return res, nil
}

// jacobiRotate applies a Jacobi rotation zeroing a[p][q], updating the
// accumulated eigenvector matrix v.
func jacobiRotate(a, v *Matrix, p, q int) {
	n := a.Rows
	apq := a.At(p, q)
	app := a.At(p, p)
	aqq := a.At(q, q)

	theta := (aqq - app) / (2 * apq)
	var t float64
	if theta >= 0 {
		t = 1 / (theta + math.Sqrt(1+theta*theta))
	} else {
		t = -1 / (-theta + math.Sqrt(1+theta*theta))
	}
	c := 1 / math.Sqrt(1+t*t)
	s := t * c

	for i := 0; i < n; i++ {
		aip := a.At(i, p)
		aiq := a.At(i, q)
		a.Set(i, p, c*aip-s*aiq)
		a.Set(i, q, s*aip+c*aiq)
	}
	for j := 0; j < n; j++ {
		apj := a.At(p, j)
		aqj := a.At(q, j)
		a.Set(p, j, c*apj-s*aqj)
		a.Set(q, j, s*apj+c*aqj)
	}
	for i := 0; i < n; i++ {
		vip := v.At(i, p)
		viq := v.At(i, q)
		v.Set(i, p, c*vip-s*viq)
		v.Set(i, q, s*vip+c*viq)
	}
}

func offDiagonalNorm(a *Matrix) float64 {
	var s float64
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if i != j {
				s += a.At(i, j) * a.At(i, j)
			}
		}
	}
	return math.Sqrt(s)
}
