// Package linalg provides the dense linear-algebra primitives that the rest
// of FreewayML is built on: vectors, row-major matrices, means and
// covariances of sample sets, and a symmetric Jacobi eigendecomposition used
// by the PCA substrate.
//
// The package is deliberately small and allocation-conscious: streaming
// learning touches these routines on every batch, so all hot paths operate
// on caller-provided slices where practical.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrDimensionMismatch is returned when two operands have incompatible shapes.
var ErrDimensionMismatch = errors.New("linalg: dimension mismatch")

// Vector is a dense column of float64 values.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Add returns v + w. It panics if the lengths differ.
func (v Vector) Add(w Vector) Vector {
	mustSameLen(v, w)
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] + w[i]
	}
	return out
}

// Sub returns v - w. It panics if the lengths differ.
func (v Vector) Sub(w Vector) Vector {
	mustSameLen(v, w)
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out
}

// AddInPlace adds w into v element-wise.
func (v Vector) AddInPlace(w Vector) {
	mustSameLen(v, w)
	sumRows(v, w, 1, len(v), 0)
}

// Scale returns c*v.
func (v Vector) Scale(c float64) Vector {
	out := make(Vector, len(v))
	for i := range v {
		out[i] = c * v[i]
	}
	return out
}

// ScaleInPlace multiplies every element of v by c.
func (v Vector) ScaleInPlace(c float64) {
	for i := range v {
		v[i] *= c
	}
}

// Dot returns the inner product of v and w.
func (v Vector) Dot(w Vector) float64 {
	mustSameLen(v, w)
	var s float64
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

// Norm returns the Euclidean (L2) norm of v.
func (v Vector) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Distance returns the Euclidean distance between v and w.
func (v Vector) Distance(w Vector) float64 {
	mustSameLen(v, w)
	var s float64
	for i := range v {
		d := v[i] - w[i]
		s += d * d
	}
	return math.Sqrt(s)
}

func mustSameLen(v, w Vector) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: vector length mismatch %d vs %d", len(v), len(w)))
	}
}

// Mean returns the element-wise mean of the rows. It returns an error if
// rows is empty or rows have inconsistent lengths.
func Mean(rows []Vector) (Vector, error) { return MeanInto(nil, rows) }

// MeanInto is Mean in dst's storage when it is long enough: the mean it
// returns is then a prefix of dst, else a fresh vector.
func MeanInto(dst Vector, rows []Vector) (Vector, error) {
	if len(rows) == 0 {
		return nil, errors.New("linalg: Mean of empty set")
	}
	d := len(rows[0])
	if cap(dst) < d {
		dst = NewVector(d)
	}
	mean := dst[:d]
	clear(mean)
	for _, r := range rows {
		if len(r) != d {
			return nil, ErrDimensionMismatch
		}
		mean.AddInPlace(r)
	}
	mean.ScaleInPlace(1 / float64(len(rows)))
	return mean, nil
}

// Covariance returns the d×d sample covariance matrix of the rows around the
// given mean, normalized by n (matching Eq. 3 of the FreewayML paper, which
// uses the biased 1/n estimator).
func Covariance(rows []Vector, mean Vector) (*Matrix, error) {
	if len(rows) == 0 {
		return nil, errors.New("linalg: Covariance of empty set")
	}
	d := len(mean)
	cov := NewMatrix(d, d)
	diff := NewVector(d)
	for _, r := range rows {
		if len(r) != d {
			return nil, ErrDimensionMismatch
		}
		for i := range r {
			diff[i] = r[i] - mean[i]
		}
		for i := 0; i < d; i++ {
			di := diff[i]
			row := cov.Row(i)
			for j := 0; j < d; j++ {
				row[j] += di * diff[j]
			}
		}
	}
	inv := 1 / float64(len(rows))
	for i := range cov.Data {
		cov.Data[i] *= inv
	}
	return cov, nil
}
