package linalg

import (
	"fmt"
	"math"
)

// The class head's element-wise kernels: Exp and Log over a whole slab, and
// the divisions that normalize it (DESIGN.md, "The class head").

// ExpInto sets dst[i] = math.Exp(src[i]), bit for bit, for every i. dst and
// src have the same length and are the same slice or do not overlap. With AVX2
// and FMA, and where math.Exp runs its FMA body, four lanes at a time run a
// replica of that body; a group of four in which a lane would
// take one of math.Exp's branches (an argument that is not finite or is above
// Overflow, a result outside the normal range) goes through math.Exp, and so
// does every element past the last whole group.
func ExpInto(dst, src []float64) { byGroups(dst, src, expBody, math.Exp) }

// LogInto sets dst[i] = math.Log(src[i]), bit for bit, for every i, on the
// terms of ExpInto: four lanes of math.Log's amd64 body, and math.Log itself
// for a group with a lane that is ≤ 0, infinite or NaN, and for the tail.
func LogInto(dst, src []float64) { byGroups(dst, src, logBody, math.Log) }

// byGroups runs the kernel body over the leading 4·⌊n/4⌋ elements and f over
// the groups it stops in front of and the elements past them. A nil body (no
// AVX2, or no replica that agrees with math here) leaves everything to f.
func byGroups(dst, src []float64, body groupKernel, f func(float64) float64) {
	mustSameLen(dst, src)
	n := 0
	if body != nil {
		n = simdCols(len(src))
	}
	for i := 0; i < n; {
		i += body(dst[i:n], src[i:n])
		for end := min(i+4, n); i < end; i++ {
			dst[i] = f(src[i])
		}
	}
	for i := n; i < len(src); i++ {
		dst[i] = f(src[i])
	}
}

// DivScalar divides every element of dst by s. Where s is a normal power of
// two, of either sign, it multiplies by 1/s instead: 1/s is then exact, so
// x/s and x·(1/s) are one real number and round to the same bits — ±0,
// subnormals, infinities and NaN payloads included — and a multiply costs a
// fraction of a divide.
func DivScalar(dst []float64, s float64) {
	if e := math.Float64bits(s) >> 52 & 0x7ff; math.Float64bits(s)<<12 == 0 && e != 0 && e != 0x7ff {
		mulScalar(dst, 1/s)
		return
	}
	j := simdCols(len(dst))
	if j > 0 {
		divScalarAVX2(dst[:j], s)
	}
	for i := j; i < len(dst); i++ {
		dst[i] /= s
	}
}

// mulScalar multiplies every element of dst by s.
func mulScalar(dst []float64, s float64) {
	j := simdCols(len(dst))
	if j > 0 {
		mulScalarAVX2(dst[:j], s)
	}
	for i := j; i < len(dst); i++ {
		dst[i] *= s
	}
}

// CopyFinite copies src into dst, of the same length, and reports whether
// every value was finite: one pass over src, where a copy and a separate scan
// would be two. It is the row kernel's copy of src as one row.
func CopyFinite(dst, src []float64) bool {
	mustSameLen(dst, src)
	finite, _ := copyRows(dst, [][]float64{src}, len(src))
	return finite
}

// SameBits reports whether a and b hold the same float64s bit for bit: one
// length, and at every index the same 64 bits, so −0 is not +0 and a NaN
// matches only a NaN of its own sign and payload. It is the row kernel's
// compare of b as one row.
func SameBits(a, b []float64) bool {
	return len(a) == len(b) && sameRows(a, [][]float64{b}, len(b))
}

// copyRows copies rows, each cols wide, back to back into dst, at least
// len(rows)·cols long, and reports whether every value was finite; ok is
// false, and the copy stopped, at the first row that is not cols wide. With
// AVX2 the assembly body walks the rows (copyRowsAVX2), else the Go loop.
func copyRows(dst []float64, rows [][]float64, cols int) (finite, ok bool) {
	dst = dst[:len(rows)*cols]
	if useAVX2 {
		return copyRowsAVX2(dst, rows, cols)
	}
	finite = true
	for i, row := range rows {
		if len(row) != cols {
			return finite, false
		}
		d := dst[i*cols : (i+1)*cols]
		for j, v := range row {
			d[j] = v
			// A non-finite float is the only value for which v-v != 0.
			if v-v != 0 {
				finite = false
			}
		}
	}
	return finite, true
}

// sameRows reports whether every one of rows is cols wide and t, at least
// len(rows)·cols long, holds them back to back, bit for bit (SameBits). With
// AVX2 the assembly body walks the rows (sameRowsAVX2), else the Go loop.
func sameRows(t []float64, rows [][]float64, cols int) bool {
	t = t[:len(rows)*cols]
	if useAVX2 {
		return sameRowsAVX2(t, rows, cols)
	}
	for i, row := range rows {
		if len(row) != cols {
			return false
		}
		for j, v := range row {
			if math.Float64bits(t[i*cols+j]) != math.Float64bits(v) {
				return false
			}
		}
	}
	return true
}

// groupKernel is an assembly body of ExpInto or LogInto: it writes dst from
// src four lanes at a time and returns how many elements it wrote — all of
// them, or up to the first group of four that needs math.
type groupKernel func(dst, src []float64) int

// The bodies ExpInto and LogInto run, or nil for math's own loop. They are
// chosen by asking math, not the CPU: math.Exp has an FMA body and a plain
// one and picks between them from its own view of the CPU, which
// GODEBUG=cpu.fma=off overrides where CPUID does not. Only the FMA body is
// replicated, and it is kept only if it gives math's bits on every probe
// argument; the probe separates it from the plain body
// (TestExpLogBodiesChosen), so where math.Exp runs the plain one the probe
// rejects the replica and ExpInto is math.Exp's loop.
var (
	expBody = pickBody(math.Exp, expProbe(), expFMA, useAVX2 && hasFMA())
	logBody = pickBody(math.Log, logProbe(), logAVX2, useAVX2)
)

// pickBody returns body if this CPU can run it and it gives f's bits for
// every element of probe, or nil.
func pickBody(f func(float64) float64, probe []float64, body groupKernel, canRun bool) groupKernel {
	if !canRun {
		return nil
	}
	got := make([]float64, len(probe))
	if body(got, probe) != len(probe) {
		return nil
	}
	for i, x := range probe {
		if math.Float64bits(got[i]) != math.Float64bits(f(x)) {
			return nil
		}
	}
	return body
}

// expProbe is 64 arguments from −66 to 21, the range a softmax feeds Exp,
// every one on the straight-line path of math.Exp's two bodies.
func expProbe() []float64 {
	xs := make([]float64, 64)
	for i := range xs {
		xs[i] = float64(i-48)*1.37 + 0.1234567
	}
	return xs
}

// logProbe is 64 positive normal arguments from about 1e-12, the loss's
// floor, to about 350, on both sides of √2/2 within their binades.
func logProbe() []float64 {
	xs := make([]float64, 64)
	for i := range xs {
		xs[i] = math.Pow(1.7, float64(i-52)) * 1.0123
	}
	return xs
}

// The class-major slab: a classes × samples tensor, a column of it one
// sample's classes. The column passes below run four samples to a vector with
// AVX2, each lane doing the scalar column loop's operations in its order, and
// the scalar loop itself for the samples past the last whole four.

// SoftmaxCols writes the softmax of every column of the classes × samples slab
// src into dst, which has src's shape and may be src itself. Per sample: the
// first-greatest logit (if v > m, from m = −Inf: a NaN never becomes the
// maximum), taken as 0 when it stays −Inf, is subtracted from the column; one
// ExpInto runs over the whole slab; the column is summed over the classes in
// ascending order from +0 and divided by the sum, or set to 1/classes where
// the sum is 0 (every logit −Inf).
func SoftmaxCols(dst, src *Tensor) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic(fmt.Sprintf("linalg: SoftmaxCols shape %dx%d, source %dx%d", dst.Rows, dst.Cols, src.Rows, src.Cols))
	}
	classes, ld := src.Rows, src.Cols
	if classes == 0 || ld == 0 {
		return
	}
	d, s := dst.Data[:classes*ld], src.Data[:classes*ld]
	j := simdCols(ld)
	if j > 0 {
		softmaxShiftAVX2(d[:(classes-1)*ld+j], s[:(classes-1)*ld+j], ld, j, classes)
	}
	for r := j; r < ld; r++ {
		maxv := math.Inf(-1)
		for c := r; c < len(s); c += ld {
			if v := s[c]; v > maxv {
				maxv = v
			}
		}
		if maxv == math.Inf(-1) {
			maxv = 0 // every logit −Inf (or NaN): −Inf − −Inf would be NaN, −Inf − 0 is −Inf
		}
		for c := r; c < len(s); c += ld {
			d[c] = s[c] - maxv
		}
	}
	ExpInto(d, d)
	u := 1 / float64(classes)
	if j > 0 {
		softmaxNormAVX2(d[:(classes-1)*ld+j], ld, j, classes, u)
	}
	for r := j; r < ld; r++ {
		var sum float64
		for c := r; c < len(d); c += ld {
			sum += d[c]
		}
		for c := r; c < len(d); c += ld {
			if sum == 0 {
				d[c] = u
			} else {
				d[c] /= sum
			}
		}
	}
}

// ArgmaxCols sets dst[r] to the class of the largest value in column r of the
// classes × samples slab x: the first on ties, the best moving only to a
// value greater than it (so a NaN in class 0 stays the best), -1 when there
// are no classes. It panics unless len(dst) == x.Cols.
func ArgmaxCols(dst []int, x *Tensor) {
	classes, ld := x.Rows, x.Cols
	if len(dst) != ld {
		panic(fmt.Sprintf("linalg: ArgmaxCols %d labels for %d columns", len(dst), ld))
	}
	if classes == 0 {
		for r := range dst {
			dst[r] = -1
		}
		return
	}
	v := x.Data[:classes*ld]
	j := simdCols(ld)
	if j > 0 {
		argmaxColsAVX2(dst[:j], v[:(classes-1)*ld+j], ld, j, classes)
	}
	for r := j; r < ld; r++ {
		best := 0
		for c := 1; c < classes; c++ {
			if v[c*ld+r] > v[best*ld+r] {
				best = c
			}
		}
		dst[r] = best
	}
}
