//go:build !purego

package linalg

// useAVX2 selects the assembly bodies of simd_amd64.s for the leading
// 4·⌊n/4⌋ columns of a kernel; the Go loops take the rest. It is set once,
// from CPUID, and only the in-package tests ever write it again.
var useAVX2 = hasAVX2()

func hasAVX2() bool

//go:noescape
func axpyPanelAVX2(c, a, b, seed []float64, rows, k, n, cols, rowStride, stepStride, seedStep int, post, gate []float64, relu bool)

//go:noescape
func shortPanelAVX2(c, a, b, gate []float64, rows, k, n, cols, rowStride, stepStride int)

//go:noescape
func dotPanelAVX2(c, a, b []float64, rows, k, n int, accumulate bool)

//go:noescape
func tcPanelAVX2(ct, a, b, seed, post []float64, rows, k, n, ldc int)

//go:noescape
func sumRowsAVX2(dst, src []float64, rows, stride int)

//go:noescape
func momentumAVX2(w, grad, v []float64, lr, momentum, decay float64)

//go:noescape
func reluAVX2(x []float64)

//go:noescape
func reluGateAVX2(g, y []float64)

// hasFMA reports CPUID's FMA bit: whether expFMA can run here at all, not
// whether it matches math.Exp (elementwise.go asks math that).
func hasFMA() bool

// The Exp and Log kernels (explog_amd64.s) return how many elements they
// wrote: all of them, or up to the first group of four that needs math.

//go:noescape
func expFMA(dst, src []float64) int

//go:noescape
func logAVX2(dst, src []float64) int

//go:noescape
func divScalarAVX2(dst []float64, s float64)

//go:noescape
func mulScalarAVX2(dst []float64, s float64)

//go:noescape
func copyRowsAVX2(dst []float64, rows [][]float64, cols int) (finite, ok bool)

//go:noescape
func sameRowsAVX2(t []float64, rows [][]float64, cols int) bool

//go:noescape
func softmaxShiftAVX2(dst, src []float64, ld, cols, classes int)

//go:noescape
func softmaxNormAVX2(x []float64, ld, cols, classes int, u float64)

//go:noescape
func argmaxColsAVX2(dst []int, x []float64, ld, cols, classes int)
