//go:build !amd64 || purego

package linalg

// No assembly in this build: the Go loops are the whole kernel, and the
// bodies below are never reached.
var useAVX2 = false

func axpyPanelAVX2(c, a, b, seed []float64, rows, k, n, cols, rowStride, stepStride, seedStep int) {
	panic("linalg: no AVX2")
}
func dotPanelAVX2(c, a, b []float64, rows, k, n int, accumulate bool) { panic("linalg: no AVX2") }
func addRowsAVX2(dst, src []float64, rows, cols, dstStride, srcStride int) {
	panic("linalg: no AVX2")
}
func reluAVX2(x []float64)                   { panic("linalg: no AVX2") }
func reluGateAVX2(g, y []float64)            { panic("linalg: no AVX2") }
func hasFMA() bool                           { return false }
func expFMA(dst, src []float64) int          { panic("linalg: no AVX2") }
func logAVX2(dst, src []float64) int         { panic("linalg: no AVX2") }
func divScalarAVX2(dst []float64, s float64) { panic("linalg: no AVX2") }
