//go:build !amd64 || purego

package linalg

// No assembly in this build: the Go loops are the whole kernel, and the
// bodies below are never reached.
var useAVX2 = false

func axpyPanelAVX2(c, a, b, seed []float64, rows, k, n, cols, rowStride, stepStride, seedStep int, post, gate []float64, relu bool) {
	panic("linalg: no AVX2")
}
func shortPanelAVX2(c, a, b, gate []float64, rows, k, n, cols, rowStride, stepStride int) {
	panic("linalg: no AVX2")
}
func dotPanelAVX2(c, a, b []float64, rows, k, n int, accumulate bool) { panic("linalg: no AVX2") }
func tcPanelAVX2(ct, a, b, seed, post []float64, rows, k, n, ldc int) { panic("linalg: no AVX2") }
func sumRowsAVX2(dst, src []float64, rows, stride int)                { panic("linalg: no AVX2") }
func momentumAVX2(w, grad, v []float64, lr, momentum, decay float64) {
	panic("linalg: no AVX2")
}
func reluAVX2(x []float64)                   { panic("linalg: no AVX2") }
func reluGateAVX2(g, y []float64)            { panic("linalg: no AVX2") }
func hasFMA() bool                           { return false }
func expFMA(dst, src []float64) int          { panic("linalg: no AVX2") }
func logAVX2(dst, src []float64) int         { panic("linalg: no AVX2") }
func divScalarAVX2(dst []float64, s float64) { panic("linalg: no AVX2") }
func mulScalarAVX2(dst []float64, s float64) { panic("linalg: no AVX2") }
func copyRowsAVX2(dst []float64, rows [][]float64, cols int) (finite, ok bool) {
	panic("linalg: no AVX2")
}
func sameRowsAVX2(t []float64, rows [][]float64, cols int) bool { panic("linalg: no AVX2") }
func softmaxShiftAVX2(dst, src []float64, ld, cols, classes int) {
	panic("linalg: no AVX2")
}
func softmaxNormAVX2(x []float64, ld, cols, classes int, u float64) { panic("linalg: no AVX2") }
func argmaxColsAVX2(dst []int, x []float64, ld, cols, classes int) {
	panic("linalg: no AVX2")
}
