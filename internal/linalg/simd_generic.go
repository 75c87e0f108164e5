//go:build !amd64 || purego

package linalg

// No assembly in this build: the Go loops are the whole kernel, and the
// bodies below are never reached.
var useAVX2 = false

func axpyPairAVX2(c0, c1, b []float64, n, depth int, a0, a1 *[4]float64) { panic("linalg: no AVX2") }
func axpyRowAVX2(c0, b []float64, n int, a []float64)                    { panic("linalg: no AVX2") }
func dot4AVX2(s *[8]float64, a []float64, k int, b0, b1 []float64)       { panic("linalg: no AVX2") }
func addAVX2(dst, src []float64)                                         { panic("linalg: no AVX2") }
func reluAVX2(x []float64)                                               { panic("linalg: no AVX2") }
func reluGateAVX2(g, y []float64)                                        { panic("linalg: no AVX2") }
