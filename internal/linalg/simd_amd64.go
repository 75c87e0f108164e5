//go:build !purego

package linalg

// useAVX2 selects the assembly bodies of simd_amd64.s for the leading
// 4·⌊n/4⌋ columns of a kernel; the Go loops take the rest. It is set once,
// from CPUID, and only the in-package tests ever write it again.
var useAVX2 = hasAVX2()

func hasAVX2() bool

//go:noescape
func axpyPairAVX2(c0, c1, b []float64, n, depth int, a0, a1 *[4]float64)

//go:noescape
func axpyRowAVX2(c0, b []float64, n int, a []float64)

//go:noescape
func dot4AVX2(s *[8]float64, a []float64, k int, b0, b1 []float64)

//go:noescape
func addAVX2(dst, src []float64)

//go:noescape
func reluAVX2(x []float64)

//go:noescape
func reluGateAVX2(g, y []float64)
