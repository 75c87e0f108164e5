package linalg

import (
	"math/rand"
	"testing"
)

// FuzzGemmShapes drives all six kernels over arbitrary shapes and seeds and
// requires bit equality with the naive oracles (the exact-bits comparator of
// TestGemmMatchesReference), through the Go loops and through the assembly
// bodies. The shape space is folded into [1, 90] per dimension so the fuzzer
// regularly crosses the k-blocking boundary, the parallel cutoff and every
// tile and lane tail.
func FuzzGemmShapes(f *testing.F) {
	f.Add(int8(1), int8(1), int8(1), int64(1))
	f.Add(int8(1), int8(17), int8(1), int64(2))
	f.Add(int8(9), int8(1), int8(13), int64(3))
	f.Add(int8(64), int8(64), int8(64), int64(4))
	f.Add(int8(-5), int8(0), int8(127), int64(5))
	f.Add(int8(7), int8(3), int8(89), int64(6))
	f.Add(int8(70), int8(34), int8(30), int64(7))
	f.Fuzz(func(t *testing.T, mRaw, kRaw, nRaw int8, seed int64) {
		fold := func(v int8) int {
			x := int(v)
			if x < 0 {
				x = -x
			}
			return x%90 + 1
		}
		m, k, n := fold(mRaw), fold(kRaw), fold(nRaw)
		eachPath(func(string) {
			checkGemmBits(t, rand.New(rand.NewSource(seed)), m, k, n)
		})
	})
}
