package linalg

import (
	"math/rand"
	"testing"
)

// FuzzGemmShapes drives every kernel, in every store mode and the
// class-major form, over arbitrary shapes and seeds and requires bit equality
// with the naive oracles (checkGemmBits, the comparator of
// TestGemmMatchesReference), through the Go loops and through the assembly
// bodies. n is folded into [1, 90] and m and k into [1, 260], so the fuzzer
// regularly crosses the parallel cutoff, every row count of a last band, the
// 8- and 4-column blocks with and without tail columns, k from a single step
// to the 256-row batches' long walks, and m up to those batches.
func FuzzGemmShapes(f *testing.F) {
	f.Add(int16(1), int16(1), int16(1), int64(1))
	f.Add(int16(1), int16(17), int16(1), int64(2))
	f.Add(int16(9), int16(1), int16(13), int64(3))
	f.Add(int16(64), int16(64), int16(64), int64(4))
	f.Add(int16(-5), int16(0), int16(127), int64(5))
	f.Add(int16(7), int16(3), int16(89), int64(6))
	f.Add(int16(70), int16(34), int16(30), int64(7))
	f.Add(int16(6), int16(256), int16(64), int64(8))
	f.Add(int16(13), int16(129), int16(20), int64(9))
	f.Add(int16(87), int16(5), int16(12), int64(10))
	// The class head at 256 rows and hidden width 64: the input gradient's
	// k = classes ≤ 8, the forward's k = 64 with n = classes, the weight
	// gradient's rows = classes.
	f.Add(int16(255), int16(1), int16(63), int64(11))
	f.Add(int16(255), int16(4), int16(63), int64(12))
	f.Add(int16(255), int16(6), int16(63), int64(13))
	f.Add(int16(255), int16(7), int16(63), int64(14))
	f.Add(int16(255), int16(63), int16(1), int64(15))
	f.Add(int16(255), int16(63), int16(4), int64(16))
	f.Add(int16(127), int16(63), int16(6), int64(17))
	f.Add(int16(63), int16(63), int16(7), int64(18))
	f.Add(int16(4), int16(255), int16(63), int64(19))
	f.Add(int16(6), int16(255), int16(63), int64(20))
	f.Fuzz(func(t *testing.T, mRaw, kRaw, nRaw int16, seed int64) {
		fold := func(v int16, limit int) int {
			x := int(v)
			if x < 0 {
				x = -x
			}
			return x%limit + 1
		}
		m, k, n := fold(mRaw, 260), fold(kRaw, 260), fold(nRaw, 90)
		eachPath(func(string) {
			checkGemmBits(t, rand.New(rand.NewSource(seed)), m, k, n)
		})
	})
}
