package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// eachPath calls f with the assembly bodies switched off (the Go loops are the
// whole kernel, as on a CPU without AVX2 or under -tags purego) and, where
// this build and CPU have them, switched on.
func eachPath(f func(path string)) {
	detected := useAVX2
	defer func() { useAVX2 = detected }()
	useAVX2 = false
	f("go")
	if detected {
		useAVX2 = true
		f("avx2")
	}
}

// onBothPaths runs f as one subtest per path.
func onBothPaths(t *testing.T, f func(t *testing.T)) {
	eachPath(func(path string) { t.Run(path, f) })
}

// goAndSIMD runs kernel once per path on equal copies of the operands, made
// by fresh, and returns what each left behind. Without the assembly it
// compares the Go loops with themselves.
func goAndSIMD(fresh func() []float64, kernel func(out []float64)) (goOut, simdOut []float64) {
	eachPath(func(path string) {
		out := fresh()
		kernel(out)
		if path == "go" {
			goOut, simdOut = out, out
		} else {
			simdOut = out
		}
	})
	return goOut, simdOut
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %v (%#x), Go loop %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// specials is what a lane can mishandle: both zeros, both infinities, quiet
// and signalling NaNs of both signs with distinct payloads, the smallest and
// largest subnormals, the smallest normals, and values whose products
// overflow or vanish.
var specials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff800000000beef),
	math.Float64frombits(0x7ff0000000000123), math.Float64frombits(0xfff4000000000456),
	5e-324, -5e-324, math.Float64frombits(0x000fffffffffffff), math.Float64frombits(0x800fffffffffffff),
	2.2250738585072014e-308, -2.2250738585072014e-308, 1e200, -1e200, 1e-200,
}

func normals(rng *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	return xs
}

// offset copies xs into a fresh array at an odd element offset, so that a
// vector load of the result is never 32-byte aligned by construction.
func offset(xs []float64, off int) []float64 {
	buf := make([]float64, off+len(xs))
	copy(buf[off:], xs)
	return buf[off:]
}

// When both operands of one multiply or add are NaNs, x86 returns the first
// operand's payload, and which operand the Go compiler puts first is its
// register allocator's business: that payload is unspecified in the Go loops
// themselves. Every case below therefore feeds a given operation at most one
// NaN — one special value per output column (or per dot product) — and then
// requires equal bits, payloads and signs included.

// TestAxpyKernelsMatchGoLoops: axpyPair at every depth and axpyRow at every
// step count 0–9, row lengths 0–33, operands at odd offsets; a special value
// walks through C, every B row and every coefficient.
func TestAxpyKernelsMatchGoLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 0; n <= 33; n++ {
		for depth := 0; depth <= 9; depth++ {
			// Operand sets: plain, then one special per column in C or one
			// B row, then one special coefficient.
			for variant := 0; variant < 3; variant++ {
				c, b := normals(rng, 2*n), normals(rng, depth*n)
				a0, a1 := normals(rng, depth), normals(rng, 4)
				switch variant {
				case 1:
					for j := 0; j < n; j++ {
						v := specials[rng.Intn(len(specials))]
						if row := rng.Intn(depth + 2); row < 2 {
							c[row*n+j] = v
						} else {
							b[(row-2)*n+j] = v
						}
					}
				case 2:
					if depth > 0 {
						a0[rng.Intn(depth)] = specials[rng.Intn(len(specials))]
						a1[rng.Intn(min(depth, 4))] = specials[rng.Intn(len(specials))]
					}
				}
				b = offset(b, 3)
				fresh := func() []float64 { return offset(c, 1) }
				what := fmt.Sprintf("n=%d depth=%d variant=%d", n, depth, variant)

				want, got := goAndSIMD(fresh, func(c []float64) { axpyRow(c, b, n, 1, 0, a0) })
				sameBits(t, "axpyRow "+what, got, want)
				if depth >= 1 && depth <= 4 {
					var p0, p1 [4]float64
					copy(p0[:], a0)
					copy(p1[:], a1)
					want, got := goAndSIMD(fresh, func(c []float64) { axpyPair(c, b, n, 0, 0, depth, &p0, &p1) })
					sameBits(t, "axpyPair "+what, got, want)
				}
			}
		}
	}
}

// TestDotKernelMatchesGoLoops: the 4×2 and 4×1 dot tiles over k = 0–33, with a
// special value at one p of one A row or one B row.
func TestDotKernelMatchesGoLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for k := 0; k <= 33; k++ {
		for trial := 0; trial < 12; trial++ {
			a, b := normals(rng, 4*k), normals(rng, 2*k)
			if trial > 0 && k > 0 {
				v := specials[rng.Intn(len(specials))]
				if rng.Intn(2) == 0 {
					a[rng.Intn(len(a))] = v
				} else {
					// The same p of both B rows: still one special per dot product.
					p := rng.Intn(k)
					b[p], b[k+p] = v, -v
				}
			}
			a, b = offset(a, 1), offset(b, 3)
			seed := normals(rng, 4*2)
			fresh := func() []float64 { return offset(seed, 1) }
			for _, accumulate := range []bool{false, true} {
				what := fmt.Sprintf("k=%d trial=%d accumulate=%v", k, trial, accumulate)
				want, got := goAndSIMD(fresh, func(c []float64) { dot4x2(c, a, b, k, 2, 0, 0, accumulate) })
				sameBits(t, "dot4x2 "+what, got, want)
				want, got = goAndSIMD(fresh, func(c []float64) { dot4x1(c, a, b, k, 2, 0, 1, accumulate) })
				sameBits(t, "dot4x1 "+what, got, want)
			}
		}
	}
}

// TestElementwiseKernelsMatchGoLoops: ReLU, ReLUGate and AddInPlace over
// lengths 0–33 at odd offsets, every special value in every lane. ReLU is
// also held to the builtin max directly.
func TestElementwiseKernelsMatchGoLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for n := 0; n <= 33; n++ {
		for shift := 0; shift < len(specials); shift++ {
			x, y := normals(rng, n), normals(rng, n)
			for i := range x {
				// Specials land in x on even rounds and in y on odd ones, so
				// x[i] + y[i] never adds two NaNs.
				if v := specials[(i+shift)%len(specials)]; (i+shift)/len(specials)%2 == 0 {
					x[i] = v
				} else {
					y[i] = v
				}
			}
			y = offset(y, 3)
			fresh := func() []float64 { return offset(x, 1) }
			what := fmt.Sprintf("n=%d shift=%d", n, shift)

			want, got := goAndSIMD(fresh, ReLU)
			sameBits(t, "ReLU "+what, got, want)
			for i, v := range x {
				if m := max(v, 0); math.Float64bits(got[i]) != math.Float64bits(m) {
					t.Fatalf("ReLU %s: element %d: %#x, max(%v, 0) is %#x", what, i, math.Float64bits(got[i]), v, math.Float64bits(m))
				}
			}
			want, got = goAndSIMD(fresh, func(g []float64) { ReLUGate(g, y) })
			sameBits(t, "ReLUGate(x, y) "+what, got, want)
			want, got = goAndSIMD(fresh, func(g []float64) { ReLUGate(g, g) })
			sameBits(t, "ReLUGate(x, x) "+what, got, want)
			want, got = goAndSIMD(fresh, func(dst []float64) { Vector(dst).AddInPlace(y) })
			sameBits(t, "AddInPlace "+what, got, want)
		}
	}
}

// TestShortOperandsPanicInGo: an operand one element short of its shape
// panics in the wrapper's slice expressions, on both paths, before a single
// element of the output has moved — the assembly never sees it.
func TestShortOperandsPanicInGo(t *testing.T) {
	const n, k = 8, 8
	var a4 [4]float64
	full := func(n int) []float64 { return normals(rand.New(rand.NewSource(1)), n) }
	cases := []struct {
		name string
		out  []float64
		call func(out []float64)
	}{
		{"axpyPair short C", full(2*n - 1), func(c []float64) { axpyPair(c, full(4*n), n, 0, 0, 4, &a4, &a4) }},
		{"axpyPair short B", full(2 * n), func(c []float64) { axpyPair(c, full(4*n-1), n, 0, 0, 4, &a4, &a4) }},
		{"axpyRow short C", full(n - 1), func(c []float64) { axpyRow(c, full(4*n), n, 0, 0, a4[:]) }},
		{"axpyRow short B", full(n), func(c []float64) { axpyRow(c, full(4*n-1), n, 0, 0, a4[:]) }},
		{"dot4x2 short A", full(8), func(c []float64) { dot4x2(c, full(4*k-1), full(2*k), k, 2, 0, 0, false) }},
		{"dot4x2 short B", full(8), func(c []float64) { dot4x2(c, full(4*k), full(2*k-1), k, 2, 0, 0, false) }},
		{"dot4x1 short A", full(4), func(c []float64) { dot4x1(c, full(4*k-1), full(k), k, 1, 0, 0, false) }},
		{"ReLUGate short y", full(n), func(g []float64) { ReLUGate(g, full(n-1)) }},
		{"AddInPlace short w", full(n), func(v []float64) { Vector(v).AddInPlace(full(n - 1)) }},
	}
	onBothPaths(t, func(t *testing.T) {
		for _, tc := range cases {
			before := append([]float64(nil), tc.out...)
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: no panic", tc.name)
					}
				}()
				tc.call(tc.out)
			}()
			sameBits(t, tc.name+": output touched before the panic", tc.out, before)
		}
	})
}
