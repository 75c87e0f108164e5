package linalg

import (
	"math"
	"math/rand"
	"testing"
)

func randTensor32(rng *rand.Rand, rows, cols int) *Tensor32 {
	t := NewTensor32(rows, cols)
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64())
	}
	return t
}

func widen(t *Tensor32) *Tensor {
	out := NewTensor(t.Rows, t.Cols)
	for i, v := range t.Data {
		out.Data[i] = float64(v)
	}
	return out
}

// gemmShapes32 is the shape set of the cross-precision tolerance tests below
// (their error budgets are sized for it); bit equality of the f32 kernels with
// their own oracles is checked over the full gemmShapes table by
// TestGemmMatchesReference.
var gemmShapes32 = []struct{ m, k, n int }{
	{1, 1, 1},
	{3, 7, 5},
	{8, 6, 2},
	{2, 300, 4},   // k crosses the f32 panel size
	{17, 257, 33}, // k crosses the panel, m across parallel chunks
	{64, 48, 64},
	{5, 640, 3},
}

// TestGemm32VsF64Oracle bounds the f32 tier against the f64 oracle with a
// per-shape relative epsilon: the drift of a length-k f32 accumulation is
// O(k·eps32), so the bound scales with the shared dimension.
func TestGemm32VsF64Oracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, sh := range gemmShapes32 {
		a32 := randTensor32(rng, sh.m, sh.k)
		b32 := randTensor32(rng, sh.k, sh.n)
		c32 := NewTensor32(sh.m, sh.n)
		Gemm32(c32, a32, b32)
		c64 := NewTensor(sh.m, sh.n)
		Gemm(c64, widen(a32), widen(b32))
		// eps32 ≈ 1.2e-7; k+1 terms with |a|,|b| ~ N(0,1) keeps a wide margin.
		eps := 1e-5 * float64(sh.k+1)
		for i := range c32.Data {
			ref := c64.Data[i]
			diff := math.Abs(float64(c32.Data[i]) - ref)
			tol := eps * math.Max(1, math.Abs(ref)+float64(sh.k))
			if diff > tol {
				t.Fatalf("shape %dx%dx%d element %d: f32 %g vs f64 %g (diff %g > tol %g)",
					sh.m, sh.k, sh.n, i, c32.Data[i], ref, diff, tol)
			}
		}
	}
}

// TestGemm32WarmZeroAlloc pins that the warm f32 GEMM path allocates
// nothing. The shape stays under the parallel cutoff so the measurement is
// not confused by fan-out goroutine stacks.
func TestGemm32WarmZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randTensor32(rng, 8, 32)
	b := randTensor32(rng, 32, 16)
	bt := NewTensor32(16, 32)
	TransposeInto32(bt, b)
	c := NewTensor32(8, 16)
	Gemm32(c, a, b) // warm
	if n := testing.AllocsPerRun(100, func() { Gemm32(c, a, b) }); n != 0 {
		t.Fatalf("warm Gemm32 allocated %.1f times per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { GemmTB32(c, a, bt) }); n != 0 {
		t.Fatalf("warm GemmTB32 allocated %.1f times per run, want 0", n)
	}
}

// TestQuantizeRoundTrip bounds the absmax scheme's reconstruction error:
// every element is recovered within half a quantization step of its row.
func TestQuantizeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src := randTensor32(rng, 13, 41)
	src.Row(4)[7] = 0 // exercise exact zeros
	for j := range src.Row(6) {
		src.Row(6)[j] = 0 // all-zero row: scale 0
	}
	q, err := QuantizeMat32(src)
	if err != nil {
		t.Fatalf("QuantizeMat32: %v", err)
	}
	for i := 0; i < src.Rows; i++ {
		step := float64(q.Scales[i])
		for j, v := range src.Row(i) {
			dq := float64(q.Row(i)[j]) * step
			if diff := math.Abs(dq - float64(v)); diff > step/2+1e-9 {
				t.Fatalf("element (%d,%d): %g reconstructed as %g (err %g > step/2 %g)",
					i, j, v, dq, diff, step/2)
			}
		}
	}
	min, max := q.ScaleStats()
	if min <= 0 || max < min {
		t.Fatalf("ScaleStats: min %g max %g", min, max)
	}
}

// TestGemmQ8MatchesRef pins the int32-accumulate fast path against the
// explicit-dequant f64 reference of the same scheme. The two differ only in
// dequant rounding, so the tolerance is a few f32 ulps of the magnitude.
func TestGemmQ8MatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, sh := range gemmShapes32 {
		x := randTensor32(rng, sh.m, sh.k)
		w32 := randTensor32(rng, sh.n, sh.k)
		w, err := QuantizeMat32(w32)
		if err != nil {
			t.Fatalf("QuantizeMat32: %v", err)
		}
		var scr Q8Scratch
		got := NewTensor32(sh.m, sh.n)
		if err := scr.GemmQ8(got, x, w); err != nil {
			t.Fatalf("GemmQ8: %v", err)
		}
		want := NewTensor32(sh.m, sh.n)
		if err := RefGemmQ8(want, x, w); err != nil {
			t.Fatalf("RefGemmQ8: %v", err)
		}
		for i := range got.Data {
			diff := math.Abs(float64(got.Data[i]) - float64(want.Data[i]))
			tol := 1e-4 * math.Max(1, math.Abs(float64(want.Data[i])))
			if diff > tol {
				t.Fatalf("shape %dx%dx%d element %d: %g vs ref %g", sh.m, sh.k, sh.n, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestGemmQ8VsF64Oracle bounds the full int8 path against the exact f64
// product with the documented looser epsilon: absmax int8 carries ~1/254
// relative error per factor, so the bound is ~1% of the row magnitude scaled
// by the accumulation length.
func TestGemmQ8VsF64Oracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, sh := range gemmShapes32 {
		x := randTensor32(rng, sh.m, sh.k)
		w32 := randTensor32(rng, sh.n, sh.k)
		w, err := QuantizeMat32(w32)
		if err != nil {
			t.Fatal(err)
		}
		var scr Q8Scratch
		got := NewTensor32(sh.m, sh.n)
		if err := scr.GemmQ8(got, x, w); err != nil {
			t.Fatal(err)
		}
		wT := NewTensor(sh.k, sh.n)
		TransposeInto(wT, widen(w32))
		want := NewTensor(sh.m, sh.n)
		Gemm(want, widen(x), wT)
		for i := 0; i < sh.m; i++ {
			// Per-row error budget: half a step in each factor across k terms.
			var rowMax float64
			for _, v := range x.Row(i) {
				rowMax = math.Max(rowMax, math.Abs(float64(v)))
			}
			for j := 0; j < sh.n; j++ {
				ref := want.At(i, j)
				diff := math.Abs(float64(got.At(i, j)) - ref)
				tol := 0.02 * float64(sh.k) * math.Max(rowMax, 1) * math.Max(float64(w.Scales[j])*127, 1) / 10
				if tol < 1e-3 {
					tol = 1e-3
				}
				if diff > tol {
					t.Fatalf("shape %dx%dx%d (%d,%d): int8 %g vs f64 %g (diff %g > tol %g)",
						sh.m, sh.k, sh.n, i, j, got.At(i, j), ref, diff, tol)
				}
			}
		}
	}
}

// TestGemmQ8WarmZeroAlloc pins the quantized matvec warm path at zero
// allocations (scratch reuse).
func TestGemmQ8WarmZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	x := randTensor32(rng, 1, 64) // matvec: one activation row
	w32 := randTensor32(rng, 8, 64)
	w, err := QuantizeMat32(w32)
	if err != nil {
		t.Fatal(err)
	}
	var scr Q8Scratch
	dst := NewTensor32(1, 8)
	if err := scr.GemmQ8(dst, x, w); err != nil { // warm
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := scr.GemmQ8(dst, x, w); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("warm GemmQ8 allocated %.1f times per run, want 0", n)
	}
}

// TestQuantizeRejectsNonFinite pins the guardrail contract: NaN/Inf input
// must surface ErrNonFinite from the quantizers, never reach the kernels.
func TestQuantizeRejectsNonFinite(t *testing.T) {
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		src := NewTensor32(2, 3)
		src.Set(1, 2, bad)
		if _, err := QuantizeMat32(src); err == nil {
			t.Fatalf("QuantizeMat32 accepted %g", bad)
		}
		w, err := QuantizeMat32(NewTensor32(3, 3))
		if err != nil {
			t.Fatal(err)
		}
		x := NewTensor32(2, 3)
		x.Set(0, 1, bad)
		var scr Q8Scratch
		if err := scr.GemmQ8(NewTensor32(2, 3), x, w); err == nil {
			t.Fatalf("GemmQ8 accepted activation %g", bad)
		}
	}
}

// benchGemmShape is the forward-pass shape the kernel benchmarks report:
// a coalesced 256-row batch through a 256→256 dense layer, big enough to
// be memory-bound, which is where the f32 tier's halved traffic shows.
const benchM, benchK, benchN = 256, 256, 256

func BenchmarkGemm64Forward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := NewTensor(benchM, benchK)
	bb := NewTensor(benchK, benchN)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for i := range bb.Data {
		bb.Data[i] = rng.NormFloat64()
	}
	c := NewTensor(benchM, benchN)
	b.SetBytes(int64((benchM*benchK + benchK*benchN + benchM*benchN) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gemm(c, a, bb)
	}
}

func BenchmarkGemm32Forward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randTensor32(rng, benchM, benchK)
	bb := randTensor32(rng, benchK, benchN)
	c := NewTensor32(benchM, benchN)
	b.SetBytes(int64((benchM*benchK + benchK*benchN + benchM*benchN) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gemm32(c, a, bb)
	}
}

func BenchmarkGemmQ8Forward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randTensor32(rng, benchM, benchK)
	w32 := randTensor32(rng, benchN, benchK)
	w, err := QuantizeMat32(w32)
	if err != nil {
		b.Fatal(err)
	}
	var scr Q8Scratch
	c := NewTensor32(benchM, benchN)
	b.SetBytes(int64(benchM*benchK*4 + benchK*benchN + benchM*benchN*4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := scr.GemmQ8(c, x, w); err != nil {
			b.Fatal(err)
		}
	}
}
