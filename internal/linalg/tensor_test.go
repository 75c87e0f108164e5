package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func randTensor(rng *rand.Rand, rows, cols int) *Tensor {
	t := NewTensor(rows, cols)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64()
	}
	return t
}

func tensorsClose(t *testing.T, got, want *Tensor, tol float64, label string) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", label, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > tol*(1+math.Abs(want.Data[i])) {
			t.Fatalf("%s: element %d = %v, want %v", label, i, got.Data[i], want.Data[i])
		}
	}
}

// gemmShapes covers what the blocked, tiled and parallel paths must not
// mishandle: degenerate 1×1 / 1×N / N×1 shapes, k straddling the f64 and f32
// panel depths, every tile tail (m mod 4 ∈ {1,2,3} for the dot form's 4-row
// bands, odd m for the axpy forms' row pairs, odd n for the dot form's column
// pairs, k mod 4 ∈ {1,2,3} including k < 4), and shapes above
// parallelFlopCutoff whose rows do not split evenly across workers.
var gemmShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 7, 1},
	{1, 1, 9},
	{5, 1, 3},
	{3, 4, 5},
	{6, 2, 9},
	{7, 3, 8},
	{9, 5, 3},
	{2, 7, 1},
	{4, 6, 2},
	{8, 6, 2},
	{2, gemmBlockK, 2},
	{3, gemmBlockK + 1, 3},
	{7, 2*gemmBlockK - 1, 5},
	{2, gemmBlockK32 + 44, 4},
	{17, gemmBlockK32 + 1, 33},
	{5, 2*gemmBlockK32 + 128, 3},
	{64, 64, 64},  // above parallelFlopCutoff: exercises the goroutine path
	{64, 48, 64},  // parallel, k a multiple of 4: no tail anywhere
	{97, 131, 53}, // parallel + nothing divides evenly
	{67, 33, 31},  // parallel, 2 workers get 34 + 33 rows
	{256, 5, 64},  // input gradient of a 64→5 head: one 4-deep step + a 1-deep tail
	{256, 2, 64},  // … of a 64→2 head: a lone 2-deep tile
	{32, 3, 2560}, // Conv1D forward, InChannels·Kernel = 3: a lone 3-deep tile
	{3, 32, 2560}, // Conv1D patch gradient: m odd, long n
	{64, 256, 7},  // narrow-head weight gradient in the dot form: odd n
	{130, 64, 5},  // narrow-head forward: m mod 4 = 2, odd n
}

// mat is a shape plus flat storage: the one operand type the bitwise
// harness speaks, so a single table drives the f64 and f32 families.
type mat[T float] struct {
	rows, cols int
	data       []T
}

func newMat[T float](rows, cols int) mat[T] {
	return mat[T]{rows, cols, make([]T, rows*cols)}
}

func randMat[T float](rng *rand.Rand, rows, cols int) mat[T] {
	m := newMat[T](rows, cols)
	for i := range m.data {
		m.data[i] = T(rng.NormFloat64())
	}
	return m
}

func (m mat[T]) clone() mat[T] {
	return mat[T]{m.rows, m.cols, append([]T(nil), m.data...)}
}

type gemmFunc[T float] func(c, a, b mat[T])

// gemmFamily is one element type's public kernels and oracles.
type gemmFamily[T float] struct {
	nn, nnAdd, ta, taAdd, tb, tbAdd gemmFunc[T]
	refNN, refTA, refTB             gemmFunc[T]
	bits                            func(T) uint64
}

func wrap64(f func(c, a, b *Tensor)) gemmFunc[float64] {
	return func(c, a, b mat[float64]) {
		f(TensorView(c.data, c.rows, c.cols), TensorView(a.data, a.rows, a.cols), TensorView(b.data, b.rows, b.cols))
	}
}

func wrap32(f func(c, a, b *Tensor32)) gemmFunc[float32] {
	return func(c, a, b mat[float32]) {
		f(Tensor32View(c.data, c.rows, c.cols), Tensor32View(a.data, a.rows, a.cols), Tensor32View(b.data, b.rows, b.cols))
	}
}

var family64 = gemmFamily[float64]{
	nn: wrap64(Gemm), nnAdd: wrap64(GemmAdd), ta: wrap64(GemmTA), taAdd: wrap64(GemmTAAdd),
	tb: wrap64(GemmTB), tbAdd: wrap64(GemmTBAdd),
	refNN: wrap64(RefGemm), refTA: wrap64(RefGemmTA), refTB: wrap64(RefGemmTB),
	bits: math.Float64bits,
}

var family32 = gemmFamily[float32]{
	nn: wrap32(Gemm32), nnAdd: wrap32(GemmAdd32), ta: wrap32(GemmTA32), taAdd: wrap32(GemmTAAdd32),
	tb: wrap32(GemmTB32), tbAdd: wrap32(GemmTBAdd32),
	refNN: wrap32(RefGemm32), refTA: wrap32(RefGemmTA32), refTB: wrap32(RefGemmTB32),
	bits: func(v float32) uint64 { return uint64(math.Float32bits(v)) },
}

// refAxpyAdd is the accumulate-form oracle of the two axpy kernels, one
// element at a time: c[i][j] = (((c[i][j] + a(i,0)·b[0][j]) + a(i,1)·b[1][j]) + …
// in ascending p — the sequence GemmAdd / GemmTAAdd promise per element.
func refAxpyAdd[T float](c mat[T], k int, aAt func(i, p int) T, b mat[T]) {
	for i := 0; i < c.rows; i++ {
		for j := 0; j < c.cols; j++ {
			s := c.data[i*c.cols+j]
			for p := 0; p < k; p++ {
				s += aAt(i, p) * b.data[p*b.cols+j]
			}
			c.data[i*c.cols+j] = s
		}
	}
}

// checkGemmBits runs all six public kernels of one family at shape (m,k,n)
// and requires bit equality with the oracles. tb is *testing.T or the fuzz
// callback's T.
func checkGemmBits[T float](t testing.TB, f gemmFamily[T], rng *rand.Rand, m, k, n int) {
	t.Helper()
	same := func(op string, got, want mat[T]) {
		t.Helper()
		for i := range want.data {
			if f.bits(got.data[i]) != f.bits(want.data[i]) {
				t.Fatalf("%s %dx%dx%d: element %d = %v (%#x), want %v (%#x)", op, m, k, n,
					i, got.data[i], f.bits(got.data[i]), want.data[i], f.bits(want.data[i]))
			}
		}
	}
	a, at := randMat[T](rng, m, k), randMat[T](rng, k, m)
	b, bt := randMat[T](rng, k, n), randMat[T](rng, n, k)
	seed := randMat[T](rng, m, n)
	// The non-Add forms must overwrite whatever C held.
	got, want := seed.clone(), newMat[T](m, n)

	f.nn(got, a, b)
	f.refNN(want, a, b)
	same("Gemm", got, want)
	f.ta(got, at, b)
	f.refTA(want, at, b)
	same("GemmTA", got, want)
	f.tb(got, a, bt)
	f.refTB(want, a, bt)
	same("GemmTB", got, want)

	// GemmTBAdd adds each finished dot product to C once.
	for i := range want.data {
		want.data[i] += seed.data[i]
	}
	got = seed.clone()
	f.tbAdd(got, a, bt)
	same("GemmTBAdd", got, want)

	got, want = seed.clone(), seed.clone()
	f.nnAdd(got, a, b)
	refAxpyAdd(want, k, func(i, p int) T { return a.data[i*k+p] }, b)
	same("GemmAdd", got, want)

	got, want = seed.clone(), seed.clone()
	f.taAdd(got, at, b)
	refAxpyAdd(want, k, func(i, p int) T { return at.data[p*m+i] }, b)
	same("GemmTAAdd", got, want)
}

// TestGemmMatchesReference pins the documented contract: the blocked,
// register-tiled, row-parallel kernels of both element types equal the naive
// single-goroutine oracles bit for bit.
func TestGemmMatchesReference(t *testing.T) {
	for _, s := range gemmShapes {
		t.Run(fmt.Sprintf("%dx%dx%d", s.m, s.k, s.n), func(t *testing.T) {
			checkGemmBits(t, family64, rand.New(rand.NewSource(42)), s.m, s.k, s.n)
			checkGemmBits(t, family32, rand.New(rand.NewSource(43)), s.m, s.k, s.n)
		})
	}
}

func TestGemmAgainstMatrixMul(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	am := NewMatrix(6, 5)
	bm := NewMatrix(5, 4)
	for i := range am.Data {
		am.Data[i] = rng.NormFloat64()
	}
	for i := range bm.Data {
		bm.Data[i] = rng.NormFloat64()
	}
	cm := am.Mul(bm)
	got := NewTensor(6, 4)
	Gemm(got, TensorView(am.Data, 6, 5), TensorView(bm.Data, 5, 4))
	tensorsClose(t, got, TensorView(cm.Data, 6, 4), 1e-12, "Matrix.Mul vs Gemm")
}

func TestGemmShapePanics(t *testing.T) {
	cases := []func(){
		func() { Gemm(NewTensor(2, 2), NewTensor(2, 3), NewTensor(4, 2)) },
		func() { Gemm(NewTensor(3, 2), NewTensor(2, 3), NewTensor(3, 2)) },
		func() { GemmTA(NewTensor(3, 2), NewTensor(2, 3), NewTensor(3, 2)) },
		func() { GemmTB(NewTensor(2, 2), NewTensor(2, 3), NewTensor(2, 4)) },
		func() { TensorView(make([]float64, 5), 2, 3) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestEnsureTensorReusesBuffer(t *testing.T) {
	a := NewTensor(4, 8)
	data := &a.Data[0]
	b := EnsureTensor(a, 2, 4)
	if b != a || &b.Data[0] != data {
		t.Fatal("EnsureTensor should reuse the buffer when shrinking")
	}
	if b.Rows != 2 || b.Cols != 4 || len(b.Data) != 8 {
		t.Fatalf("bad reshape: %dx%d len %d", b.Rows, b.Cols, len(b.Data))
	}
	c := EnsureTensor(a, 10, 10)
	if len(c.Data) != 100 {
		t.Fatal("EnsureTensor should grow the buffer")
	}
	if got := EnsureTensor(nil, 3, 3); got == nil || len(got.Data) != 9 {
		t.Fatal("EnsureTensor(nil) should allocate")
	}
}

func TestTensorRowsRoundtrip(t *testing.T) {
	rows := [][]float64{{1, 2, 3}, {4, 5, 6}}
	var tt Tensor
	tt.FromRows(rows, 3)
	back := tt.ToRows()
	for i := range rows {
		for j := range rows[i] {
			if back[i][j] != rows[i][j] {
				t.Fatalf("roundtrip mismatch at (%d,%d)", i, j)
			}
		}
	}
	// ToRows must copy: mutating the result leaves the tensor intact.
	back[0][0] = 99
	if tt.At(0, 0) != 1 {
		t.Fatal("ToRows aliases tensor storage")
	}
	// Empty batch keeps its width.
	tt.FromRows(nil, 5)
	if tt.Rows != 0 || tt.Cols != 5 {
		t.Fatalf("empty FromRows: %dx%d", tt.Rows, tt.Cols)
	}
}

func TestAxpy(t *testing.T) {
	y := []float64{1, 2, 3}
	Axpy(2, []float64{10, 20, 30}, y)
	want := []float64{21, 42, 63}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("Axpy = %v, want %v", y, want)
		}
	}
}

// TestParallelGemmRace hammers the parallel kernel path from many goroutines
// sharing read-only A and B with distinct C buffers — the exact pattern the
// nn layers produce when parallel.Group members train concurrently. Run
// under -race (make check does) to verify the fan-out is data-race free.
func TestParallelGemmRace(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	a := randTensor(rng, 80, 80)
	b := randTensor(rng, 80, 80)
	want := NewTensor(80, 80)
	RefGemm(want, a, b)
	done := make(chan *Tensor, 8)
	for g := 0; g < 8; g++ {
		go func() {
			c := NewTensor(80, 80)
			for iter := 0; iter < 10; iter++ {
				Gemm(c, a, b)
				GemmTA(c, a, b)
				GemmTB(c, a, b)
				Gemm(c, a, b)
			}
			done <- c
		}()
	}
	for g := 0; g < 8; g++ {
		got := <-done
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("concurrent Gemm: element %d = %v, want %v", i, got.Data[i], want.Data[i])
			}
		}
	}
}
