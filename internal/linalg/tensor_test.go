package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
)

func randTensor(rng *rand.Rand, rows, cols int) *Tensor {
	t := NewTensor(rows, cols)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64()
	}
	return t
}

// The kernel tests keep the fan-out cutoff they were written against: the
// shape table below, the fuzz target's [1, 90]³ and the race test all count on
// shapes of a few hundred thousand mul-adds taking the goroutine path. The
// value never changes a bit, only which goroutine computes which rows.
func init() { parallelFlopCutoff = 1 << 16 }

// gemmShapes covers what the tiled and parallel paths must not mishandle:
// degenerate 1×1 / 1×N / N×1 shapes, long k, every tile tail of the Go loops
// (m mod 4 ∈ {1,2,3} for the dot form's 4-row bands, odd m for the axpy forms'
// row pairs, odd n for the dot form's column pairs, k mod 4 ∈ {1,2,3} including
// k < 4), and shapes above parallelFlopCutoff whose rows do not split evenly
// across workers. panelShapes adds the assembly panels' own grid.
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
	{2, 128, 2},
	{3, 129, 3},
	{7, 255, 5},
	{2, 300, 4},
	{17, 257, 33},
	{5, 640, 3},
	{64, 64, 64},  // above parallelFlopCutoff: exercises the goroutine path
	{64, 48, 64},  // parallel, k a multiple of 4: no tail anywhere
	{97, 131, 53}, // parallel + nothing divides evenly
	{67, 33, 31},  // parallel, 2 workers get 36 + 31 rows: a partial last band
	{256, 5, 64},  // input gradient of a 64→5 head
	{256, 2, 64},  // … of a 64→2 head
	{32, 3, 2560}, // Conv1D forward, InChannels·Kernel = 3
	{3, 32, 2560}, // Conv1D patch gradient: one partial band, long n
	{64, 256, 7},  // a long k and an odd n < 8
	{130, 64, 5},  // narrow-head forward: m mod 4 = 2, odd n
	{1, 9, 6},     // single-row batch
	{3, 11, 7},    // odd m, k = 2·4 + 3: row pair, then 4-deep single row + 3 remainder steps
	{5, 14, 64},   // the ∂Wᵀ of a 5-class head in the TA form: a band and a one-row band
	{7, 265, 3},   // n < 4: the Go loops alone on either path
	{54, 256, 64}, // fans out as 28 + 26 rows: a partial band ends the second chunk only
	{65, 129, 12}, // parallel at -cpu 2 and 4, every chunk but the last whole bands
	{131, 64, 13}, // parallel, a 4-column block plus one tail column
	{256, 12, 64}, // the NSL-KDD MLP's first layer
	{12, 256, 64}, // … and its ∂W
}

// panelShapes is the grid the assembly panels are held to: rows mod 4 over
// {0,1,2,3} below and above one band, n over whole 8-column blocks, a 4-column
// last block and tail columns, k over 1, 2, 3, 5 and the long walks. Every
// shape runs every kernel, so both stride pairs, every C seeding and every
// store mode.
func panelShapes() []struct{ m, k, n int } {
	var shapes []struct{ m, k, n int }
	for _, m := range []int{1, 2, 3, 4, 5, 6, 7, 8, 13} {
		for _, n := range []int{4, 8, 12, 16, 20, 7, 9, 14, 19} {
			for _, k := range []int{1, 2, 3, 5, 64, 129, 256} {
				shapes = append(shapes, struct{ m, k, n int }{m, k, n})
			}
		}
	}
	return shapes
}

// tcShapes is the class-major panel's grid: m = 1…17 is one band, a band
// pair, a pair and a lone band, and every 1–3-row tail after each; n = 1…9 is
// every head width in column pairs and an odd last column; k a lone tail step,
// a 4-step block and a tail, and the hidden width.
func tcShapes() []struct{ m, k, n int } {
	var shapes []struct{ m, k, n int }
	for m := 1; m <= 17; m++ {
		for n := 1; n <= 9; n++ {
			for _, k := range []int{1, 7, 64} {
				shapes = append(shapes, struct{ m, k, n int }{m, k, n})
			}
		}
	}
	return shapes
}

func cloneTensor(t *Tensor) *Tensor {
	return &Tensor{Rows: t.Rows, Cols: t.Cols, Data: append([]float64(nil), t.Data...)}
}

// refAxpyAdd is the accumulate-form oracle of the two axpy kernels, one
// element at a time: c[i][j] = (((c[i][j] + a(i,0)·b[0][j]) + a(i,1)·b[1][j]) + …
// in ascending p — the sequence GemmAdd / GemmTAAdd promise per element.
func refAxpyAdd(c *Tensor, k int, aAt func(i, p int) float64, b *Tensor) {
	for i := 0; i < c.Rows; i++ {
		for j := 0; j < c.Cols; j++ {
			s := c.At(i, j)
			for p := 0; p < k; p++ {
				s += aAt(i, p) * b.At(p, j)
			}
			c.Set(i, j, s)
		}
	}
}

// refStore is the oracle of a product with an epilogue: every element summed
// on its own as refAxpyAdd sums it, from the seeding bias or from zero, then
// the epilogue's steps one at a time — a pass over C each, in effect.
func refStore(e Epilogue, m, k int, aAt func(i, p int) float64, b *Tensor) *Tensor {
	want := NewTensor(m, b.Cols)
	if e.Bias != nil && !e.BiasLast {
		fillRows(want.Data, e.Bias)
	}
	refAxpyAdd(want, k, aAt, b)
	for i := range want.Data {
		v := want.Data[i]
		if e.BiasLast {
			v += e.Bias[i%b.Cols]
		}
		if e.ReLU {
			v = max(v, 0)
		}
		if e.Gate != nil {
			pass := 0.0
			if int64(math.Float64bits(e.Gate[i])) > 0 {
				pass = 1
			}
			v *= pass
		}
		want.Data[i] = v
	}
	return want
}

// storeModes are the epilogues the layers use, over a bias row and a gate of
// C's shape: the bias seeding the sum or added to it, each with and without
// ReLU, the gate, and nothing.
func storeModes(bias, gate []float64) []Epilogue {
	return []Epilogue{
		{}, {Bias: bias}, {Bias: bias, BiasLast: true}, {Bias: bias, ReLU: true},
		{Bias: bias, BiasLast: true, ReLU: true}, {Gate: gate},
	}
}

// checkGemmBits runs every public kernel at shape (m,k,n) on random operands,
// in every store mode, and requires bit equality with the oracles. t is
// *testing.T or the fuzz callback's T.
func checkGemmBits(t testing.TB, rng *rand.Rand, m, k, n int) {
	t.Helper()
	checkGemmOperands(t, randTensor(rng, m, k), randTensor(rng, k, m),
		randTensor(rng, k, n), randTensor(rng, n, k), randTensor(rng, m, n))
}

// checkGemmOperands holds the kernels to the oracles on the given A (m×k),
// Aᵀ-shaped at (k×m), B (k×n), Bᵀ-shaped bt (n×k) and the seed of C (m×n),
// which also gives the bias (its first row) and the gate of the store modes.
func checkGemmOperands(t testing.TB, a, at, b, bt, seed *Tensor) {
	t.Helper()
	m, k, n := a.Rows, a.Cols, b.Cols
	same := func(op string, got, want *Tensor) {
		t.Helper()
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("%s %dx%dx%d: element %d = %v (%#x), want %v (%#x)", op, m, k, n,
					i, got.Data[i], math.Float64bits(got.Data[i]), want.Data[i], math.Float64bits(want.Data[i]))
			}
		}
	}
	// The non-Add forms must overwrite whatever C held.
	got, want := cloneTensor(seed), NewTensor(m, n)

	Gemm(got, a, b)
	RefGemm(want, a, b)
	same("Gemm", got, want)
	GemmTA(got, at, b)
	RefGemmTA(want, at, b)
	same("GemmTA", got, want)

	// GemmTBAdd adds each finished dot product to C once.
	RefGemmTB(want, a, bt)
	for i := range want.Data {
		want.Data[i] += seed.Data[i]
	}
	got = cloneTensor(seed)
	GemmTBAdd(got, a, bt)
	same("GemmTBAdd", got, want)

	got, want = cloneTensor(seed), cloneTensor(seed)
	GemmAdd(got, a, b)
	refAxpyAdd(want, k, a.At, b)
	same("GemmAdd", got, want)

	got, want = cloneTensor(seed), cloneTensor(seed)
	GemmTAAdd(got, at, b)
	refAxpyAdd(want, k, func(i, p int) float64 { return at.At(p, i) }, b)
	same("GemmTAAdd", got, want)

	// The store modes, in both axpy forms and — bias only — class-major. The
	// bias is the seed's first row, the gate the seed itself.
	ct, wantT := NewTensor(n, m), NewTensor(n, m)
	for mode, e := range storeModes(seed.Row(0), seed.Data) {
		want := refStore(e, m, k, a.At, b)
		got := cloneTensor(seed)
		GemmWith(got, a, b, e)
		same(fmt.Sprintf("GemmWith mode %d", mode), got, want)
		got = cloneTensor(seed)
		GemmTAWith(got, at, b, e)
		same(fmt.Sprintf("GemmTAWith mode %d", mode), got, refStore(e, m, k, func(i, p int) float64 { return at.At(p, i) }, b))
		if e.ReLU || e.Gate != nil {
			continue
		}
		for i := range ct.Data {
			ct.Data[i] = math.NaN() // whatever ct held is overwritten
		}
		GemmTC(ct, a, b, e)
		TransposeInto(wantT, want)
		same(fmt.Sprintf("GemmTC mode %d", mode), ct, wantT)
	}
}

// TestGemmMatchesReference pins the documented contract: the register-tiled,
// row-parallel kernels equal the naive single-goroutine oracles bit for bit.
// (make golden's sibling: run it at -cpu 1,2,4 to move the fan-out partition.)
func TestGemmMatchesReference(t *testing.T) {
	for _, s := range append(append(gemmShapes, panelShapes()...), tcShapes()...) {
		t.Run(fmt.Sprintf("%dx%dx%d", s.m, s.k, s.n), func(t *testing.T) {
			onBothPaths(t, func(t *testing.T) {
				checkGemmBits(t, rand.New(rand.NewSource(42)), s.m, s.k, s.n)
			})
		})
	}
}

func TestGemmShapePanics(t *testing.T) {
	cases := []func(){
		func() { Gemm(NewTensor(2, 2), NewTensor(2, 3), NewTensor(4, 2)) },
		func() { Gemm(NewTensor(3, 2), NewTensor(2, 3), NewTensor(3, 2)) },
		func() { GemmTA(NewTensor(3, 2), NewTensor(2, 3), NewTensor(3, 2)) },
		func() { GemmTBAdd(NewTensor(2, 2), NewTensor(2, 3), NewTensor(2, 4)) },
		func() { GemmTC(NewTensor(2, 2), NewTensor(2, 3), NewTensor(3, 3), Epilogue{}) },
		func() { GemmTC(NewTensor(3, 2), NewTensor(2, 3), NewTensor(3, 3), Epilogue{ReLU: true}) },
		func() {
			GemmWith(NewTensor(2, 3), NewTensor(2, 3), NewTensor(3, 3), Epilogue{Gate: make([]float64, 5)})
		},
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

// TestTensorRowsRoundtrip: rows staged with FromRows, laid out class-major
// with TransposeInto, come back as the same rows from TransposeToRows, which
// copies.
func TestTensorRowsRoundtrip(t *testing.T) {
	rows := [][]float64{{1, 2, 3}, {4, 5, 6}}
	var tt Tensor
	tt.FromRows(rows, 3)
	ct := NewTensor(3, 2)
	TransposeInto(ct, &tt)
	back := ct.TransposeToRows()
	for i := range rows {
		for j := range rows[i] {
			if back[i][j] != rows[i][j] {
				t.Fatalf("roundtrip mismatch at (%d,%d)", i, j)
			}
		}
	}
	// TransposeToRows must copy: mutating the result leaves the tensor intact.
	back[0][0] = 99
	if ct.At(0, 0) != 1 {
		t.Fatal("TransposeToRows aliases tensor storage")
	}
	// Empty batch keeps its width.
	tt.FromRows(nil, 5)
	if tt.Rows != 0 || tt.Cols != 5 {
		t.Fatalf("empty FromRows: %dx%d", tt.Rows, tt.Cols)
	}
}

// TestAxpy: y[i] += a·x[i] with the product rounded, over lengths 0–33 on
// both paths, a special value in one of y, x or a per element.
func TestAxpy(t *testing.T) {
	y := []float64{1, 2, 3}
	Axpy(2, []float64{10, 20, 30}, y)
	if want := []float64{21, 42, 63}; y[0] != want[0] || y[1] != want[1] || y[2] != want[2] {
		t.Fatalf("Axpy = %v, want %v", y, want)
	}
	rng := rand.New(rand.NewSource(47))
	for n := 0; n <= 33; n++ {
		x, y := normals(rng, n), normals(rng, n)
		a := rng.NormFloat64()
		if n%3 == 2 {
			a = specials[n%len(specials)]
		}
		for i := 0; i < n && n%3 != 2; i++ {
			if s := specials[(i+n)%len(specials)]; i%2 == 0 {
				x[i] = s
			} else {
				y[i] = s
			}
		}
		want := append([]float64(nil), y...)
		for i := range want {
			want[i] += float64(a * x[i])
		}
		eachPath(func(path string) {
			got := offset(y, 1)
			Axpy(a, offset(x, 3), got)
			sameBits(t, fmt.Sprintf("Axpy n=%d path=%s", n, path), got, want)
		})
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
				GemmTBAdd(c, a, b)
				GemmTC(c, a, b, Epilogue{})
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

// TestParallelRowsCutsAtBands pins the fan-out partition: chunks are whole
// 4-row bands once a worker's share reaches one band, so no worker but the
// last can end on a leftover row, and the chunks tile [0, rows) exactly.
func TestParallelRowsCutsAtBands(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, tc := range []struct {
		rows int
		want [][2]int
	}{
		{54, [][2]int{{0, 28}, {28, 54}}},
		{256, [][2]int{{0, 128}, {128, 256}}},
		{9, [][2]int{{0, 8}, {8, 9}}},
		{3, [][2]int{{0, 2}, {2, 3}}}, // a few long rows keep the even split
	} {
		var mu sync.Mutex
		var got [][2]int
		parallelRows(tc.rows, parallelFlopCutoff, func(i0, i1 int) {
			mu.Lock()
			got = append(got, [2]int{i0, i1})
			mu.Unlock()
		})
		sort.Slice(got, func(a, b int) bool { return got[a][0] < got[b][0] })
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("rows %d: chunks %v, want %v", tc.rows, got, tc.want)
		}
	}
}

// TestFromRowsWarmAllocs pins that restaging a batch of the same shape into a
// reused tensor is allocation-free — the property the binary ingest path's
// zero-alloc guarantee rests on.
func TestFromRowsWarmAllocs(t *testing.T) {
	const rows, cols = 16, 8
	flat := make([]float64, rows*cols)
	views := make([][]float64, rows)
	for i := range views {
		views[i] = flat[i*cols : (i+1)*cols : (i+1)*cols]
	}
	var dst Tensor
	dst.FromRows(views, cols)
	allocs := testing.AllocsPerRun(100, func() { dst.FromRows(views, cols) })
	if allocs != 0 {
		t.Fatalf("warm FromRows allocates %.1f, want 0", allocs)
	}
}

// BenchmarkGemmForward times each kernel form at the shapes the streaming MLP
// (dim→64→C on ≤ 256 rows) really multiplies — the benchmark generators' input
// widths 6, 10, 12 and class counts 2, 5, 7 — and at the 256³ shape that is big
// enough to be memory-bound. Names are FORM/m×k×n of the product. The hidden
// layer's forward and ∂W₁ run plain; the class head's three products run as
// nn.Dense issues them, on batches of 64, 128 and 256 rows: head/fwd is the
// class-major forward GemmTC with its bias added last, head/dH the input
// gradient GemmTAWith gated by the hidden activations (m×C×64), head/dW the
// weight gradient ∂W₂ᵀ = G·H (C×m×64) and head/wt the W₂ → W₂ᵀ transpose the
// input gradient reads. GFLOP/s counts a mul-add as two (head/wt moves data
// only and reports none).
func BenchmarkGemmForward(b *testing.B) {
	type shape struct {
		name    string
		form    gemmForm
		m, k, n int
	}
	shapes := []shape{{"NN", formNN, 256, 256, 256}, {"NN", formNN, 128, 12, 64}}
	for _, dim := range []int{6, 10, 12} {
		shapes = append(shapes, shape{"NN", formNN, 256, dim, 64}, shape{"TA", formTA, dim, 256, 64})
	}
	for _, rows := range []int{64, 128, 256} {
		for _, classes := range []int{2, 5, 7} {
			shapes = append(shapes, shape{"head/fwd", formNN, rows, 64, classes},
				shape{"head/dH", formTA, rows, classes, 64}, shape{"head/dW", formNN, classes, rows, 64})
		}
	}
	for _, classes := range []int{2, 5, 7} {
		shapes = append(shapes, shape{"head/wt", formNN, 64, 1, classes})
	}
	rng := rand.New(rand.NewSource(1))
	for _, s := range shapes {
		name := fmt.Sprintf("%s/%dx%dx%d", s.name, s.m, s.k, s.n)
		if s.name == "head/wt" {
			name = fmt.Sprintf("%s/%dx%d", s.name, s.m, s.n)
		}
		b.Run(name, func(b *testing.B) {
			// Storage sizes are the same in every form; only the strides differ.
			x, w, c := normals(rng, s.m*s.k), normals(rng, s.k*s.n), make([]float64, s.m*s.n)
			bias, gate := normals(rng, s.n), normals(rng, s.m*s.n)
			var run func()
			switch s.name {
			case "head/fwd":
				e := Epilogue{Bias: bias, BiasLast: true}
				ct, h, wt := TensorView(c, s.n, s.m), TensorView(x, s.m, s.k), TensorView(w, s.k, s.n)
				run = func() { GemmTC(ct, h, wt, e) }
			case "head/dH":
				e := Epilogue{Gate: gate}
				dh, g, wt := TensorView(c, s.m, s.n), TensorView(x, s.k, s.m), TensorView(w, s.k, s.n)
				run = func() { GemmTAWith(dh, g, wt, e) }
			case "head/wt":
				wt, w2 := TensorView(c, s.n, s.m), TensorView(gate, s.m, s.n)
				run = func() { TransposeInto(wt, w2) }
			default:
				run = func() { gemm(s.form, c, x, w, Epilogue{}, s.m, s.k, s.n, false) }
			}
			b.SetBytes(int64((s.m*s.k + s.k*s.n + s.m*s.n) * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			if s.name != "head/wt" {
				b.ReportMetric(2*float64(s.m*s.k*s.n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			}
		})
	}
}
