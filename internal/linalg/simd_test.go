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

// strides are the two addressings of op(A) the panel serves: A itself
// (rowStride k, stepStride 1) and Aᵀ (rowStride 1, stepStride m).
func strides(form gemmForm, m, k int) (rowStride, stepStride int) {
	if form == formTA {
		return 1, m
	}
	return k, 1
}

// TestAxpyKernelsMatchGoLoops: the panel body against the Go loops over every
// row count 0–9 (so every partial last band, on its own and after whole ones),
// k 0–9, row lengths 0–33, both stride pairs, every seeding and store mode,
// operands at odd offsets; a special value walks through C, every B row and
// the coefficients, and one sits in every column of the gate.
func TestAxpyKernelsMatchGoLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 0; n <= 33; n++ {
		for k := 0; k <= 9; k++ {
			m := (n + k) % 10
			// Operand sets: plain, then one special per column in C or one
			// B row, then one special coefficient per row of op(A).
			for variant := 0; variant < 3; variant++ {
				c, a, b := normals(rng, m*n), normals(rng, m*k), normals(rng, k*n)
				form := gemmForm(rng.Intn(2)) // formNN or formTA
				rowStride, stepStride := strides(form, m, k)
				switch variant {
				case 1:
					for j := 0; j < n && m > 0; j++ {
						v := specials[rng.Intn(len(specials))]
						if row := rng.Intn(m + k); row < m {
							c[row*n+j] = v
						} else {
							b[(row-m)*n+j] = v
						}
					}
				case 2:
					for i := 0; i < m && k > 0; i++ {
						a[i*rowStride+rng.Intn(k)*stepStride] = specials[rng.Intn(len(specials))]
					}
				}
				a, b = offset(a, 1), offset(b, 3)
				fresh := func() []float64 { return offset(c, 1) }
				gate := normals(rng, m*n)
				for i := range gate {
					if i%n == i/n%max(n, 1) {
						gate[i] = specials[rng.Intn(len(specials))]
					}
				}
				// Seeded from C, then from zero and a bias row (C's first row) in
				// every store mode.
				modes := append([]Epilogue{{}}, storeModes(offset(c[:min(n, len(c))], 3), offset(gate, 2))...)
				for seeding, e := range modes {
					what := fmt.Sprintf("m=%d k=%d n=%d form=%d variant=%d seeding=%d", m, k, n, form, variant, seeding)
					want, got := goAndSIMD(fresh, func(c []float64) {
						gemmAxpyRows(c, a, b, e, k, n, 0, m, rowStride, stepStride, seeding == 0)
					})
					sameBits(t, "gemmAxpyRows "+what, got, want)
				}
			}
		}
	}
}

// TestDotKernelMatchesGoLoops: the dot panel against the Go tiles over
// k = 0–33, one and two bands with and without leftover rows, 1–5 columns,
// with a special value at one p of one A row or one B row.
func TestDotKernelMatchesGoLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for k := 0; k <= 33; k++ {
		for trial := 0; trial < 12; trial++ {
			m, n := 4+rng.Intn(7), 1+rng.Intn(5)
			a, b := normals(rng, m*k), normals(rng, n*k)
			if trial > 0 && k > 0 {
				v := specials[rng.Intn(len(specials))]
				if rng.Intn(2) == 0 {
					a[rng.Intn(len(a))] = v
				} else {
					// The same p of every B row: still one special per dot product.
					p := rng.Intn(k)
					for j := 0; j < n; j++ {
						b[j*k+p] = v
					}
				}
			}
			a, b = offset(a, 1), offset(b, 3)
			seed := normals(rng, m*n)
			fresh := func() []float64 { return offset(seed, 1) }
			for _, accumulate := range []bool{false, true} {
				what := fmt.Sprintf("m=%d k=%d n=%d trial=%d accumulate=%v", m, k, n, trial, accumulate)
				want, got := goAndSIMD(fresh, func(c []float64) { gemmTBRows(c, a, b, k, n, 0, m, accumulate) })
				sameBits(t, "gemmTBRows "+what, got, want)
			}
		}
	}
}

// TestTCKernelMatchesGoLoops: the class-major panel against the Go loop over
// k = 0–33, one and two bands with and without leftover rows, 1–5 columns,
// seeded from zero or a bias and with or without a bias added last, a special
// value at one p of one A row or one B column, or in the bias.
func TestTCKernelMatchesGoLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for k := 0; k <= 33; k++ {
		for trial := 0; trial < 12; trial++ {
			m, n := 4+rng.Intn(7), 1+rng.Intn(5)
			a, b, bias := normals(rng, m*k), normals(rng, k*n), normals(rng, n)
			if v := specials[rng.Intn(len(specials))]; trial > 0 {
				switch {
				case k > 0 && trial%3 == 0:
					a[rng.Intn(len(a))] = v
				case k > 0 && trial%3 == 1:
					// The same p of every column of B: one special per sum.
					p := rng.Intn(k)
					for j := 0; j < n; j++ {
						b[p*n+j] = v
					}
				default:
					bias[rng.Intn(n)] = v
				}
			}
			a, b, bias = offset(a, 1), offset(b, 3), offset(bias, 2)
			fresh := func() []float64 { return offset(normals(rng, n*m), 1) }
			for mode := 0; mode < 3; mode++ {
				var seed, post []float64
				switch mode {
				case 1:
					seed = bias
				case 2:
					post = bias
				}
				what := fmt.Sprintf("m=%d k=%d n=%d trial=%d mode=%d", m, k, n, trial, mode)
				want, got := goAndSIMD(fresh, func(ct []float64) { gemmTCRows(ct, a, b, seed, post, m, k, n, 0, m) })
				sameBits(t, "gemmTCRows "+what, got, want)
			}
		}
	}
}

// epilogueOperands returns A (m×k, or k×m for Aᵀ), B (k×n), a bias row and a
// gate of C's shape for TestGemmEpiloguesMatchSeparatePasses. Row 0 of op(A)
// is −0 and B is positive, so that row 0 of the product is −0 before its
// bias and the bias itself after it; the bias and the gate cycle through the
// special values. The input of the ReLU step then holds −0, both infinities,
// NaNs of both signs and subnormals, and the gate every kind of value.
func epilogueOperands(rng *rand.Rand, form gemmForm, m, k, n int) (a, b, bias, gate []float64) {
	a, b, bias, gate = normals(rng, m*k), normals(rng, k*n), make([]float64, n), normals(rng, m*n)
	_, stepStride := strides(form, m, k)
	for p := 0; p < k; p++ {
		a[p*stepStride] = math.Copysign(0, -1)
	}
	for i, v := range b {
		b[i] = math.Abs(v)
	}
	for j := range bias {
		bias[j] = specials[j%len(specials)]
	}
	for i := range gate {
		if i%3 == 0 {
			gate[i] = specials[(i/3)%len(specials)]
		}
	}
	return a, b, bias, gate
}

// TestGemmEpiloguesMatchSeparatePasses: a product with its epilogue at the
// store equals the product stored and the same steps run as passes over C
// afterwards — bias-seeded + ReLU as GemmWith{Bias} then ReLU, bias-last as
// the sum then a row add, the gated input gradient as the ungated one then
// ReLUGate — in both axpy forms, on both paths, over gemmShapes plus bands of
// 1–3 rows.
func TestGemmEpiloguesMatchSeparatePasses(t *testing.T) {
	shapes := append([]struct{ m, k, n int }(nil), gemmShapes...)
	for m := 1; m <= 3; m++ {
		for _, n := range []int{4, 8, 13, 20} {
			shapes = append(shapes, struct{ m, k, n int }{m, 7, n}, struct{ m, k, n int }{4 + m, 64, n})
		}
	}
	rng := rand.New(rand.NewSource(16))
	onBothPaths(t, func(t *testing.T) {
		for _, s := range shapes {
			for form := formNN; form <= formTA; form++ {
				a, b, bias, gate := epilogueOperands(rng, form, s.m, s.k, s.n)
				product := func(e Epilogue) []float64 {
					c := TensorView(make([]float64, s.m*s.n), s.m, s.n)
					if form == formTA {
						GemmTAWith(c, TensorView(a, s.k, s.m), TensorView(b, s.k, s.n), e)
					} else {
						GemmWith(c, TensorView(a, s.m, s.k), TensorView(b, s.k, s.n), e)
					}
					return c.Data
				}
				for mode, e := range storeModes(bias, gate)[1:] {
					got := product(e)
					// The product stored plainly (from the bias, if e seeds
					// one), then e's steps as passes over C.
					var plain Epilogue
					if !e.BiasLast {
						plain.Bias = e.Bias
					}
					want := product(plain)
					if e.BiasLast {
						for i := range want {
							want[i] += e.Bias[i%s.n]
						}
					}
					if e.ReLU {
						ReLU(want)
					}
					if e.Gate != nil {
						ReLUGate(want, e.Gate)
					}
					sameBits(t, fmt.Sprintf("form %d %dx%dx%d mode %d", form, s.m, s.k, s.n, mode+1), got, want)
				}
			}
		}
	})
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

// TestRowOpsMatchPerRowForm: SumRowsInto leaves the bits the per-row form it
// replaced leaves (Vector.AddInPlace row by row, rows ascending), on both
// paths, over 0–9 rows of 0–33 columns at odd offsets with special values in
// the tensor or in the vector, never in both at one column.
func TestRowOpsMatchPerRowForm(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for n := 0; n <= 33; n++ {
		for rows := 0; rows <= 9; rows++ {
			x, v := normals(rng, rows*n), normals(rng, n)
			for j := 0; j < n; j++ {
				if s := specials[rng.Intn(len(specials))]; rows == 0 || rng.Intn(2) == 0 {
					v[j] = s
				} else {
					x[rng.Intn(rows)*n+j] = s
				}
			}
			x = offset(x, 3)
			// The per-row form, through the Go loops: eachPath runs it first.
			wantSum := offset(v, 1)
			eachPath(func(path string) {
				for i := 0; i < rows && path == "go"; i++ {
					Vector(wantSum).AddInPlace(x[i*n : (i+1)*n])
				}
				what := fmt.Sprintf("rows=%d n=%d path=%s", rows, n, path)
				sum := offset(v, 1)
				TensorView(x, rows, n).SumRowsInto(sum)
				sameBits(t, "SumRowsInto "+what, sum, wantSum)
			})
		}
	}
}

// TestMeanRowsIntoMatchesMean pins the slab mean the learner hands its shift
// detector to Mean over the same rows, bit for bit, on both paths: signed
// zeros (a column of −0 alone, and −0 after +0), subnormals, the smallest
// normal, and magnitudes 1e-300 to 1e300 in one column, whose sum rounds on
// every row, over 1–9 rows of 1–45 columns.
func TestMeanRowsIntoMatchesMean(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	negZero := math.Copysign(0, -1)
	values := []float64{0, negZero, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
		1e-300, -1e-300, 1e300, -1e300, 1, 1 + 0x1p-52, 3, 1e16, -1e16, 0.1}
	for rows := 1; rows <= 9; rows++ {
		for n := 1; n <= 45; n += 4 {
			x := make([]float64, rows*n)
			for i := range x {
				x[i] = values[rng.Intn(len(values))] * (1 + 0x1p-52*float64(rng.Intn(4)))
			}
			for i := 0; i < rows; i++ {
				x[i*n] = negZero // a column of −0 must stay −0
			}
			if rows > 1 {
				x[(n-1)%n] = 0 // then +0 first: +0 + −0 is +0
				x[n+(n-1)%n] = negZero
			}
			vecs := make([]Vector, rows)
			for i := range vecs {
				vecs[i] = x[i*n : (i+1)*n]
			}
			eachPath(func(path string) {
				want, err := Mean(vecs)
				if err != nil {
					t.Fatal(err)
				}
				got := offset(normals(rng, n), 1) // stale contents: MeanRowsInto overwrites them
				TensorView(offset(x, 3), rows, n).MeanRowsInto(got)
				sameBits(t, fmt.Sprintf("MeanRowsInto rows=%d n=%d path=%s", rows, n, path), got, want)
			})
		}
	}
}

// TestSumRowsKernelMatchesGoLoop: SumRowsInto's register body against its Go
// loop over 1–70 columns (every mix of the 32-, 16-, 8- and 4-column blocks,
// and every tail) and 1, 2, 7 and 64 rows at odd offsets: each special value
// in every column, in the sum or in one row (one per column, so no add meets
// two NaNs), then columns of signed zeros and subnormals alone.
func TestSumRowsKernelMatchesGoLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tiny := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, math.Float64frombits(0x000fffffffffffff), math.Float64frombits(0x800fffffffffffff)}
	for n := 1; n <= 70; n++ {
		for _, rows := range []int{1, 2, 7, 64} {
			for shift := 0; shift <= len(specials); shift++ {
				x, v := normals(rng, rows*n), normals(rng, n)
				for j := 0; j < n; j++ {
					if shift == len(specials) {
						v[j] = tiny[rng.Intn(len(tiny))]
						for r := 0; r < rows; r++ {
							x[r*n+j] = tiny[rng.Intn(len(tiny))]
						}
					} else if s := specials[(j+shift)%len(specials)]; (j+shift)/len(specials)%2 == 0 {
						v[j] = s
					} else {
						x[rng.Intn(rows)*n+j] = s
					}
				}
				x = offset(x, 3)
				want, got := goAndSIMD(func() []float64 { return offset(v, 1) }, func(dst []float64) {
					TensorView(x, rows, n).SumRowsInto(dst)
				})
				sameBits(t, fmt.Sprintf("SumRowsInto rows=%d n=%d shift=%d", rows, n, shift), got, want)
			}
		}
	}
}

// TestSGDKernelMatchesGoLoop: MomentumStep's packed body against its Go loop
// over lengths 0–33 at odd offsets, each special value at every element in the
// weights, the gradient or the velocity (one per element: no operation meets
// two NaNs), with the models' hyperparameters and with no decay. w, v and the
// zeroed gradient all have to match.
func TestSGDKernelMatchesGoLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for n := 0; n <= 33; n++ {
		for shift := 0; shift < 3*len(specials); shift++ {
			wgv := normals(rng, 3*n)
			for i := 0; i < n; i++ {
				k := (i + shift) % (3 * len(specials))
				wgv[(k%3)*n+i] = specials[k/3]
			}
			for _, h := range [][3]float64{{0.05, 0.9, 1e-4}, {0.025, 0.5, 0}} {
				want, got := goAndSIMD(func() []float64 { return offset(wgv, 1) }, func(out []float64) {
					MomentumStep(out[:n:n], out[n:2*n:2*n], out[2*n:], h[0], h[1], h[2])
				})
				sameBits(t, fmt.Sprintf("MomentumStep n=%d shift=%d hyper=%v", n, shift, h), got, want)
				for i, g := range got[n : 2*n] {
					if math.Float64bits(g) != 0 {
						t.Fatalf("MomentumStep n=%d shift=%d: gradient %d left at %v", n, shift, i, g)
					}
				}
			}
		}
	}
}

// TestShortOperandsPanicInGo: an operand one element short of its shape
// panics in the wrapper's slice expressions, on both paths, before a single
// element of the output has moved — the assembly never sees it. Every form goes
// through gemmRows, whose first statement is the check; the shapes keep the
// panels, the tail columns and the leftover rows all busy.
func TestShortOperandsPanicInGo(t *testing.T) {
	const m, k, n = 9, 6, 13
	full := func(n int) []float64 { return normals(rand.New(rand.NewSource(1)), n) }
	type tc struct {
		name string
		out  []float64
		call func(out []float64)
	}
	cases := []tc{
		{"ReLUGate short y", full(n), func(g []float64) { ReLUGate(g, full(n-1)) }},
		{"AddInPlace short w", full(n), func(v []float64) { Vector(v).AddInPlace(full(n - 1)) }},
		{"GemmWith short bias", full(m * n), func(c []float64) {
			GemmWith(TensorView(c, m, n), TensorView(full(m*k), m, k), TensorView(full(k*n), k, n), Epilogue{Bias: full(n - 1)})
		}},
		{"GemmWith short gate", full(m * n), func(c []float64) {
			GemmWith(TensorView(c, m, n), TensorView(full(m*k), m, k), TensorView(full(k*n), k, n), Epilogue{Gate: full(m*n - 1)})
		}},
		{"GemmTC short bias", full(m * n), func(ct []float64) {
			GemmTC(TensorView(ct, n, m), TensorView(full(m*k), m, k), TensorView(full(k*n), k, n), Epilogue{Bias: full(n - 1)})
		}},
		{"SumRowsInto short dst", full(n - 1), func(dst []float64) { TensorView(full(m*n), m, n).SumRowsInto(dst) }},
		{"MomentumStep short v", full(n), func(w []float64) { MomentumStep(w, full(n), full(n-1), 0.05, 0.9, 1e-4) }},
	}
	for form, name := range []string{"NN", "TA", "TB"} {
		for _, accumulate := range []bool{false, true} {
			for short, operand := range []string{"C", "A", "B"} {
				lens := [3]int{m * n, m * k, k * n}
				lens[short]--
				cases = append(cases, tc{
					fmt.Sprintf("gemmRows %s accumulate=%v short %s", name, accumulate, operand),
					full(lens[0]),
					func(c []float64) {
						gemmRows(gemmForm(form), c, full(lens[1]), full(lens[2]), Epilogue{}, m, k, n, 0, m, accumulate)
					},
				})
			}
		}
	}
	for short, operand := range []string{"Cᵀ", "A", "B"} {
		lens := [3]int{n * m, m * k, k * n}
		lens[short]--
		cases = append(cases, tc{
			"gemmTCRows short " + operand,
			full(lens[0]),
			func(ct []float64) { gemmTCRows(ct, full(lens[1]), full(lens[2]), nil, nil, m, k, n, 0, m) },
		})
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

// guarded returns xs framed by guard bands of one NaN pattern, and the whole
// array for inspection: anything a kernel reads outside its operand poisons a
// result, anything it writes there shows up in checkGuards.
const guardBand = 16

var guardNaN = math.Float64frombits(0x7ff8dead0000beef)

func guarded(xs []float64) (operand, framed []float64) {
	framed = make([]float64, len(xs)+2*guardBand)
	for i := range framed {
		framed[i] = guardNaN
	}
	operand = framed[guardBand : guardBand+len(xs) : guardBand+len(xs)]
	copy(operand, xs)
	return operand, framed
}

func checkGuards(t *testing.T, what string, framed []float64) {
	t.Helper()
	for i, v := range framed {
		if inside := i >= guardBand && i < len(framed)-guardBand; !inside && math.Float64bits(v) != math.Float64bits(guardNaN) {
			t.Fatalf("%s: guard element %d overwritten with %v", what, i-guardBand, v)
		}
	}
}

// TestKernelsStayInsideOperands frames C, A, B, the bias row and the gate
// with NaN guard bands on both sides, runs every kernel over the panel grid
// (and GemmTC over its own, tcShapes) on both paths, and requires the oracle's bits (a guard read into any sum would
// make it NaN) and untouched guards.
func TestKernelsStayInsideOperands(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	onBothPaths(t, func(t *testing.T) {
		for _, s := range panelShapes() {
			if s.k > 64 {
				continue
			}
			for form := formNN; form <= formTB; form++ {
				// Overwrite, accumulate, and (formNN only) start from a bias row.
				for seeding := 0; seeding < 3 && (seeding < 2 || form == formNN); seeding++ {
					what := fmt.Sprintf("form %d %dx%dx%d seeding=%d", form, s.m, s.k, s.n, seeding)
					accumulate := seeding > 0
					seed := normals(rng, s.m*s.n)
					a, aFrame := guarded(normals(rng, s.m*s.k))
					b, bFrame := guarded(normals(rng, s.k*s.n))
					c, cFrame := guarded(seed)
					var bias, biasFrame []float64
					if seeding == 2 {
						bias, biasFrame = guarded(normals(rng, s.n))
						fillRows(seed, bias)
					}
					gemm(form, c, a, b, Epilogue{Bias: bias}, s.m, s.k, s.n, accumulate)

					want := make([]float64, s.m*s.n)
					refGemm(form, want, a, b, s.m, s.k, s.n)
					if accumulate && form == formTB {
						for i := range want {
							want[i] += seed[i]
						}
					} else if accumulate {
						copy(want, seed)
						rowStride, stepStride := strides(form, s.m, s.k)
						refAxpyAdd(TensorView(want, s.m, s.n), s.k,
							func(i, p int) float64 { return a[i*rowStride+p*stepStride] }, TensorView(b, s.k, s.n))
					}
					sameBits(t, what, c, want)
					checkGuards(t, what+" C", cFrame)
					checkGuards(t, what+" A", aFrame)
					checkGuards(t, what+" B", bFrame)
					checkGuards(t, what+" bias", biasFrame)
				}
			}
			// The store modes of the axpy panel and the class-major panel.
			a, aFrame := guarded(normals(rng, s.m*s.k))
			b, bFrame := guarded(normals(rng, s.k*s.n))
			bias, biasFrame := guarded(normals(rng, s.n))
			gate, gateFrame := guarded(normals(rng, s.m*s.n))
			for mode, e := range storeModes(bias, gate) {
				what := fmt.Sprintf("%dx%dx%d store mode %d", s.m, s.k, s.n, mode)
				c, cFrame := guarded(normals(rng, s.m*s.n))
				GemmWith(TensorView(c, s.m, s.n), TensorView(a, s.m, s.k), TensorView(b, s.k, s.n), e)
				sameBits(t, what, c, refStore(e, s.m, s.k, TensorView(a, s.m, s.k).At, TensorView(b, s.k, s.n)).Data)
				checkGuards(t, what+" C", cFrame)
				if e.ReLU || e.Gate != nil {
					continue
				}
				ct, ctFrame := guarded(normals(rng, s.m*s.n))
				GemmTC(TensorView(ct, s.n, s.m), TensorView(a, s.m, s.k), TensorView(b, s.k, s.n), e)
				want := NewTensor(s.n, s.m)
				TransposeInto(want, refStore(e, s.m, s.k, TensorView(a, s.m, s.k).At, TensorView(b, s.k, s.n)))
				sameBits(t, what+" class-major", ct, want.Data)
				checkGuards(t, what+" Cᵀ", ctFrame)
			}
			checkGuards(t, "store modes A", aFrame)
			checkGuards(t, "store modes B", bFrame)
			checkGuards(t, "store modes bias", biasFrame)
			checkGuards(t, "store modes gate", gateFrame)
		}
		for _, s := range tcShapes() {
			a, aFrame := guarded(normals(rng, s.m*s.k))
			b, bFrame := guarded(normals(rng, s.k*s.n))
			bias, biasFrame := guarded(normals(rng, s.n))
			for mode, e := range []Epilogue{{}, {Bias: bias}, {Bias: bias, BiasLast: true}} {
				what := fmt.Sprintf("%dx%dx%d class-major mode %d", s.m, s.k, s.n, mode)
				ct, ctFrame := guarded(normals(rng, s.m*s.n))
				GemmTC(TensorView(ct, s.n, s.m), TensorView(a, s.m, s.k), TensorView(b, s.k, s.n), e)
				want := NewTensor(s.n, s.m)
				TransposeInto(want, refStore(e, s.m, s.k, TensorView(a, s.m, s.k).At, TensorView(b, s.k, s.n)))
				sameBits(t, what, ct, want.Data)
				checkGuards(t, what+" Cᵀ", ctFrame)
			}
			checkGuards(t, "class-major A", aFrame)
			checkGuards(t, "class-major B", bFrame)
			checkGuards(t, "class-major bias", biasFrame)
		}
		for _, s := range headShapes() {
			for variant := 0; variant < 5; variant++ {
				checkHeadKernels(t, rng, s.classes, s.rows, variant)
			}
		}
	})
}

// headShapes is the class head's grid at hidden width 64: every class count
// 1–8 over batches of 1–9 rows (a lone band, each partial band, a band and
// each tail), 63–65, 128 and 256.
func headShapes() []struct{ classes, rows int } {
	var shapes []struct{ classes, rows int }
	for classes := 1; classes <= 8; classes++ {
		for _, rows := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 128, 256} {
			shapes = append(shapes, struct{ classes, rows int }{classes, rows})
		}
	}
	return shapes
}

// checkHeadKernels runs the class head's products as nn.Dense issues them —
// the class-major forward GemmTC with the bias added last (and seeding), the
// gated input gradient GemmTAWith over W₂ᵀ (and ungated), the weight gradient
// ∂W₂ᵀ = G·H by Gemm and GemmAdd, and the W₂ → W₂ᵀ and ∂W₂ᵀ → ∂W₂ moves — on
// operands framed by guard bands, and requires the oracles' bits and untouched
// guards. Variant 0 is plain; variant 1 scatters −0 and ±∞ over G, H, W₂ and
// the bias (whose NaNs are all the default NaN, whichever operand breeds
// them); variants 2–4 put one NaN with a payload in G, H or W₂ respectively.
func checkHeadKernels(t *testing.T, rng *rand.Rand, classes, rows, variant int) {
	t.Helper()
	const hidden = 64
	h, w, g, bias := normals(rng, rows*hidden), normals(rng, hidden*classes), normals(rng, classes*rows), normals(rng, classes)
	operands := [][]float64{g, h, w}
	switch variant {
	case 1:
		edge := []float64{math.Copysign(0, -1), math.Inf(1), math.Inf(-1)}
		for _, x := range [][]float64{g, h, w, bias} {
			for i := 0; i < 1+len(x)/16; i++ {
				x[rng.Intn(len(x))] = edge[rng.Intn(len(edge))]
			}
		}
	case 2, 3, 4:
		x := operands[variant-2]
		x[rng.Intn(len(x))] = specials[4+rng.Intn(4)]
	}
	H, hFrame := guarded(h)
	W, wFrame := guarded(w)
	G, gFrame := guarded(g)
	B, bFrame := guarded(bias)
	Wt, wtFrame := guarded(make([]float64, classes*hidden))
	what := fmt.Sprintf("head classes=%d rows=%d variant=%d", classes, rows, variant)
	wantWt := NewTensor(classes, hidden)
	for i := 0; i < hidden; i++ {
		for j := 0; j < classes; j++ {
			wantWt.Data[j*hidden+i] = W[i*classes+j]
		}
	}
	TransposeInto(TensorView(Wt, classes, hidden), TensorView(W, hidden, classes))
	sameBits(t, what+" W₂ᵀ", Wt, wantWt.Data)

	hT, wT, gT, wtT := TensorView(H, rows, hidden), TensorView(W, hidden, classes), TensorView(G, classes, rows), TensorView(Wt, classes, hidden)
	for mode, e := range []Epilogue{{Bias: B, BiasLast: true}, {Bias: B}} {
		ct, ctFrame := guarded(normals(rng, classes*rows))
		GemmTC(TensorView(ct, classes, rows), hT, wT, e)
		want := NewTensor(classes, rows)
		TransposeInto(want, refStore(e, rows, hidden, hT.At, wT))
		sameBits(t, fmt.Sprintf("%s forward mode %d", what, mode), ct, want.Data)
		checkGuards(t, what+" forward Cᵀ", ctFrame)
	}
	for mode, e := range []Epilogue{{Gate: H}, {}} {
		dh, dhFrame := guarded(normals(rng, rows*hidden))
		GemmTAWith(TensorView(dh, rows, hidden), gT, wtT, e)
		sameBits(t, fmt.Sprintf("%s ∂H mode %d", what, mode), dh,
			refStore(e, rows, classes, func(i, p int) float64 { return gT.At(p, i) }, wtT).Data)
		checkGuards(t, what+" ∂H", dhFrame)
	}
	seed := normals(rng, classes*hidden)
	for _, accumulate := range []bool{false, true} {
		dw, dwFrame := guarded(seed)
		want := TensorView(append([]float64(nil), seed...), classes, hidden)
		if accumulate {
			GemmAdd(TensorView(dw, classes, hidden), gT, hT)
			refAxpyAdd(want, rows, gT.At, hT)
		} else {
			Gemm(TensorView(dw, classes, hidden), gT, hT)
			RefGemm(want, gT, hT)
		}
		sameBits(t, fmt.Sprintf("%s ∂W₂ᵀ accumulate=%v", what, accumulate), dw, want.Data)
		checkGuards(t, what+" ∂W₂ᵀ", dwFrame)

		grad, gradFrame := guarded(normals(rng, hidden*classes))
		wantGrad := append([]float64(nil), grad...)
		for j := 0; j < classes; j++ {
			for i := 0; i < hidden; i++ {
				wantGrad[i*classes+j] += dw[j*hidden+i]
			}
		}
		AddTransposedInto(TensorView(grad, hidden, classes), TensorView(dw, classes, hidden))
		sameBits(t, what+" ∂W₂ += ∂W₂ᵀᵀ", grad, wantGrad)
		checkGuards(t, what+" ∂W₂", gradFrame)
	}
	for name, frame := range map[string][]float64{"H": hFrame, "W₂": wFrame, "G": gFrame, "bias": bFrame, "W₂ᵀ": wtFrame} {
		checkGuards(t, what+" "+name, frame)
	}
}

// TestTransposeKernelsMatchLoop: TransposeInto and AddTransposedInto against
// the element-at-a-time loop over 0–9 and 63–65 rows and columns, every
// special value somewhere in the source and (for the add) the destination.
func TestTransposeKernelsMatchLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	sizes := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65}
	for _, r := range sizes {
		for _, c := range sizes {
			src, dst := normals(rng, r*c), normals(rng, r*c)
			for i := 0; i < len(src); i++ {
				if i%5 == 0 {
					src[i] = specials[(i/5)%len(specials)]
				} else if i%5 == 2 {
					dst[i] = specials[(i/5)%len(specials)]
				}
			}
			want, wantAdd := make([]float64, r*c), append([]float64(nil), dst...)
			for i := 0; i < r; i++ {
				for j := 0; j < c; j++ {
					want[j*r+i] = src[i*c+j]
					wantAdd[j*r+i] += src[i*c+j]
				}
			}
			got := normals(rng, r*c)
			TransposeInto(TensorView(got, c, r), TensorView(offset(src, 1), r, c))
			sameBits(t, fmt.Sprintf("TransposeInto %dx%d", r, c), got, want)
			got = offset(dst, 3)
			AddTransposedInto(TensorView(got, c, r), TensorView(src, r, c))
			sameBits(t, fmt.Sprintf("AddTransposedInto %dx%d", r, c), got, wantAdd)
		}
	}
	for _, f := range []func(){
		func() { TransposeInto(NewTensor(2, 3), NewTensor(2, 3)) },
		func() { AddTransposedInto(NewTensor(3, 3), NewTensor(2, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("mis-shaped transpose: no panic")
				}
			}()
			f()
		}()
	}
}

// TestNaNAndInfPropagateAsInTheOracle: one NaN with a payload (quiet or
// signalling, either sign) somewhere in A, B or the seed of C, or a handful of
// infinities of both signs (which breed the default NaN from ∞·0 and ∞−∞, the
// same bits whichever operand it arrives in), come out of every kernel with
// the oracle's payloads and signs.
func TestNaNAndInfPropagateAsInTheOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	nans := specials[4:8]
	shapes := []struct{ m, k, n int }{{4, 1, 8}, {5, 3, 12}, {7, 5, 9}, {8, 9, 20}, {13, 64, 7}, {6, 129, 16}, {3, 2, 4}}
	onBothPaths(t, func(t *testing.T) {
		for _, s := range shapes {
			for trial := 0; trial < 24; trial++ {
				a, at := randTensor(rng, s.m, s.k), randTensor(rng, s.k, s.m)
				b, bt := randTensor(rng, s.k, s.n), randTensor(rng, s.n, s.k)
				seed := randTensor(rng, s.m, s.n)
				operands := []*Tensor{a, at, b, bt, seed}
				if trial%2 == 0 {
					// One NaN in one operand; A and Aᵀ (B and Bᵀ) never meet in a product.
					x := operands[rng.Intn(len(operands))]
					x.Data[rng.Intn(len(x.Data))] = nans[rng.Intn(len(nans))]
				} else {
					for _, x := range operands {
						x.Data[rng.Intn(len(x.Data))] = math.Inf(1 - 2*rng.Intn(2))
						x.Data[rng.Intn(len(x.Data))] = 0
					}
				}
				checkGemmOperands(t, a, at, b, bt, seed)
			}
		}
	})
}

// TestWarmKernelsDoNotAllocate: below the fan-out cutoff every form, with and
// without accumulation and in every store mode, the row operation and the
// class head's element-wise and column kernels run without a single
// allocation, on both paths.
func TestWarmKernelsDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const m, k, n = 37, 13, 21
	a, at := randTensor(rng, m, k), randTensor(rng, k, m)
	b, bt := randTensor(rng, k, n), randTensor(rng, n, k)
	c, ct, v, x := NewTensor(m, n), NewTensor(n, m), normals(rng, n), normals(rng, m*n)
	labels := make([]int, m)
	rows := randTensor(rng, m, n).RowViews(nil)
	// The class head's shapes: 5 classes, hidden width 64 (the short-k panel,
	// a band and a wide 1-row band, the class-major groups) and 2 classes (the
	// band pairs).
	const classes, hidden = 5, 64
	h, w2, w2t, g := randTensor(rng, m, hidden), randTensor(rng, hidden, classes), randTensor(rng, classes, hidden), randTensor(rng, classes, m)
	dh, dw, logits := NewTensor(m, hidden), NewTensor(classes, hidden), NewTensor(classes, m)
	w22, logits2 := randTensor(rng, hidden, 2), NewTensor(2, m)
	onBothPaths(t, func(t *testing.T) {
		for name, f := range map[string]func(){
			"head GemmTC":       func() { GemmTC(logits, h, w2, Epilogue{Bias: v[:classes], BiasLast: true}) },
			"head GemmTC pair":  func() { GemmTC(logits2, h, w22, Epilogue{Bias: v[:2], BiasLast: true}) },
			"head GemmTAWith":   func() { GemmTAWith(dh, g, w2t, Epilogue{Gate: h.Data}) },
			"head Gemm":         func() { Gemm(dw, g, h) },
			"TransposeInto":     func() { TransposeInto(w2t, w2) },
			"AddTransposedInto": func() { AddTransposedInto(w2, dw) },
			"Gemm":              func() { Gemm(c, a, b) }, "GemmAdd": func() { GemmAdd(c, a, b) },
			"GemmTA": func() { GemmTA(c, at, b) }, "GemmTAAdd": func() { GemmTAAdd(c, at, b) },
			"GemmTBAdd":    func() { GemmTBAdd(c, a, bt) },
			"GemmWith":     func() { GemmWith(c, a, b, Epilogue{Bias: v, BiasLast: true, ReLU: true}) },
			"GemmTAWith":   func() { GemmTAWith(c, at, b, Epilogue{Gate: x}) },
			"GemmTC":       func() { GemmTC(ct, a, b, Epilogue{Bias: v}) },
			"SumRowsInto":  func() { c.SumRowsInto(v) },
			"MomentumStep": func() { MomentumStep(c.Data, ct.Data, x, 0.05, 0.9, 1e-4) },
			"ExpInto":      func() { ExpInto(c.Data, x) },
			"LogInto":      func() { LogInto(c.Data, c.Data) },
			"DivScalar":    func() { DivScalar(c.Data, 3) },
			"DivScalar 2ᵏ": func() { DivScalar(c.Data, 256) },
			"CopyFinite":   func() { CopyFinite(c.Data, x[:len(c.Data)]) },
			"SameBits":     func() { SameBits(c.Data, c.Data) },
			"FromRows":     func() { c.FromRows(rows, c.Cols) },
			"SameRows":     func() { c.SameRows(rows) },
			"SoftmaxCols":  func() { SoftmaxCols(ct, ct) },
			"ArgmaxCols":   func() { ArgmaxCols(labels, ct) },
		} {
			if allocs := testing.AllocsPerRun(20, f); allocs != 0 {
				t.Errorf("warm %s allocates %.1f times, want 0", name, allocs)
			}
		}
	})
}
