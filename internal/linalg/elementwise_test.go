package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The class head's kernels owe math's bits: ExpInto is math.Exp and LogInto
// is math.Log, element for element, on every path and whatever the inputs.
// The tests below hold them to math directly (on the body math's own choice
// makes current in this process) and hold each assembly body to a Go
// transliteration of the scalar body it replicates (so the FMA Exp body is
// checked even where math.Exp runs its plain body and ExpInto does not use it).

// The constants of math/exp_amd64.s and math/log_amd64.s, spelled as there.
const (
	expLog2e    = 1.4426950408889634073599246810018920
	expLn2U     = 0.69314718055966295651160180568695068359375
	expLn2L     = 0.28235290563031577122588448175013436025525412068e-12
	expOverflow = 7.09782712893384e+02

	logHSqrt2 = 7.07106781186547524401e-01
	logLn2Hi  = 6.93147180369123816490e-01
	logLn2Lo  = 1.90821492927058770002e-10
	logL1     = 6.666666666666735130e-01
	logL2     = 3.999999999940941908e-01
	logL3     = 2.857142874366239149e-01
	logL4     = 2.222219843214978396e-01
	logL5     = 1.818357216161805012e-01
	logL6     = 1.531383769920937332e-01
	logL7     = 1.479819860511658591e-01
)

// expTaylor is exp_amd64.s's exprodata from the sixth term down to the
// second: 1/6!·…, then 1/2 and 1 (the 2.0 of the squarings is separate).
var expTaylor = []float64{
	1.9841269841269841270e-4, 1.3888888888888888889e-3, 8.3333333333333333333e-3,
	4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1.0,
}

// cvtsd2sl is CVTSD2SL under the default rounding mode: round half to even,
// and the integer indefinite for anything out of range or NaN.
func cvtsd2sl(t float64) int32 {
	r := math.RoundToEven(t)
	if !(r >= math.MinInt32 && r <= math.MaxInt32) {
		return math.MinInt32
	}
	return int32(r)
}

// expBodyRef is the straight-line path of math/exp_amd64.s's FMA body in Go:
// math.FMA at each fused step, every other product rounded on its own through
// float64(). ok is false for an argument that takes one of the scalar body's
// branches.
func expBodyRef(x float64) (y float64, ok bool) {
	if math.Float64bits(x)&^(1<<63) >= 0x7FF0000000000000 || x > expOverflow {
		return 0, false
	}
	n := cvtsd2sl(float64(expLog2e * x))
	biased := n + 0x3FF // ADDL: wraps as int32
	if biased <= 0 || biased >= 0x7FF {
		return 0, false
	}
	fn := float64(n)
	r := math.FMA(-fn, expLn2U, x)
	r = math.FMA(-fn, expLn2L, r)
	r = float64(r * 0.0625)
	p := 2.4801587301587301587e-5
	for _, c := range expTaylor {
		p = math.FMA(r, p, c)
	}
	r = float64(r * p)
	for i := 0; i < 3; i++ {
		r = float64(r * (r + 2))
	}
	r = math.FMA(r+2, r, 1)
	return float64(r * math.Float64frombits(uint64(biased)<<52)), true
}

// logBodyRef is the straight-line path of math/log_amd64.s in Go, every
// operation rounded on its own; ok is false for ±0, negatives, +Inf and NaN.
func logBodyRef(x float64) (y float64, ok bool) {
	bits := int64(math.Float64bits(x))
	if bits <= 0 || bits >= 0x7FF0000000000000 {
		return 0, false
	}
	k := float64(int32(bits>>52&0x7FF) - 0x3FE)
	f1 := math.Float64frombits(uint64(bits)&0x000FFFFFFFFFFFFF | 0x3FE0000000000000)
	if !(logHSqrt2 < f1) {
		k = k - 1
		f1 = float64(f1 * 2)
	}
	f := f1 - 1
	s := f / (2 + f)
	s2 := float64(s * s)
	s4 := float64(s2 * s2)
	t1 := float64(s2 * (float64(s4*(float64(s4*(float64(s4*logL7)+logL5))+logL3)) + logL1))
	t2 := float64(s4 * (float64(s4*(float64(s4*logL6)+logL4)) + logL2))
	hfsq := float64(float64(0.5*f) * f)
	inner := float64(s*(hfsq+(t1+t2))) + float64(k*logLn2Lo)
	return float64(k*logLn2Hi) - ((hfsq - inner) - f), true
}

// expInputs and logInputs are n arguments drawn to cover both functions'
// straight-line paths densely and their branches often, in runs that put
// path and branch lanes side by side in one group of four.
func expInputs(rng *rand.Rand, n int) []float64 {
	edges := []float64{expOverflow, 709.78, -708.39, -708.4, -708.41, -745.13, -745.2, -1e300, 1e300}
	xs := make([]float64, n)
	for i := range xs {
		switch rng.Intn(8) {
		case 0, 1, 2:
			xs[i] = -40 * rng.Float64() // the softmax range after the shift
		case 3, 4:
			xs[i] = rng.Float64()*1500 - 760
		case 5:
			// A few ulps either side of an edge of the path.
			e := edges[rng.Intn(len(edges))]
			xs[i] = math.Float64frombits(math.Float64bits(e) + uint64(rng.Intn(9)) - 4)
		case 6:
			xs[i] = math.Float64frombits(rng.Uint64()) // any bits: mostly huge, NaN or Inf
		default:
			xs[i] = specials[rng.Intn(len(specials))]
		}
	}
	return xs
}

func logInputs(rng *rand.Rand, n int) []float64 {
	named := append([]float64{1e-12, 1, math.Nextafter(1, 0), logHSqrt2}, specials...)
	xs := make([]float64, n)
	for i := range xs {
		switch rng.Intn(8) {
		case 0, 1, 2:
			xs[i] = rng.Float64() // probabilities
		case 3, 4:
			xs[i] = math.Float64frombits(rng.Uint64() >> 1) // every positive binade, subnormals included
		case 5:
			xs[i] = math.Float64frombits(rng.Uint64() >> 13) // subnormals and the low normals
		case 6:
			xs[i] = math.Float64frombits(rng.Uint64()) // negatives, NaNs and infinities too
		default:
			xs[i] = named[rng.Intn(len(named))]
		}
	}
	return xs
}

// intoCase is one of the two functions under test.
type intoCase struct {
	name   string
	into   func(dst, src []float64)
	f      func(float64) float64
	inputs func(rng *rand.Rand, n int) []float64
}

var intoCases = []intoCase{
	{"ExpInto", ExpInto, math.Exp, expInputs},
	{"LogInto", LogInto, math.Log, logInputs},
}

func sameAsMath(t *testing.T, what string, got, xs []float64, f func(float64) float64) {
	t.Helper()
	for i, x := range xs {
		if want := f(x); math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("%s: element %d, f(%v = %#x) = %v (%#x), math says %v (%#x)", what, i,
				x, math.Float64bits(x), got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
		}
	}
}

// TestExpLogIntoMatchMath: 2²² arguments per function on both paths, in
// slabs of 2¹⁶, every tenth one in place.
func TestExpLogIntoMatchMath(t *testing.T) {
	const total, slab = 1 << 22, 1 << 16
	for _, c := range intoCases {
		t.Run(c.name, func(t *testing.T) {
			onBothPaths(t, func(t *testing.T) {
				rng := rand.New(rand.NewSource(21))
				dst := make([]float64, slab)
				for done := 0; done < total; done += slab {
					xs := c.inputs(rng, slab)
					if done/slab%10 == 0 {
						copy(dst, xs)
						c.into(dst, dst)
					} else {
						c.into(dst, xs)
					}
					sameAsMath(t, c.name, dst, xs, c.f)
				}
			})
		})
	}
}

// TestExpLogIntoEdges: every special value, both zeros, both infinities and
// NaN payloads, the edges of Exp's path (Overflow, where the result leaves the
// normal range near −708.4, underflows near −745.1, and −1e300) and Log's
// subnormals and 1e-12, alone and in every lane of a group of ordinary values,
// over lengths 0–9, framed by NaN guard bands.
func TestExpLogIntoEdges(t *testing.T) {
	edges := map[string][]float64{
		"ExpInto": append([]float64{expOverflow, math.Nextafter(expOverflow, 800), 709.78, 709.79,
			-708.39, -708.4, -708.41, -745.13, -745.14, -745.2, -1e300, -1000}, specials...),
		"LogInto": append([]float64{5e-324, 1e-310, 2.2250738585072009e-308, 1e-300, 1e-12,
			math.SmallestNonzeroFloat64 * 3, math.MaxFloat64}, specials...),
	}
	for _, c := range intoCases {
		t.Run(c.name, func(t *testing.T) {
			onBothPaths(t, func(t *testing.T) {
				rng := rand.New(rand.NewSource(22))
				for _, e := range edges[c.name] {
					for n := 0; n <= 9; n++ {
						for lane := 0; lane <= n; lane++ {
							xs := make([]float64, n)
							for i := range xs {
								xs[i] = rng.Float64() + 0.5 // on the path of both
							}
							if lane < n {
								xs[lane] = e
							}
							src, srcFrame := guarded(xs)
							dst, dstFrame := guarded(make([]float64, n))
							c.into(dst, src)
							what := fmt.Sprintf("%s(%v) in lane %d of %d", c.name, e, lane, n)
							sameAsMath(t, what, dst, xs, c.f)
							checkGuards(t, what+" dst", dstFrame)
							checkGuards(t, what+" src", srcFrame)
						}
					}
				}
			})
		})
	}
}

// TestExpBodyMatchesTransliteration holds expFMA to expBodyRef, group by
// group: where every lane of a group is on the path the body must write the
// transliteration's bits, and where one is not it must stop in front of the
// group.
func TestExpBodyMatchesTransliteration(t *testing.T) {
	if !useAVX2 || !hasFMA() {
		t.Skip("no AVX2 and FMA assembly in this build or on this CPU")
	}
	checkBody(t, "exp", expFMA, expInputs(rand.New(rand.NewSource(23)), 1<<20), expBodyRef)
}

// TestLogBodyMatchesTransliteration is the same for logAVX2 and logBodyRef.
func TestLogBodyMatchesTransliteration(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 assembly in this build or on this CPU")
	}
	checkBody(t, "log", logAVX2, logInputs(rand.New(rand.NewSource(24)), 1<<20), logBodyRef)
}

func checkBody(t *testing.T, what string, body groupKernel, xs []float64, ref func(float64) (float64, bool)) {
	t.Helper()
	got := make([]float64, 4)
	for g := 0; g+4 <= len(xs); g += 4 {
		group := xs[g : g+4]
		onPath := true
		var want [4]float64
		for i, x := range group {
			var ok bool
			want[i], ok = ref(x)
			onPath = onPath && ok
		}
		wrote := body(got, group)
		if !onPath {
			if wrote != 0 {
				t.Fatalf("%s: group %v has a lane off the path, but the body wrote %d elements", what, group, wrote)
			}
			continue
		}
		if wrote != 4 {
			t.Fatalf("%s: group %v is on the path, but the body wrote %d elements", what, group, wrote)
		}
		sameBits(t, fmt.Sprintf("%s of %v", what, group), got, want[:])
	}
}

// TestExpLogBodiesChosen: every probe argument is on the scalar path; with
// AVX2 LogInto runs its replica; ExpInto runs expFMA exactly when math.Exp
// runs the FMA body. Where math.Exp runs its plain body (GODEBUG=cpu.fma=off,
// or a CPU without FMA) it disagrees with the FMA transliteration somewhere
// in a sample of 2¹⁶ arguments, and then the probe must have rejected expFMA
// too — the check that the probe separates the two bodies.
func TestExpLogBodiesChosen(t *testing.T) {
	for _, x := range expProbe() {
		if _, ok := expBodyRef(x); !ok {
			t.Fatalf("Exp probe argument %v is off the path", x)
		}
	}
	for _, x := range logProbe() {
		if _, ok := logBodyRef(x); !ok {
			t.Fatalf("Log probe argument %v is off the path", x)
		}
	}
	if !useAVX2 {
		if expBody != nil || logBody != nil {
			t.Fatal("a replica body was chosen without AVX2")
		}
		t.Skip("no AVX2 assembly in this build or on this CPU")
	}
	if logBody == nil {
		t.Fatal("no Log replica chosen: math.Log's bits differ from logAVX2's")
	}
	differ := 0
	for _, x := range expInputs(rand.New(rand.NewSource(26)), 1<<16) {
		if want, ok := expBodyRef(x); ok && math.Float64bits(math.Exp(x)) != math.Float64bits(want) {
			differ++
		}
	}
	switch fmaMath := differ == 0; {
	case fmaMath && hasFMA() && expBody == nil:
		t.Fatal("math.Exp runs the FMA body, but ExpInto does not use expFMA")
	case !fmaMath && expBody != nil:
		t.Fatalf("math.Exp differs from the FMA body on %d sample arguments, but the probe kept expFMA", differ)
	}
	t.Logf("math.Exp differs from the FMA body on %d of 2¹⁶ arguments; ExpInto uses expFMA: %v", differ, expBody != nil)
}

// TestDivScalarMatchesGoLoop: DivScalar against the scalar divide over
// lengths 0–33 at odd offsets, a special value in every lane of the dividend
// and as the divisor, framed by guards.
func TestDivScalarMatchesGoLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for n := 0; n <= 33; n++ {
		for shift := 0; shift < len(specials); shift++ {
			x := normals(rng, n)
			for i := range x {
				if (i+shift)/len(specials)%2 == 0 {
					x[i] = specials[(i+shift)%len(specials)]
				}
			}
			s := specials[shift]
			if shift%2 == 1 {
				s = rng.NormFloat64()
			}
			want := offset(x, 1)
			for i := range x {
				want[i] /= s
			}
			eachPath(func(path string) {
				what := fmt.Sprintf("DivScalar n=%d shift=%d path=%s", n, shift, path)
				got, frame := guarded(x)
				DivScalar(got, s)
				sameBits(t, what, got, want)
				checkGuards(t, what, frame)
			})
		}
	}
}

// TestDivScalarKernelByPowersOfTwo: for every divisor n from 1 to 1024 —
// powers of two, which DivScalar multiplies by their reciprocal, and the rest,
// which it divides by — and for a few powers of two at the ends of the
// exponent range, DivScalar gives the scalar divide's bits on both paths, over
// the specials, normals, and values whose quotients are subnormal, tie
// between two subnormals or overflow. For a power of two the multiply by 1/n
// itself gives the divide's bits too, element by element.
func TestDivScalarKernelByPowersOfTwo(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	xs := append(normals(rng, 37), specials...)
	for k := 1; k < 12; k++ {
		// k·2⁻¹⁰⁷⁴ and its neighbours: halved, quartered, … they round to even.
		xs = append(xs, float64(k)*5e-324, -float64(2*k+1)*5e-324, math.Ldexp(float64(k)+0.5, -1060))
	}
	xs = append(xs, math.MaxFloat64, -math.MaxFloat64, 1.5, 3, 0.1, -7.25e-300)
	divisors := []float64{math.Ldexp(1, -1022), math.Ldexp(-1, -1000), math.Ldexp(1, 1023), -0.5, 0.25, -1024}
	for n := 1; n <= 1024; n++ {
		divisors = append(divisors, float64(n))
	}
	for _, s := range divisors {
		want := make([]float64, len(xs))
		for i, x := range xs {
			want[i] = x / s
		}
		if frac, _ := math.Frexp(s); math.Abs(frac) == 0.5 {
			r := 1 / s
			for i, x := range xs {
				if math.Float64bits(x*r) != math.Float64bits(want[i]) {
					t.Fatalf("%v·(1/%v) = %#x, %v/%v = %#x", x, s, math.Float64bits(x*r), x, s, math.Float64bits(want[i]))
				}
			}
		}
		eachPath(func(path string) {
			what := fmt.Sprintf("DivScalar s=%v path=%s", s, path)
			got, frame := guarded(xs)
			DivScalar(got, s)
			sameBits(t, what, got, want)
			checkGuards(t, what, frame)
		})
	}
}

// TestCopyFiniteKernelMatchesGoLoop: CopyFinite copies every bit, NaN
// payloads and signs included, and reports a non-finite value in any lane or
// the tail — alone or beside others — over lengths 0–33 at odd offsets, on
// both paths, framed by guards.
func TestCopyFiniteKernelMatchesGoLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for n := 0; n <= 33; n++ {
		for at := -1; at < n; at++ {
			for _, bad := range specials {
				x := offset(normals(rng, n), 1)
				if at >= 0 {
					x[at] = bad
				}
				wantFinite := at < 0 || !(math.IsNaN(bad) || math.IsInf(bad, 0))
				eachPath(func(path string) {
					what := fmt.Sprintf("CopyFinite n=%d at=%d bad=%v path=%s", n, at, bad, path)
					dst, frame := guarded(make([]float64, n))
					if got := CopyFinite(dst, x); got != wantFinite {
						t.Fatalf("%s: reports finite = %v, want %v", what, got, wantFinite)
					}
					sameBits(t, what, dst, x)
					checkGuards(t, what, frame)
				})
				if at < 0 {
					break
				}
			}
		}
	}
}

// TestSameBitsKernelMatchesGoLoop holds SameBits, the row compare over one
// row, to a word-by-word compare of Float64bits over lengths 0–9, 16–17, 32–33
// and 63–65, on both paths: equal slices, special values included, and slices
// that differ in one element at every index — +0 against −0, NaNs that differ
// only in payload or sign, +Inf against −Inf, neighbouring floats. The
// operands sit inside guard bands of two different NaNs, so a read past
// either end would tell equal slices apart.
func TestSameBitsKernelMatchesGoLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	bGuard := math.Float64frombits(0x7ff8beef0000dead)
	differ := [][2]float64{
		{0, math.Copysign(0, -1)},
		{math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002)},
		{math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8000000000001)},
		{math.Float64frombits(0x7ff0000000000123), math.Float64frombits(0x7ff8000000000123)},
		{math.Inf(1), math.Inf(-1)},
		{1, math.Nextafter(1, 2)},
	}
	oracle := func(a, b []float64) bool {
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 32, 33, 63, 64, 65} {
		x := normals(rng, n)
		for i := 0; i < n; i += 3 {
			x[i] = specials[(i/3)%len(specials)]
		}
		a, aFrame := guarded(x)
		bFrame := make([]float64, n+2*guardBand)
		for i := range bFrame {
			bFrame[i] = bGuard
		}
		b := bFrame[guardBand : guardBand+n : guardBand+n]
		check := func(what string, want bool) {
			t.Helper()
			if oracle(a, b) != want {
				t.Fatalf("%s: the oracle says %v", what, !want)
			}
			eachPath(func(path string) {
				if got := SameBits(a, b); got != want {
					t.Fatalf("%s path=%s: SameBits = %v, want %v", what, path, got, want)
				}
			})
			checkGuards(t, what, aFrame)
		}
		copy(b, a)
		check(fmt.Sprintf("n=%d equal", n), true)
		for at := 0; at < n; at++ {
			for _, d := range differ {
				copy(b, a)
				a[at], b[at] = d[0], d[1]
				check(fmt.Sprintf("n=%d at=%d %#x vs %#x", n, at, math.Float64bits(d[0]), math.Float64bits(d[1])), false)
				b[at] = d[0]
				check(fmt.Sprintf("n=%d at=%d %#x twice", n, at, math.Float64bits(d[0])), true)
			}
			a[at] = x[at]
		}
		if n > 0 {
			eachPath(func(path string) {
				if SameBits(a, b[:n-1]) || SameBits(a[:n-1], b) {
					t.Fatalf("n=%d path=%s: slices of different lengths compare the same", n, path)
				}
			})
		}
	}
}

// TestRowKernelsMatchGoLoop holds the row kernels to word-by-word oracles on
// both paths, over 0–3 and 5 rows, each 0–9, 16, 17 or 63–65 wide, special
// values among the normals: Tensor.FromRows copies every bit into a slab
// framed by guard bands and reports a NaN or ±Inf at any row and column, and
// panics on a row of another width wherever it stands; Tensor.SameRows finds
// the slab equal to its rows, different where one word of one row differs (−0
// for +0, another NaN payload), and different where one row is a word short
// or long. Each row is its own allocation, framed by guard bands of another
// NaN, so a read past a row or the slab would show.
func TestRowKernelsMatchGoLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	rowGuard := math.Float64frombits(0x7ff8beef0000dead)
	for _, n := range []int{0, 1, 2, 3, 5} {
		for _, cols := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 63, 64, 65} {
			what := fmt.Sprintf("%d rows × %d", n, cols)
			rows := make([][]float64, n)
			frames := make([][]float64, n)
			for r := range rows {
				frames[r] = make([]float64, cols+2*guardBand)
				for i := range frames[r] {
					frames[r][i] = rowGuard
				}
				rows[r] = frames[r][guardBand : guardBand+cols : guardBand+cols]
				copy(rows[r], normals(rng, cols))
				if cols > 0 {
					rows[r][rng.Intn(cols)] = specials[rng.Intn(2)] // ±0: finite
				}
			}
			eachPath(func(path string) {
				what := what + " path=" + path
				data, frame := guarded(make([]float64, n*cols))
				slab := &Tensor{Data: data}
				if !slab.FromRows(rows, cols) || slab.Rows != n || slab.Cols != cols {
					t.Fatalf("%s: FromRows reports non-finite values or reshaped to %d×%d", what, slab.Rows, slab.Cols)
				}
				for r, row := range rows {
					sameBits(t, what, slab.Row(r), row)
				}
				checkGuards(t, what, frame)
				if !slab.SameRows(rows) {
					t.Fatalf("%s: SameRows finds the slab different from the rows it was copied from", what)
				}
				for r := range rows {
					for j := 0; j < cols; j++ {
						v := rows[r][j]
						for _, d := range [][2]float64{{0, math.Copysign(0, -1)}, {math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002)}} {
							slab.Row(r)[j], rows[r][j] = d[0], d[1]
							if slab.SameRows(rows) {
								t.Fatalf("%s: SameRows misses %#x against %#x at row %d, word %d", what, math.Float64bits(d[0]), math.Float64bits(d[1]), r, j)
							}
						}
						for _, bad := range specials[2:8] { // ±Inf, NaNs
							rows[r][j] = bad
							if slab.FromRows(rows, cols) {
								t.Fatalf("%s: FromRows misses %v at row %d, word %d", what, bad, r, j)
							}
							sameBits(t, what, slab.Row(r), rows[r])
							if !slab.SameRows(rows) {
								t.Fatalf("%s: SameRows finds %#x different from itself at row %d, word %d", what, math.Float64bits(bad), r, j)
							}
						}
						rows[r][j] = v
						slab.FromRows(rows, cols)
					}
					checkGuards(t, what, frame)
					full := rows[r]
					for _, w := range []int{cols - 1, cols + 1} {
						if w < 0 {
							continue
						}
						rows[r] = frames[r][guardBand : guardBand+w]
						if slab.SameRows(rows) {
							t.Fatalf("%s: SameRows takes a row %d wide at row %d", what, w, r)
						}
						func() {
							defer func() {
								if recover() == nil {
									t.Fatalf("%s: FromRows takes a row %d wide at row %d", what, w, r)
								}
							}()
							var other Tensor
							other.FromRows(rows, cols)
						}()
					}
					rows[r] = full
				}
				for r, f := range frames {
					for i, v := range f {
						if inside := i >= guardBand && i < guardBand+cols; !inside && math.Float64bits(v) != math.Float64bits(rowGuard) {
							t.Fatalf("%s: row %d's guard element %d overwritten with %v", what, r, i-guardBand, v)
						}
					}
				}
			})
		}
	}
}

// headShapes are the class-major slabs the head tests sweep: sample counts
// around one and several groups of four and the 256-row batch, class counts
// 1–9 and 17.
var headRows, headClasses = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 127, 128, 129, 256}, []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 17}

// headSlab is a classes × rows slab of logits at one of four scales and, from
// trial 4 on, in about every other column one of the values a head must get
// right: ±0, ±Inf, NaN, ±1e300, a column that is all −Inf, or a tie for the
// maximum.
func headSlab(rng *rand.Rand, classes, rows, trial int) *Tensor {
	x := NewTensor(classes, rows)
	scale := []float64{1, 10, 300, 1e5}[trial%4]
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64() * scale
	}
	awkward := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1e300, -1e300}
	for r := 0; r < rows && trial >= 4; r++ {
		switch rng.Intn(6) {
		case 0, 1:
			x.Data[rng.Intn(classes)*rows+r] = awkward[rng.Intn(len(awkward))]
		case 2:
			for c := 0; c < classes; c++ {
				x.Data[c*rows+r] = math.Inf(-1)
			}
		case 3:
			v := 4 * scale
			x.Data[rng.Intn(classes)*rows+r] = v
			x.Data[rng.Intn(classes)*rows+r] = v
		}
	}
	return x
}

// softmaxColRef and argmaxColRef are the per-sample loops the column kernels
// replace, one sample's classes at a time: the first-greatest logit (−Inf
// taken as 0) subtracted, math.Exp and the sum element by element, each
// element divided by the sum or uniform for a zero sum; the first index of
// the largest value.
func softmaxColRef(out, logits []float64) {
	maxv := math.Inf(-1)
	for _, v := range logits {
		if v > maxv {
			maxv = v
		}
	}
	if maxv == math.Inf(-1) {
		maxv = 0
	}
	var sum float64
	for i, v := range logits {
		e := math.Exp(v - maxv)
		out[i] = e
		sum += e
	}
	for i := range out {
		if sum == 0 {
			out[i] = 1 / float64(len(out))
		} else {
			out[i] /= sum
		}
	}
}

func argmaxColRef(xs []float64) int {
	best := 0
	for i := 1; i < len(xs); i++ {
		if xs[i] > xs[best] {
			best = i
		}
	}
	return best
}

// column returns column r of a classes × rows slab.
func column(x *Tensor, r int) []float64 {
	col := make([]float64, x.Rows)
	for c := range col {
		col[c] = x.At(c, r)
	}
	return col
}

// TestSoftmaxColsMatchPerSampleLoops: SoftmaxCols (out of place and in place)
// and ArgmaxCols against the per-sample loops, bit for bit, on both paths,
// over headRows × headClasses slabs with the awkward values of headSlab.
func TestSoftmaxColsMatchPerSampleLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	onBothPaths(t, func(t *testing.T) {
		for _, rows := range headRows {
			for _, classes := range headClasses {
				for trial := 0; trial < 8; trial++ {
					x := headSlab(rng, classes, rows, trial)
					p, inPlace := NewTensor(classes, rows), cloneTensor(x)
					SoftmaxCols(p, x)
					SoftmaxCols(inPlace, inPlace)
					labels := make([]int, rows)
					ArgmaxCols(labels, x)
					want := make([]float64, classes)
					for r := 0; r < rows; r++ {
						what := fmt.Sprintf("%d classes × %d rows, trial %d, sample %d", classes, rows, trial, r)
						softmaxColRef(want, column(x, r))
						sameBits(t, "SoftmaxCols "+what, column(p, r), want)
						sameBits(t, "SoftmaxCols in place "+what, column(inPlace, r), want)
						if l := argmaxColRef(column(x, r)); labels[r] != l {
							t.Fatalf("ArgmaxCols %s: %d, want %d", what, labels[r], l)
						}
					}
				}
			}
		}
	})
}
