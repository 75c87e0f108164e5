package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"freewayml/internal/linalg"
)

// forwardRows runs the batch through the network and returns a copy of the
// logits, one row per sample.
func forwardRows(net *Network, x [][]float64) [][]float64 {
	return net.forwardT(net.stage(x)).TransposeToRows()
}

// lossOf is the batch's mean softmax cross-entropy, with no gradient or
// parameter written.
func lossOf(t *testing.T, net *Network, x [][]float64, y []int) float64 {
	t.Helper()
	logits := net.forwardT(net.stage(x))
	loss, err := softmaxCrossEntropyT(logits, y, linalg.NewTensor(logits.Rows, logits.Cols), make([]float64, logits.Cols))
	if err != nil {
		t.Fatal(err)
	}
	return loss
}

// numericalGrad estimates dLoss/dw by central differences for every
// parameter of the network on a fixed batch.
func numericalGrad(t *testing.T, net *Network, x [][]float64, y []int) [][]float64 {
	t.Helper()
	const eps = 1e-5
	params := net.Params()
	out := make([][]float64, len(params))
	for pi, p := range params {
		out[pi] = make([]float64, len(p.W))
		for i := range p.W {
			orig := p.W[i]
			p.W[i] = orig + eps
			lp := lossOf(t, net, x, y)
			p.W[i] = orig - eps
			lm := lossOf(t, net, x, y)
			p.W[i] = orig
			out[pi][i] = (lp - lm) / (2 * eps)
		}
	}
	return out
}

func checkGradients(t *testing.T, net *Network, x [][]float64, y []int) {
	t.Helper()
	num := numericalGrad(t, net, x, y)
	net.ZeroGrad()
	if _, err := net.AccumulateGradients(x, y); err != nil {
		t.Fatal(err)
	}
	for pi, p := range net.Params() {
		for i := range p.Grad {
			want := num[pi][i]
			got := p.Grad[i]
			if math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
				t.Fatalf("param %d[%d]: analytic %v vs numeric %v", pi, i, got, want)
			}
		}
	}
}

// tensorOf builds a batch tensor from literal rows, for driving a Layer
// directly in tests.
func tensorOf(rows ...[]float64) *linalg.Tensor {
	t := &linalg.Tensor{}
	t.FromRows(rows, len(rows[0]))
	return t
}

func randomBatch(rng *rand.Rand, n, d, classes int) ([][]float64, []int) {
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		x[i] = make([]float64, d)
		for j := range x[i] {
			x[i][j] = rng.NormFloat64()
		}
		y[i] = rng.Intn(classes)
	}
	return x, y
}

func TestDenseGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net, err := NewNetwork(4, 3, NewDense(4, 3, rng))
	if err != nil {
		t.Fatal(err)
	}
	x, y := randomBatch(rng, 5, 4, 3)
	checkGradients(t, net, x, y)
}

func TestMLPGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net, err := NewNetwork(4, 3,
		NewDense(4, 8, rng), NewReLU(),
		NewDense(8, 3, rng))
	if err != nil {
		t.Fatal(err)
	}
	x, y := randomBatch(rng, 6, 4, 3)
	checkGradients(t, net, x, y)
}

func TestSigmoidGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net, err := NewNetwork(4, 2,
		NewDense(4, 5, rng), NewSigmoid(),
		NewDense(5, 2, rng))
	if err != nil {
		t.Fatal(err)
	}
	x, y := randomBatch(rng, 4, 4, 2)
	checkGradients(t, net, x, y)
}

func TestConvGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// input: 1 channel × 8; conv(1→2, k=3) → 2×6; pool(2) → 2×3; dense → 2.
	conv := NewConv1D(1, 2, 3, 8, rng)
	pool := NewMaxPool1D(2, 6, 2)
	net, err := NewNetwork(8, 2, conv, NewReLU(), pool, NewDense(6, 2, rng))
	if err != nil {
		t.Fatal(err)
	}
	x, y := randomBatch(rng, 4, 8, 2)
	checkGradients(t, net, x, y)
}

func TestMultiChannelConvGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// 2 channels × 6 → conv(2→3, k=2) → 3×5 → dense → 2.
	conv := NewConv1D(2, 3, 2, 6, rng)
	net, err := NewNetwork(12, 2, conv, NewDense(15, 2, rng))
	if err != nil {
		t.Fatal(err)
	}
	x, y := randomBatch(rng, 3, 12, 2)
	checkGradients(t, net, x, y)
}

func TestNetworkValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	if _, err := NewNetwork(0, 2, NewDense(1, 2, rng)); err == nil {
		t.Error("inDim 0 should error")
	}
	if _, err := NewNetwork(4, 2); err == nil {
		t.Error("no layers should error")
	}
	if _, err := NewNetwork(4, 2, NewDense(5, 2, rng)); err == nil {
		t.Error("width mismatch should error")
	}
	if _, err := NewNetwork(4, 3, NewDense(4, 2, rng)); err == nil {
		t.Error("output width != classes should error")
	}
}

func TestTrainingConvergesOnSeparableData(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net, err := NewNetwork(2, 2, NewDense(2, 16, rng), NewReLU(), NewDense(16, 2, rng))
	if err != nil {
		t.Fatal(err)
	}
	opt := NewSGD(0.1, 0.9, 0)
	// Two well-separated clusters.
	sample := func(n int) ([][]float64, []int) {
		x := make([][]float64, n)
		y := make([]int, n)
		for i := range x {
			c := rng.Intn(2)
			cx := -2.0
			if c == 1 {
				cx = 2.0
			}
			x[i] = []float64{cx + rng.NormFloat64()*0.5, rng.NormFloat64() * 0.5}
			y[i] = c
		}
		return x, y
	}
	var lastLoss float64
	for epoch := 0; epoch < 60; epoch++ {
		x, y := sample(64)
		loss, err := net.TrainBatch(x, y, opt)
		if err != nil {
			t.Fatal(err)
		}
		lastLoss = loss
	}
	if lastLoss > 0.1 {
		t.Errorf("loss after training = %v, want < 0.1", lastLoss)
	}
	x, y := sample(200)
	pred := net.Predict(x)
	correct := 0
	for i := range y {
		if pred[i] == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / 200; acc < 0.95 {
		t.Errorf("accuracy = %v, want >= 0.95", acc)
	}
}

// softmaxOf runs the class-major softmax over literal rows of equal width,
// one row per sample, and returns the probabilities as rows.
func softmaxOf(rows ...[]float64) [][]float64 {
	logits := classMajor(tensorOf(rows...))
	linalg.SoftmaxCols(logits, logits)
	return logits.TransposeToRows()
}

// classMajor returns a copy of the rows × classes tensor x laid out classes ×
// rows.
func classMajor(x *linalg.Tensor) *linalg.Tensor {
	t := linalg.NewTensor(x.Cols, x.Rows)
	linalg.TransposeInto(t, x)
	return t
}

// softmaxRowRef is the per-row softmax the class-major head replaced, kept as
// its oracle: the row's maximum subtracted, math.Exp and the sum element by
// element, then each element divided by the sum.
func softmaxRowRef(out, logits []float64) {
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
	if sum == 0 {
		for i := range out {
			out[i] = 1 / float64(len(out))
		}
		return
	}
	for i := range out {
		out[i] /= sum
	}
}

// crossEntropyRef is the per-row loss head the class-major form replaced: the
// mean of −log max(p[y], ε) and the gradient (p − onehot)/n, row by row.
func crossEntropyRef(logits *linalg.Tensor, labels []int) (float64, []float64) {
	n := float64(logits.Rows)
	grad := make([]float64, len(logits.Data))
	var loss float64
	for i, y := range labels {
		g := grad[i*logits.Cols : (i+1)*logits.Cols]
		softmaxRowRef(g, logits.Row(i))
		loss += -math.Log(math.Max(g[y], crossEntropyEps))
		for j := range g {
			g[j] /= n
		}
		g[y] -= 1 / n
	}
	return loss / n, grad
}

// argmaxRef is the per-row argmax the class-major head replaced: the first
// index of the largest element.
func argmaxRef(xs []float64) int {
	best := 0
	for i := 1; i < len(xs); i++ {
		if xs[i] > xs[best] {
			best = i
		}
	}
	return best
}

// TestSoftmaxSlabMatchesPerRow: the class-major head leaves the per-row forms'
// bits — probabilities (out of place and in place), loss, gradient and the
// labels of both logits and probabilities — over 1–9, 63–65, 127–129 and 256
// rows of 1–9 and 17 classes, logits from ordinary to overflowing, with ±0,
// ±Inf, NaN, ±1e300, rows of −Inf and ties in some rows. -tags purego runs it
// on the Go loops alone.
func TestSoftmaxSlabMatchesPerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	awkward := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1e300, -1e300}
	same := func(what string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: element %d = %v, per-row form %v", what, i, got[i], want[i])
			}
		}
	}
	for _, rows := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 127, 128, 129, 256} {
		for _, c := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 17} {
			for trial := 0; trial < 8; trial++ {
				logits := linalg.NewTensor(rows, c)
				scale := []float64{1, 10, 300, 1e5}[trial%4]
				for i := range logits.Data {
					logits.Data[i] = rng.NormFloat64() * scale
				}
				for i := 0; i < rows && trial >= 4; i++ {
					row := logits.Row(i)
					switch rng.Intn(6) {
					case 0, 1:
						row[rng.Intn(c)] = awkward[rng.Intn(len(awkward))]
					case 2:
						for j := range row {
							row[j] = math.Inf(-1)
						}
					case 3: // a tie for the maximum
						row[rng.Intn(c)], row[rng.Intn(c)] = 4*scale, 4*scale
					}
				}
				labels := make([]int, rows)
				for i := range labels {
					labels[i] = rng.Intn(c)
				}
				what := fmt.Sprintf("%d×%d trial %d", rows, c, trial)

				want := make([]float64, len(logits.Data))
				wantLabels, wantPLabels := make([]int, rows), make([]int, rows)
				for i := 0; i < rows; i++ {
					softmaxRowRef(want[i*c:(i+1)*c], logits.Row(i))
					wantLabels[i] = argmaxRef(logits.Row(i))
					wantPLabels[i] = argmaxRef(want[i*c : (i+1)*c])
				}
				lt := classMajor(logits)
				p := linalg.NewTensor(c, rows)
				linalg.SoftmaxCols(p, lt)
				same("softmax "+what, classMajor(p).Data, want)
				inPlace := classMajor(logits)
				linalg.SoftmaxCols(inPlace, inPlace)
				same("softmax in place "+what, classMajor(inPlace).Data, want)
				got := make([]int, rows)
				for _, l := range []struct {
					of         string
					slab       *linalg.Tensor
					wantLabels []int
				}{{"logits", lt, wantLabels}, {"probabilities", p, wantPLabels}} {
					linalg.ArgmaxCols(got, l.slab)
					for i := range got {
						if got[i] != l.wantLabels[i] {
							t.Fatalf("argmax of the %s, %s, row %d: %d, per-row form %d", l.of, what, i, got[i], l.wantLabels[i])
						}
					}
				}

				wantLoss, wantGrad := crossEntropyRef(logits, labels)
				grad := linalg.NewTensor(c, rows)
				loss, err := softmaxCrossEntropyT(lt, labels, grad, make([]float64, rows))
				if err != nil {
					t.Fatal(err)
				}
				same("loss "+what, []float64{loss}, []float64{wantLoss})
				same("gradient "+what, classMajor(grad).Data, wantGrad)
			}
		}
	}
}

func TestSoftmaxProperties(t *testing.T) {
	f := func(raw [5]float64) bool {
		logits := make([]float64, 5)
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			logits[i] = math.Mod(v, 50)
		}
		p := softmaxOf(make([]float64, 5), logits)[1] // a row after the first
		var sum float64
		for _, v := range p {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSoftmaxStabilityWithHugeLogits(t *testing.T) {
	p := softmaxOf([]float64{1000, 1001, 999})[0]
	if math.IsNaN(p[0]) || p[1] < p[0] || p[1] < p[2] {
		t.Errorf("unstable softmax: %v", p)
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	p := softmaxOf([]float64{1, 2, 3}, []float64{101, 102, 103})
	a, b := p[0], p[1]
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			t.Fatalf("softmax not shift-invariant: %v vs %v", a, b)
		}
	}
}

// TestSoftmaxAllNegInfIsUniform: a row with no finite logit has no maximum to
// shift by and exponentials that sum to zero; it comes out uniform, and the
// rows around it are untouched by it.
func TestSoftmaxAllNegInfIsUniform(t *testing.T) {
	inf := math.Inf(-1)
	p := softmaxOf([]float64{0, 0, 0, 0}, []float64{inf, inf, inf, inf}, []float64{1, 1, 1, 1})
	for r := 0; r < 3; r++ {
		for _, v := range p[r] {
			if v != 0.25 {
				t.Fatalf("row %d = %v, want uniform", r, p[r])
			}
		}
	}
}

func TestCrossEntropyErrors(t *testing.T) {
	// Class-major: two classes of one sample.
	logits, grad, logp := tensorOf([]float64{1}, []float64{2}), linalg.NewTensor(2, 1), make([]float64, 2)
	if _, err := softmaxCrossEntropyT(logits, []int{0, 1}, grad, logp); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := softmaxCrossEntropyT(linalg.NewTensor(2, 0), nil, linalg.NewTensor(2, 0), nil); err == nil {
		t.Error("empty batch should error")
	}
	for _, y := range []int{5, 2, -1} {
		if _, err := softmaxCrossEntropyT(logits, []int{y}, grad, logp); err == nil {
			t.Errorf("label %d of 2 classes should error", y)
		}
	}
}

// TestArgmax: a sample's label is the first index of its largest class score,
// read down its column of the class-major slab; no classes give -1.
func TestArgmax(t *testing.T) {
	labels := make([]int, 2)
	linalg.ArgmaxCols(labels, linalg.NewTensor(0, 2))
	if labels[0] != -1 || labels[1] != -1 {
		t.Errorf("no classes: %v, want -1s", labels)
	}
	// Samples (1, 3, 2) and (2, 2, 1).
	linalg.ArgmaxCols(labels, tensorOf([]float64{1, 2}, []float64{3, 2}, []float64{2, 1}))
	if labels[0] != 1 {
		t.Errorf("argmax of (1, 3, 2) = %d, want 1", labels[0])
	}
	if labels[1] != 0 {
		t.Errorf("argmax of the tie (2, 2, 1) = %d, want the first, 0", labels[1])
	}
}

func TestSnapshotRestoreRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	net, _ := NewNetwork(3, 2, NewDense(3, 4, rng), NewReLU(), NewDense(4, 2, rng))
	x, y := randomBatch(rng, 8, 3, 2)
	before := net.Predict(x)

	snap, err := net.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Train to change the weights.
	opt := NewSGD(0.5, 0, 0)
	for i := 0; i < 10; i++ {
		if _, err := net.TrainBatch(x, y, opt); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.Restore(snap); err != nil {
		t.Fatal(err)
	}
	after := net.Predict(x)
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("predictions differ after restore")
		}
	}
}

func TestRestoreRejectsWrongArchitecture(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a, _ := NewNetwork(3, 2, NewDense(3, 2, rng))
	b, _ := NewNetwork(3, 2, NewDense(3, 4, rng), NewReLU(), NewDense(4, 2, rng))
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(snap); err == nil {
		t.Error("restore into different architecture should error")
	}
	if err := b.Restore([]byte("garbage")); err == nil {
		t.Error("restore of garbage should error")
	}
}

// TestParamsGatheredOnce: Params lists the layers' own tensors in layer order,
// gathered once at construction, so a call costs nothing.
func TestParamsGatheredOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	d1, d2 := NewDense(3, 4, rng), NewDense(4, 2, rng)
	net, _ := NewNetwork(3, 2, d1, NewReLU(), d2)
	want := append(d1.Params(), d2.Params()...)
	got := net.Params()
	if len(got) != len(want) {
		t.Fatalf("Params length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("parameter tensor %d is not layer order's", i)
		}
	}
	if net.NumParams() != 3*4+4+4*2+2 {
		t.Errorf("NumParams = %d", net.NumParams())
	}
	if n := testing.AllocsPerRun(100, func() { _ = net.Params() }); n != 0 {
		t.Errorf("Params allocates %.1f times per call, want 0", n)
	}
}

func TestFlattenAndSetFlatGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	net, _ := NewNetwork(3, 2, NewDense(3, 2, rng))
	x, y := randomBatch(rng, 4, 3, 2)
	if _, err := net.AccumulateGradients(x, y); err != nil {
		t.Fatal(err)
	}
	flat := net.FlattenGrads()
	if len(flat) != net.NumParams() {
		t.Fatalf("flat grads len %d, want %d", len(flat), net.NumParams())
	}
	doubled := make([]float64, len(flat))
	for i, g := range flat {
		doubled[i] = 2 * g
	}
	net.SetFlatGrads(doubled)
	got := net.FlattenGrads()
	for i := range got {
		if math.Abs(got[i]-doubled[i]) > 1e-15 {
			t.Fatal("SetFlatGrads roundtrip mismatch")
		}
	}
}

func TestSetFlatGradsPanicsOnLength(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	net, _ := NewNetwork(3, 2, NewDense(3, 2, rng))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	net.SetFlatGrads(make([]float64, 3))
}

func TestSGDValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewSGD(0, 0, 0) },
		func() { NewSGD(0.1, -0.1, 0) },
		func() { NewSGD(0.1, 1, 0) },
		func() { NewSGD(0.1, 0, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestSGDWeightDecayShrinksWeights(t *testing.T) {
	p := newParam(1)
	p.W[0] = 10
	opt := NewSGD(0.1, 0, 0.5)
	opt.Step([]*Param{p}) // grad 0, decay pulls toward 0
	if p.W[0] >= 10 {
		t.Errorf("weight decay did not shrink weight: %v", p.W[0])
	}
}

func TestSGDMomentumAccelerates(t *testing.T) {
	// Under a constant gradient, momentum should move farther than plain SGD
	// after several steps.
	plain := newParam(1)
	mom := newParam(1)
	optP := NewSGD(0.1, 0, 0)
	optM := NewSGD(0.1, 0.9, 0)
	for i := 0; i < 10; i++ {
		plain.Grad[0] = 1
		mom.Grad[0] = 1
		optP.Step([]*Param{plain})
		optM.Step([]*Param{mom})
	}
	if !(mom.W[0] < plain.W[0]) { // both negative; momentum more so
		t.Errorf("momentum %v not ahead of plain %v", mom.W[0], plain.W[0])
	}
	optM.Reset()
	if v := optM.velocity[mom]; len(v) != 1 || v[0] != 0 {
		t.Errorf("Reset left velocity %v, want [0]", v)
	}
	// Reset zeroes the buffers in place: the step after it allocates nothing.
	params := []*Param{mom}
	if allocs := testing.AllocsPerRun(10, func() { optM.Reset(); optM.Step(params) }); allocs != 0 {
		t.Errorf("Reset + Step allocates %.0f times, want 0", allocs)
	}
}

func TestMaxPoolPartialWindow(t *testing.T) {
	p := NewMaxPool1D(1, 5, 2) // windows: [0,1],[2,3],[4]
	out := p.Forward(tensorOf([]float64{1, 5, 2, 3, 9}))
	want := []float64{5, 3, 9}
	for i := range want {
		if out.At(0, i) != want[i] {
			t.Fatalf("pool out = %v, want %v", out.Row(0), want)
		}
	}
	// Gradient routes to argmax positions only.
	gi := p.Backward(tensorOf([]float64{1, 1, 1}))
	wantG := []float64{0, 1, 0, 1, 1}
	for i := range wantG {
		if gi.At(0, i) != wantG[i] {
			t.Fatalf("pool grad = %v, want %v", gi.Row(0), wantG)
		}
	}
}

func TestLayerConstructorPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cases := []func(){
		func() { NewDense(0, 1, rng) },
		func() { NewConv1D(0, 1, 1, 4, rng) },
		func() { NewConv1D(1, 1, 5, 4, rng) },
		func() { NewMaxPool1D(1, 4, 0) },
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

func TestNumParamsCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	net, _ := NewNetwork(4, 3, NewDense(4, 5, rng), NewReLU(), NewDense(5, 3, rng))
	want := 4*5 + 5 + 5*3 + 3
	if got := net.NumParams(); got != want {
		t.Errorf("NumParams = %d, want %d", got, want)
	}
}
