package nn

import (
	"math"
	"math/rand"
	"testing"

	"freewayml/internal/linalg"
)

// activationInputs covers what an element-wise kernel can mishandle: both
// zeros, both infinities, NaNs of either sign, the smallest subnormals, and
// ordinary values of both signs.
func activationInputs(rng *rand.Rand) []float64 {
	xs := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.NaN(), math.Float64frombits(0xfff8000000000001),
		5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
		1, -1, 745, -745,
	}
	for len(xs) < 64 {
		xs = append(xs, 4*rng.NormFloat64())
	}
	return xs
}

// reluGate is the bit-pattern gate of ReLU.Backward, restated: 1 when v is
// non-zero with the sign bit clear.
func reluGate(v float64) float64 {
	bits := math.Float64bits(v)
	if bits != 0 && bits>>63 == 0 {
		return 1
	}
	return 0
}

// TestInPlaceActivationsMatchOutOfPlace compares ReLU and Sigmoid, which
// overwrite the tensors they are handed, with plain out-of-place references
// (fresh output slices, the formulas spelled out) on exact bits, forward and
// backward. The ReLU reference gates on the forward output max(x, 0); for
// every non-NaN x that is the gate on x itself (the test checks it), and a
// NaN passes the gradient whichever sign max leaves it.
func TestInPlaceActivationsMatchOutOfPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := activationInputs(rng)
	gs := make([]float64, len(xs))
	for i := range gs {
		gs[i] = rng.NormFloat64()
	}
	gs[3], gs[7] = math.Inf(1), math.Copysign(0, -1)

	same := func(what string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: element %d (x = %v, %#x): %v (%#x), want %v (%#x)", what, i, xs[i], math.Float64bits(xs[i]),
					got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
	tensor := func(vs []float64) *linalg.Tensor {
		return linalg.TensorView(append([]float64(nil), vs...), 4, len(vs)/4)
	}

	// ReLU.
	wantOut, wantGrad := make([]float64, len(xs)), make([]float64, len(xs))
	for i, v := range xs {
		wantOut[i] = max(v, 0)
		wantGrad[i] = gs[i] * reluGate(wantOut[i])
		if v == v && reluGate(wantOut[i]) != reluGate(v) {
			t.Fatalf("x = %v: the output gates differently from the input", v)
		}
	}
	relu, x, g := NewReLU(), tensor(xs), tensor(gs)
	if out := relu.Forward(x); out != x {
		t.Fatal("ReLU.Forward did not return the tensor it was handed")
	}
	same("ReLU forward", x.Data, wantOut)
	if gin := relu.Backward(g); gin != g {
		t.Fatal("ReLU.Backward did not return the gradient it was handed")
	}
	same("ReLU backward", g.Data, wantGrad)

	// Sigmoid.
	for i, v := range xs {
		y := 1 / (1 + math.Exp(-v))
		wantOut[i] = y
		wantGrad[i] = gs[i] * y * (1 - y)
	}
	sig, x, g := NewSigmoid(), tensor(xs), tensor(gs)
	if out := sig.Forward(x); out != x {
		t.Fatal("Sigmoid.Forward did not return the tensor it was handed")
	}
	same("Sigmoid forward", x.Data, wantOut)
	if gin := sig.Backward(g); gin != g {
		t.Fatal("Sigmoid.Backward did not return the gradient it was handed")
	}
	same("Sigmoid backward", g.Data, wantGrad)
}

// TestNetworkForwardLeavesCallerRowsAlone: an activation in first position
// overwrites the network's staging copy (row API) or a workspace copy (frozen
// tensor entry), never the caller's batch.
func TestNetworkForwardLeavesCallerRowsAlone(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	net, err := NewNetwork(3, 2, NewReLU(), NewDense(3, 2, rng))
	if err != nil {
		t.Fatal(err)
	}
	x := [][]float64{{-1, 2, -3}, {4, -5, 6}}
	flat := linalg.TensorView([]float64{-1, 2, -3, 4, -5, 6}, 2, 3)
	net.PredictProba(x)
	net.Freeze(nil).ProbaInto(new(Workspace), flat)
	if x[0][0] != -1 || x[1][1] != -5 || flat.Data[0] != -1 || flat.Data[4] != -5 {
		t.Fatalf("forward pass rectified the caller's data: %v %v", x, flat.Data)
	}
}

// TestNewNetworkRejectsStackedActivations: an activation gates its Backward
// by its own output, which a second in-place activation directly above would
// overwrite.
func TestNewNetworkRejectsStackedActivations(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for name, layers := range map[string][]Layer{
		"relu→sigmoid":    {NewDense(3, 4, rng), NewReLU(), NewSigmoid(), NewDense(4, 2, rng)},
		"sigmoid→sigmoid": {NewDense(3, 4, rng), NewSigmoid(), NewSigmoid(), NewDense(4, 2, rng)},
	} {
		if _, err := NewNetwork(3, 2, layers...); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Separated by a layer with its own output they are fine.
	if _, err := NewNetwork(3, 2, NewDense(3, 4, rng), NewReLU(), NewDense(4, 4, rng), NewSigmoid(), NewDense(4, 2, rng)); err != nil {
		t.Errorf("activations separated by Dense: %v", err)
	}
}

// refNarrowHeadGradW is the narrow-head ∂W of the tree before the
// transpose-free form, kept as the reference: transpose X and G, then
// GemmTBAdd — per element a dot product over ascending samples, summed from
// zero and added to Grad once.
func refNarrowHeadGradW(gw, x, g *linalg.Tensor) {
	xT, gT := linalg.NewTensor(x.Cols, x.Rows), linalg.NewTensor(g.Cols, g.Rows)
	linalg.TransposeInto(xT, x)
	linalg.TransposeInto(gT, g)
	linalg.GemmTBAdd(gw, xT, gT)
}

// TestNarrowHeadGradMatchesTransposeReference pins the transpose-free ∂W of
// a narrow head (∂Wᵀ = GᵀX via GemmTA, then a transposed add) to the bits of
// the transpose + GemmTBAdd path it replaced, on top of a non-zero prior
// gradient, for head widths that exercise the row-pair tile alone (2), a
// single leftover row alone (1) and pairs plus a leftover (5, 7).
func TestNarrowHeadGradMatchesTransposeReference(t *testing.T) {
	const in = 64
	for _, out := range []int{1, 2, 5, 7} {
		for _, rows := range []int{2, 37, 256} {
			rng := rand.New(rand.NewSource(int64(100*out + rows)))
			d := NewDense(in, out, rng)
			if in < denseGradWDotFactor*out {
				t.Fatalf("%d→%d is not a narrow head", in, out)
			}
			x, g := linalg.NewTensor(rows, in), linalg.NewTensor(rows, out)
			for i := range x.Data {
				x.Data[i] = max(rng.NormFloat64(), 0) // post-ReLU activations: many exact zeros
			}
			for i := range g.Data {
				g.Data[i] = rng.NormFloat64() / float64(rows)
			}
			for i := range d.w.Grad {
				d.w.Grad[i] = rng.NormFloat64()
			}
			want := linalg.TensorView(append([]float64(nil), d.w.Grad...), in, out)
			refNarrowHeadGradW(want, x, g)

			d.Forward(x)
			d.backwardParams(g)
			for i := range want.Data {
				if math.Float64bits(d.w.Grad[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("%d→%d, %d rows: ∂W[%d] = %v, want %v", in, out, rows, i, d.w.Grad[i], want.Data[i])
				}
			}
		}
	}
}
