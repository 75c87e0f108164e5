package nn_test

import (
	"math"
	"math/rand"
	"testing"

	"freewayml/internal/model"
	"freewayml/internal/nn"
)

func elisionBatch(rng *rand.Rand, rows, dim, classes int) ([][]float64, []int) {
	x := make([][]float64, rows)
	y := make([]int, rows)
	for i := range x {
		x[i] = make([]float64, dim)
		for j := range x[i] {
			x[i][j] = 3*rng.NormFloat64() + 1
		}
		y[i] = rng.Intn(classes)
	}
	return x, y
}

// sameParamBits requires every weight and every gradient accumulator of the
// two networks to be bit-identical.
func sameParamBits(t *testing.T, when string, a, b *nn.Network) {
	t.Helper()
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		t.Fatalf("%s: %d vs %d parameter tensors", when, len(pa), len(pb))
	}
	for k := range pa {
		for i := range pa[k].W {
			if math.Float64bits(pa[k].W[i]) != math.Float64bits(pb[k].W[i]) {
				t.Fatalf("%s: param %d weight %d: %v vs %v", when, k, i, pa[k].W[i], pb[k].W[i])
			}
			if math.Float64bits(pa[k].Grad[i]) != math.Float64bits(pb[k].Grad[i]) {
				t.Fatalf("%s: param %d grad %d: %v vs %v", when, k, i, pa[k].Grad[i], pb[k].Grad[i])
			}
		}
	}
}

// TestFirstLayerElisionIsBitwiseNeutral drives every network family of the
// model zoo with and without the first layer's input gradient: Param.Grad
// after AccumulateGradients, the loss, and the weights after SGD steps
// (momentum and weight decay on) must agree bit for bit.
func TestFirstLayerElisionIsBitwiseNeutral(t *testing.T) {
	const dim, classes, rows = 12, 5, 37
	for _, family := range []string{"lr", "mlp", "cnn3", "cnn5"} {
		t.Run(family, func(t *testing.T) {
			factory, err := model.FactoryFor(family, model.DefaultHyper())
			if err != nil {
				t.Fatal(err)
			}
			elided, err := factory(dim, classes)
			if err != nil {
				t.Fatal(err)
			}
			full, err := factory(dim, classes) // same seed: same initial weights
			if err != nil {
				t.Fatal(err)
			}
			nn.ComputeFirstLayerInputGrad(full.Net())
			sameParamBits(t, "initial", elided.Net(), full.Net())

			rng := rand.New(rand.NewSource(7))
			for step := 0; step < 4; step++ {
				x, y := elisionBatch(rng, rows, dim, classes)

				// Gradients alone, as the A-GEM and Spark baselines take them.
				le, err := elided.Net().AccumulateGradients(x, y)
				if err != nil {
					t.Fatal(err)
				}
				lf, err := full.Net().AccumulateGradients(x, y)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(le) != math.Float64bits(lf) {
					t.Fatalf("step %d: loss %v vs %v", step, le, lf)
				}
				sameParamBits(t, "after AccumulateGradients", elided.Net(), full.Net())
				elided.Net().ZeroGrad()
				full.Net().ZeroGrad()

				// A whole update through the model surface.
				le, err = elided.Fit(x, y)
				if err != nil {
					t.Fatal(err)
				}
				lf, err = full.Fit(x, y)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(le) != math.Float64bits(lf) {
					t.Fatalf("step %d: Fit loss %v vs %v", step, le, lf)
				}
				sameParamBits(t, "after Fit", elided.Net(), full.Net())
			}

			// The comparison is not vacuous: only the reference side ever
			// materialized ∂L/∂x.
			if nn.FirstLayerInputGrad(full.Net()) == nil {
				t.Fatal("reference network never computed its first layer's input gradient")
			}
			if nn.FirstLayerInputGrad(elided.Net()) != nil {
				t.Fatal("first layer's input gradient was computed despite the elision")
			}
		})
	}
}
