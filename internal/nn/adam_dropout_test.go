package nn

import (
	"math"
	"math/rand"
	"testing"
)

func TestAdamConvergesOnSeparableData(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net, err := NewNetwork(2, 2, NewDense(2, 16, rng), NewReLU(), NewDense(16, 2, rng))
	if err != nil {
		t.Fatal(err)
	}
	opt := NewAdam(0.01, 0)
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
	for epoch := 0; epoch < 60; epoch++ {
		x, y := sample(64)
		if _, err := net.AccumulateGradients(x, y); err != nil {
			t.Fatal(err)
		}
		opt.Step(net.Params())
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
		t.Errorf("Adam accuracy = %v", acc)
	}
	opt.Reset()
	if opt.step != 0 || len(opt.m) != 0 {
		t.Error("Reset did not clear moments")
	}
}

func TestAdamValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewAdam(0, 0) },
		func() { NewAdam(0.01, -1) },
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

func TestAdamAdaptsPerParameter(t *testing.T) {
	// Two parameters with gradients of very different magnitude: Adam's
	// normalized step moves both by a comparable amount.
	p := newParam(2)
	opt := NewAdam(0.1, 0)
	p.Grad[0] = 100
	p.Grad[1] = 0.01
	opt.Step([]*Param{p})
	if math.Abs(math.Abs(p.W[0])-math.Abs(p.W[1])) > 0.05 {
		t.Errorf("Adam steps not normalized: %v vs %v", p.W[0], p.W[1])
	}
}

func TestDropoutTrainingMasksAndScales(t *testing.T) {
	d := NewDropout(0.5, 1)
	out := d.Forward(tensorOf([]float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}))
	zeros, scaled := 0, 0
	for _, v := range out.Row(0) {
		switch v {
		case 0:
			zeros++
		case 2: // 1 / (1 - 0.5)
			scaled++
		default:
			t.Fatalf("unexpected activation %v", v)
		}
	}
	if zeros == 0 || scaled == 0 {
		t.Errorf("mask degenerate: %d zeros, %d scaled", zeros, scaled)
	}
	// Backward routes gradients through the same mask.
	g := d.Backward(tensorOf([]float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}))
	for j, v := range out.Row(0) {
		if (v == 0) != (g.At(0, j) == 0) {
			t.Fatal("gradient mask differs from forward mask")
		}
	}
}

func TestDropoutInferenceIsIdentity(t *testing.T) {
	d := NewDropout(0.9, 1)
	d.SetTraining(false)
	x := tensorOf([]float64{1, 2, 3})
	out := d.Forward(x)
	for j, v := range out.Row(0) {
		if v != x.At(0, j) {
			t.Fatal("inference dropout modified activations")
		}
	}
	g := d.Backward(tensorOf([]float64{1, 1, 1}))
	if g.At(0, 0) != 1 {
		t.Fatal("inference backward modified gradients")
	}
}

func TestDropoutInNetworkGradCheck(t *testing.T) {
	// With training disabled dropout is the identity, so the gradient check
	// must pass exactly.
	rng := rand.New(rand.NewSource(2))
	drop := NewDropout(0.5, 3)
	drop.SetTraining(false)
	net, err := NewNetwork(4, 2, NewDense(4, 6, rng), drop, NewDense(6, 2, rng))
	if err != nil {
		t.Fatal(err)
	}
	x, y := randomBatch(rng, 4, 4, 2)
	checkGradients(t, net, x, y)
}

func TestDropoutValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDropout(1, 1)
}

func TestDropoutShape(t *testing.T) {
	d := NewDropout(0.3, 1)
	if dim, err := d.OutDim(7); err != nil || dim != 7 {
		t.Errorf("OutDim = %d, %v", dim, err)
	}
	if d.Params() != nil {
		t.Error("dropout should have no params")
	}
}
