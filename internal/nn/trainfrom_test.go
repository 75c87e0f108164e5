package nn_test

import (
	"math"
	"math/rand"
	"testing"

	"freewayml/internal/linalg"
	"freewayml/internal/model"
	"freewayml/internal/nn"
)

// familyNet builds the network of one model-zoo family (same seed every
// call, so two calls give bit-identical twins).
func familyNet(t *testing.T, family string, dim, classes int) *nn.Network {
	t.Helper()
	factory, err := model.FactoryFor(family, model.DefaultHyper())
	if err != nil {
		t.Fatal(err)
	}
	m, err := factory(dim, classes)
	if err != nil {
		t.Fatal(err)
	}
	return m.Net()
}

func sameBits(t *testing.T, what string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d values", what, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: value %d: %v vs %v", what, i, a[i], b[i])
		}
	}
}

func sameMomentum(t *testing.T, a, b *nn.Network, optA, optB *nn.SGD) {
	t.Helper()
	for k, p := range a.Params() {
		sameBits(t, "momentum", nn.Velocity(optA, p), nn.Velocity(optB, b.Params()[k]))
	}
}

// frozenForward freezes n and runs the frozen pass over x, staged in ws.
func frozenForward(n *nn.Network, ws *nn.Workspace, x [][]float64) *nn.Forward {
	ws.Reset()
	ws.Stage(x, n.InDim())
	return ws.Forward(n.Freeze(nil))
}

// TestTrainFromMatchesTrainTensor is the contract of training from a frozen
// forward: for every network family, TrainFrom on a forward of the current
// parameters ≡ TrainTensor on the same rows — the same loss, every gradient
// accumulator before the step, then the weights and the momentum, bit for bit,
// step after step (momentum and weight decay on). A live forward of other rows
// in between (CEC's arbitration runs one) must not matter: the layers adopt
// the frozen pass's caches.
func TestTrainFromMatchesTrainTensor(t *testing.T) {
	const dim, classes, rows = 12, 5, 37
	h := model.DefaultHyper()
	for _, family := range []string{"lr", "mlp", "cnn3", "cnn5"} {
		t.Run(family, func(t *testing.T) {
			plain, reuse := familyNet(t, family, dim, classes), familyNet(t, family, dim, classes)
			optPlain := nn.NewSGD(h.LR, h.Momentum, h.WeightDecay)
			optReuse := nn.NewSGD(h.LR, h.Momentum, h.WeightDecay)
			rng := rand.New(rand.NewSource(11))
			var ws nn.Workspace
			for step := 0; step < 4; step++ {
				x, y := elisionBatch(rng, rows, dim, classes)
				other, _ := elisionBatch(rng, rows+3, dim, classes)

				// The gradients before the step.
				lossPlain, err := plain.AccumulateGradients(x, y)
				if err != nil {
					t.Fatal(err)
				}
				fw := frozenForward(reuse, &ws, x)
				reuse.Predict(other)
				lossReuse, ok, err := nn.AccumulateFrom(reuse, fw, y)
				if err != nil || !ok {
					t.Fatalf("step %d: AccumulateFrom ok=%v err=%v on a current forward", step, ok, err)
				}
				if math.Float64bits(lossPlain) != math.Float64bits(lossReuse) {
					t.Fatalf("step %d: loss %v vs %v", step, lossPlain, lossReuse)
				}
				sameParamBits(t, "gradients before the step", plain, reuse)
				plain.Step(optPlain)
				reuse.Step(optReuse)
				sameParamBits(t, "after the step", plain, reuse)
				sameMomentum(t, plain, reuse, optPlain, optReuse)

				// The whole update.
				var xt linalg.Tensor
				xt.FromRows(x, dim)
				lossPlain, err = plain.TrainTensor(&xt, y, optPlain)
				if err != nil {
					t.Fatal(err)
				}
				fw = frozenForward(reuse, &ws, x)
				reuse.Predict(other)
				lossReuse, ok, err = reuse.TrainFrom(fw, y, optReuse)
				if err != nil || !ok {
					t.Fatalf("step %d: TrainFrom ok=%v err=%v on a current forward", step, ok, err)
				}
				if math.Float64bits(lossPlain) != math.Float64bits(lossReuse) {
					t.Fatalf("step %d: TrainFrom loss %v vs %v", step, lossPlain, lossReuse)
				}
				sameParamBits(t, "after TrainFrom", plain, reuse)
				sameMomentum(t, plain, reuse, optPlain, optReuse)
			}
		})
	}
}

// TestTrainFromDeclines: every parameter write after the freeze moves the
// version Freeze recorded, and a forward of another network is not this
// one's: TrainFrom then does nothing (ok = false) and leaves the weights as
// they were. A current forward trains once; a second TrainFrom on it declines,
// because its own step wrote the parameters.
func TestTrainFromDeclines(t *testing.T) {
	const dim, classes, rows = 6, 3, 9
	rng := rand.New(rand.NewSource(5))
	x, y := elisionBatch(rng, rows, dim, classes)
	h := model.DefaultHyper()

	cases := map[string]func(n *nn.Network, opt *nn.SGD){
		"optimizer step": func(n *nn.Network, opt *nn.SGD) {
			if _, err := n.AccumulateGradients(x, y); err != nil {
				t.Fatal(err)
			}
			n.Step(opt)
		},
		"Restore": func(n *nn.Network, _ *nn.SGD) {
			snap, err := n.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if err := n.Restore(snap); err != nil {
				t.Fatal(err)
			}
		},
		"declared parameter write": func(n *nn.Network, _ *nn.SGD) { n.Params()[0].W[0] *= 0.5; n.InvalidateForward() },
	}
	for name, disturb := range cases {
		t.Run(name, func(t *testing.T) {
			n := familyNet(t, "mlp", dim, classes)
			opt := nn.NewSGD(h.LR, h.Momentum, h.WeightDecay)
			var ws nn.Workspace
			fw := frozenForward(n, &ws, x)
			disturb(n, opt)
			before := n.AppendFlatParams(nil)
			if _, ok, err := n.TrainFrom(fw, y, opt); ok || err != nil {
				t.Fatalf("TrainFrom ran on a forward of older parameters (ok=%v err=%v)", ok, err)
			}
			sameBits(t, "weights after a declined TrainFrom", before, n.AppendFlatParams(nil))
		})
	}

	n, twin := familyNet(t, "mlp", dim, classes), familyNet(t, "mlp", dim, classes)
	opt := nn.NewSGD(h.LR, h.Momentum, h.WeightDecay)
	var ws nn.Workspace
	if _, ok, _ := n.TrainFrom(nil, y, opt); ok {
		t.Fatal("TrainFrom ran without a forward")
	}
	if _, ok, _ := n.TrainFrom(frozenForward(twin, &ws, x), y, opt); ok {
		t.Fatal("TrainFrom ran on another network's forward")
	}
	fw := frozenForward(n, &ws, x)
	if _, ok, err := n.TrainFrom(fw, y, opt); !ok || err != nil {
		t.Fatalf("current forward declined: ok=%v err=%v", ok, err)
	}
	if _, ok, _ := n.TrainFrom(fw, y, opt); ok {
		t.Fatal("a forward trained twice")
	}
	// A label error surfaces as TrainTensor's would, with nothing stepped.
	fw = frozenForward(n, &ws, x)
	before := n.AppendFlatParams(nil)
	bad := append([]int(nil), y...)
	bad[0] = classes
	if _, ok, err := n.TrainFrom(fw, bad, opt); !ok || err == nil {
		t.Fatalf("bad label: ok=%v err=%v, want ok with an error", ok, err)
	}
	sameBits(t, "weights after a failed update", before, n.AppendFlatParams(nil))
}

// TestWorkspaceForwardRunsOnce: Forward runs a frozen pass over the staged
// batch at most once per workspace use, keeps one record per frozen pass, and
// records what PredictProba answers.
func TestWorkspaceForwardRunsOnce(t *testing.T) {
	const dim, classes = 6, 3
	rng := rand.New(rand.NewSource(6))
	x, _ := elisionBatch(rng, 8, dim, classes)
	n := familyNet(t, "mlp", dim, classes)
	f := n.Freeze(nil)
	var ws nn.Workspace
	ws.Stage(x, dim)
	a := ws.Forward(f)
	if b := ws.Forward(f); b != a {
		t.Fatal("a second Forward of the same frozen pass ran it again")
	}
	if g := ws.Forward(n.Freeze(nil)); g == a {
		t.Fatal("another freeze shares the first one's record")
	}
	want := n.PredictProba(x)
	for i, row := range a.Proba().TransposeToRows() {
		sameBits(t, "recorded distributions", row, want[i])
	}
}

// TestFreezeIntoRecycledStorage: a freeze into storage an earlier freeze gave
// up (Retire) copies the parameters as a freeze into fresh memory does, bit
// for bit, and reports their finiteness — a NaN or Inf anywhere, first or last
// tensor, makes it false. It is a new Frozen, so a forward recorded over the
// retired one is never taken for its own, and a trainer declines that stale
// forward; storage too small is not used.
func TestFreezeIntoRecycledStorage(t *testing.T) {
	const dim, classes = 6, 3
	rng := rand.New(rand.NewSource(7))
	x, y := elisionBatch(rng, 8, dim, classes)
	n := familyNet(t, "mlp", dim, classes)
	opt := nn.NewSGD(0.05, 0.9, 1e-4)
	var ws nn.Workspace
	ws.Stage(x, dim)
	old := n.Freeze(nil)
	stale := ws.Forward(old)
	if !old.Finite() {
		t.Fatal("a freeze of finite weights reports a non-finite value")
	}
	if _, err := n.TrainTensor(ws.Staged(), y, opt); err != nil {
		t.Fatal(err)
	}
	buf := old.Retire()
	f := n.Freeze(buf)
	if ws.Forward(f) == stale {
		t.Fatal("a freeze into recycled storage took the retired freeze's record")
	}
	if _, ok, _ := n.TrainFrom(stale, y, opt); ok {
		t.Fatal("TrainFrom trained from a forward of retired parameters")
	}
	got := f.Retire()
	if &got[0] != &buf[0] {
		t.Fatal("a freeze into storage of the right size allocated")
	}
	sameBits(t, "a freeze into recycled storage", got, n.AppendFlatParams(nil))
	if small := n.Freeze(make([]float64, 3)); len(small.Retire()) != n.NumParams() {
		t.Fatal("a freeze into storage too small copied a partial image")
	}
	params := n.Params()
	for _, p := range []*nn.Param{params[0], params[len(params)-1]} {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			keep := p.W[len(p.W)-1]
			p.W[len(p.W)-1] = bad
			if n.Freeze(buf).Finite() {
				t.Errorf("a freeze of weights holding %v reports every value finite", bad)
			}
			p.W[len(p.W)-1] = keep
		}
	}
	if !n.Freeze(buf).Finite() {
		t.Error("a freeze of finite weights reports a non-finite value")
	}
}
