package model

import (
	"math/rand"
	"testing"
)

func separableBatch(rng *rand.Rand, n, d, classes int) ([][]float64, []int) {
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		c := rng.Intn(classes)
		x[i] = make([]float64, d)
		for j := range x[i] {
			x[i][j] = rng.NormFloat64() * 0.3
		}
		// Shift dimension c strongly so classes are separable.
		x[i][c%d] += 3
		y[i] = c
	}
	return x, y
}

func accuracy(pred, y []int) float64 {
	correct := 0
	for i := range y {
		if pred[i] == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(y))
}

func TestHyperValidate(t *testing.T) {
	bad := []Hyper{
		{LR: 0, Momentum: 0, Hidden: 1},
		{LR: 0.1, Momentum: -1, Hidden: 1},
		{LR: 0.1, Momentum: 1, Hidden: 1},
		{LR: 0.1, WeightDecay: -1, Hidden: 1},
		{LR: 0.1, Hidden: 0},
	}
	for i, h := range bad {
		if err := h.Validate(); err == nil {
			t.Errorf("case %d: invalid Hyper passed", i)
		}
	}
	if err := DefaultHyper().Validate(); err != nil {
		t.Errorf("default Hyper invalid: %v", err)
	}
}

func testFamilyLearns(t *testing.T, name string, build func() (Model, error), d, classes int) {
	t.Helper()
	m, err := build()
	if err != nil {
		t.Fatal(err)
	}
	if m.InDim() != d || m.NumClasses() != classes {
		t.Fatalf("%s dims = %d/%d", name, m.InDim(), m.NumClasses())
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 80; i++ {
		x, y := separableBatch(rng, 64, d, classes)
		if _, err := m.Fit(x, y); err != nil {
			t.Fatal(err)
		}
	}
	x, y := separableBatch(rng, 400, d, classes)
	if acc := accuracy(m.Predict(x), y); acc < 0.9 {
		t.Errorf("%s accuracy = %v, want >= 0.9", name, acc)
	}
	proba := m.PredictProba(x[:3])
	for _, p := range proba {
		var sum float64
		for _, v := range p {
			sum += v
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s proba does not sum to 1: %v", name, p)
		}
	}
}

func TestStreamingLRLearns(t *testing.T) {
	h := DefaultHyper()
	testFamilyLearns(t, "LR", func() (Model, error) { return NewStreamingLR(8, 3, h) }, 8, 3)
}

func TestStreamingMLPLearns(t *testing.T) {
	h := DefaultHyper()
	testFamilyLearns(t, "MLP", func() (Model, error) { return NewStreamingMLP(8, 3, h) }, 8, 3)
}

func TestStreamingCNN3Learns(t *testing.T) {
	h := DefaultHyper()
	h.LR = 0.02
	testFamilyLearns(t, "CNN3", func() (Model, error) { return NewStreamingCNN3(8, 3, h) }, 8, 3)
}

func TestStreamingCNN5Learns(t *testing.T) {
	h := DefaultHyper()
	h.LR = 0.02
	testFamilyLearns(t, "CNN5", func() (Model, error) { return NewStreamingCNN5(16, 3, h) }, 16, 3)
}

func TestCNNMinimumDims(t *testing.T) {
	h := DefaultHyper()
	if _, err := NewStreamingCNN3(2, 2, h); err == nil {
		t.Error("CNN3 with inDim 2 should error")
	}
	if _, err := NewStreamingCNN5(5, 2, h); err == nil {
		t.Error("CNN5 with inDim 5 should error")
	}
}

func TestInvalidHyperRejectedByConstructors(t *testing.T) {
	bad := Hyper{LR: 0, Hidden: 4}
	if _, err := NewStreamingLR(4, 2, bad); err == nil {
		t.Error("LR should reject bad hyper")
	}
	if _, err := NewStreamingMLP(4, 2, bad); err == nil {
		t.Error("MLP should reject bad hyper")
	}
	if _, err := NewStreamingCNN3(8, 2, bad); err == nil {
		t.Error("CNN3 should reject bad hyper")
	}
	if _, err := NewStreamingCNN5(16, 2, bad); err == nil {
		t.Error("CNN5 should reject bad hyper")
	}
}

func TestSnapshotRestoreAcrossClones(t *testing.T) {
	h := DefaultHyper()
	m, err := NewStreamingMLP(4, 2, h)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	x, y := separableBatch(rng, 64, 4, 2)
	for i := 0; i < 20; i++ {
		if _, err := m.Fit(x, y); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewStreamingMLP(4, 2, h)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore(snap); err != nil {
		t.Fatal(err)
	}
	p1 := m.Predict(x)
	p2 := fresh.Predict(x)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("restored model predicts differently")
		}
	}
}

func TestFactoryFor(t *testing.T) {
	h := DefaultHyper()
	for _, family := range []string{"lr", "mlp", "cnn3", "cnn5"} {
		f, err := FactoryFor(family, h)
		if err != nil {
			t.Fatalf("%s: %v", family, err)
		}
		m, err := f(16, 3)
		if err != nil {
			t.Fatalf("%s build: %v", family, err)
		}
		if m.InDim() != 16 || m.NumClasses() != 3 {
			t.Errorf("%s dims wrong", family)
		}
	}
	if _, err := FactoryFor("nope", h); err == nil {
		t.Error("unknown family should error")
	}
}

// TestFactoryForNB: the gradient-free families (naive Bayes, Hoeffding tree,
// adaptive random forest) are gone — the paper's learners are SGD-trained
// networks — so their names are unknown like any other.
func TestFactoryForNB(t *testing.T) {
	for _, family := range []string{"nb", "ht", "arf"} {
		if _, err := FactoryFor(family, DefaultHyper()); err == nil || err.Error() != "model: unknown family "+family {
			t.Errorf("FactoryFor(%q) error = %v, want the unknown-family error", family, err)
		}
	}
}

func TestNetAccessor(t *testing.T) {
	m, _ := NewStreamingLR(4, 2, DefaultHyper())
	if m.Net() == nil || m.Net().NumParams() != 4*2+2 {
		t.Error("Net() accessor broken")
	}
}
