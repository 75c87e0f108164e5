package model

import (
	"math"
	"math/rand"
	"testing"

	"freewayml/internal/linalg"
	"freewayml/internal/nn"
)

const frozenDim, frozenClasses = 12, 3

// frozenFamilies builds one trained model of every family FactoryFor knows.
func frozenFamilies(t *testing.T) map[string]Model {
	t.Helper()
	models := map[string]Model{}
	for _, family := range []string{"lr", "mlp", "cnn3", "cnn5"} {
		factory, err := FactoryFor(family, DefaultHyper())
		if err != nil {
			t.Fatal(err)
		}
		m, err := factory(frozenDim, frozenClasses)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		for k := 0; k < 5; k++ {
			fitFrozenBatch(t, m, rng)
		}
		models[family] = m
	}
	return models
}

func fitFrozenBatch(t *testing.T, m Model, rng *rand.Rand) {
	t.Helper()
	x, y := make([][]float64, 48), make([]int, 48)
	for i := range x {
		y[i] = rng.Intn(frozenClasses)
		x[i] = make([]float64, frozenDim)
		for j := range x[i] {
			x[i][j] = 3 + 2*rng.NormFloat64()
		}
		x[i][y[i]] += 4
	}
	if _, err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
}

// edgeRows is a batch of ordinary rows with every kind of awkward float mixed
// in: signed zeros, signed infinities, the subnormals next to zero, huge and
// tiny magnitudes.
func edgeRows() [][]float64 {
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e-310, math.MaxFloat64, -1e300, 1e-300}
	rng := rand.New(rand.NewSource(6))
	rows := make([][]float64, 3*len(specials))
	for i := range rows {
		rows[i] = make([]float64, frozenDim)
		for j := range rows[i] {
			rows[i][j] = 3 + 2*rng.NormFloat64()
		}
		switch s := specials[i%len(specials)]; i / len(specials) {
		case 0: // one special feature
			rows[i][i%frozenDim] = s
		case 1: // every feature
			for j := range rows[i] {
				rows[i][j] = s
			}
		} // case 2: an ordinary row
	}
	return rows
}

func stageRows(rows [][]float64) *linalg.Tensor {
	t := linalg.NewTensor(0, frozenDim)
	t.FromRows(rows, frozenDim)
	return t
}

// sameProba compares the class-major got with the rows of want bit for bit,
// any NaN matching any NaN.
func sameProba(t *testing.T, what string, got *linalg.Tensor, want [][]float64) {
	t.Helper()
	if got.Rows != frozenClasses || got.Cols != len(want) {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.Rows, got.Cols, frozenClasses, len(want))
	}
	for i := range want {
		for c, w := range want[i] {
			g := got.At(c, i)
			if math.Float64bits(g) != math.Float64bits(w) && !(g != g && w != w) {
				t.Fatalf("%s: proba[%d][%d] = %v, want %v", what, i, c, g, w)
			}
		}
	}
}

// TestFrozenMatchesLiveModel: for every family, what Freeze returns predicts
// exactly what the model itself predicted at that instant — on signed zeros,
// infinities and subnormals too — and keeps doing so after the model it came
// from has trained on.
func TestFrozenMatchesLiveModel(t *testing.T) {
	rows := edgeRows()
	for family, m := range frozenFamilies(t) {
		frozen, want := m.Freeze(nil), m.PredictProba(rows)
		rng := rand.New(rand.NewSource(7))
		fitFrozenBatch(t, m, rng)
		fitFrozenBatch(t, m, rng)
		x := stageRows(rows)
		before := append([]float64(nil), x.Data...)
		var ws nn.Workspace
		sameProba(t, family, frozen.ProbaInto(&ws, x), want)
		for i, v := range before {
			if math.Float64bits(x.Data[i]) != math.Float64bits(v) {
				t.Fatalf("%s: the frozen pass wrote the staged batch at %d", family, i)
			}
		}
	}
}

// TestFrozenIgnoresStaleWorkspace: whatever a workspace held — here the
// scratch of a wider architecture on a larger batch, then NaN in every slot,
// capacity beyond the next shapes included — is overwritten before it is
// read: the answer equals a fresh workspace's, bit for bit.
func TestFrozenIgnoresStaleWorkspace(t *testing.T) {
	wide, err := NewStreamingMLP(40, 7, Hyper{LR: 0.05, Momentum: 0.9, Hidden: 256, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var stale nn.Workspace
	wide.Freeze(nil).ProbaInto(&stale, linalg.NewTensor(300, 40))
	poison := func() {
		stale.Reset()
		for k := 0; k < 16; k++ {
			s := stale.Tensor(1, 1<<16)
			for i := range s.Data {
				s.Data[i] = math.NaN()
			}
		}
		stale.Reset()
	}
	rows := edgeRows()[20:] // the ordinary rows: no NaN of the batch's own making
	x := stageRows(rows)
	for family, m := range frozenFamilies(t) {
		frozen := m.Freeze(nil)
		var fresh nn.Workspace
		want := frozen.ProbaInto(&fresh, x)
		for i, v := range want.Data {
			if v != v {
				t.Fatalf("%s: NaN at %d from a fresh workspace", family, i)
			}
		}
		poison()
		sameProba(t, family, frozen.ProbaInto(&stale, x), want.TransposeToRows())
	}
}
