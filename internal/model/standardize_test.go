package model

import (
	"math/rand"
	"testing"
)

// offsetBatch draws separable classes around a large common offset — the
// regime that destabilizes an unnormalized MLP at a fixed learning rate.
func offsetBatch(rng *rand.Rand, n int, offset float64) ([][]float64, []int) {
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		c := rng.Intn(2)
		x[i] = []float64{
			offset + float64(c)*2 + rng.NormFloat64()*0.3,
			offset + rng.NormFloat64()*0.3,
			rng.NormFloat64() * 0.3,
		}
		y[i] = c
	}
	return x, y
}

func TestStandardizedLearnsAtLargeOffset(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	inner, err := NewStreamingMLP(3, 2, DefaultHyper())
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewStandardized(inner)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 40; s++ {
		x, y := offsetBatch(rng, 64, 40)
		if _, err := m.Fit(x, y); err != nil {
			t.Fatal(err)
		}
	}
	x, y := offsetBatch(rng, 400, 40)
	if acc := accuracy(m.Predict(x), y); acc < 0.9 {
		t.Errorf("standardized accuracy at offset 40 = %v", acc)
	}
	if m.Name() != "std+StreamingMLP" {
		t.Errorf("name = %q", m.Name())
	}
}

func TestUnstandardizedFailsAtLargeOffsetControl(t *testing.T) {
	// Control experiment documenting why Standardized exists: the bare MLP
	// at the same offset stays near chance.
	rng := rand.New(rand.NewSource(1))
	m, err := NewStreamingMLP(3, 2, DefaultHyper())
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 40; s++ {
		x, y := offsetBatch(rng, 64, 40)
		if _, err := m.Fit(x, y); err != nil {
			t.Fatal(err)
		}
	}
	x, y := offsetBatch(rng, 400, 40)
	if acc := accuracy(m.Predict(x), y); acc > 0.8 {
		t.Skipf("bare MLP unexpectedly learned (acc %v); control no longer binding", acc)
	}
}

func TestStandardizedIdentityBeforeData(t *testing.T) {
	inner, _ := NewStreamingLR(2, 2, DefaultHyper())
	m, _ := NewStandardized(inner)
	// No data seen: transform must be the identity (no NaNs from 0/0).
	proba := m.PredictProba([][]float64{{1, 2}})
	if len(proba) != 1 || len(proba[0]) != 2 {
		t.Fatalf("proba shape wrong: %v", proba)
	}
}

func TestStandardizedSnapshotRestore(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	inner, _ := NewStreamingMLP(3, 2, DefaultHyper())
	m, _ := NewStandardized(inner)
	for s := 0; s < 20; s++ {
		x, y := offsetBatch(rng, 64, 10)
		if _, err := m.Fit(x, y); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	inner2, _ := NewStreamingMLP(3, 2, DefaultHyper())
	fresh, _ := NewStandardized(inner2)
	if err := fresh.Restore(snap); err != nil {
		t.Fatal(err)
	}
	x, _ := offsetBatch(rng, 50, 10)
	p1 := m.Predict(x)
	p2 := fresh.Predict(x)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("restored standardized model predicts differently")
		}
	}
	if err := fresh.Restore([]byte("junk")); err == nil {
		t.Error("garbage restore should error")
	}
}

func TestStandardizedFactory(t *testing.T) {
	base, err := FactoryFor("lr", DefaultHyper())
	if err != nil {
		t.Fatal(err)
	}
	f := StandardizedFactory(base)
	m, err := f(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "std+StreamingLR" {
		t.Errorf("name = %q", m.Name())
	}
	if _, err := NewStandardized(nil); err == nil {
		t.Error("nil inner should error")
	}
}
