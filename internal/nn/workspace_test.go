package nn

import (
	"math"
	"testing"

	"freewayml/internal/linalg"
)

// TestWorkspaceStagingAndExchange: StageSlab stages what Stage stages from
// the same rows; Mean is MeanRowsInto's bits, taken once per staging; and
// Exchange hands the staged tensor over — still staged and read by the
// recorded forwards until Reset — with the spare taken into its place, so
// the next staging writes the spare and never the tensor given up.
func TestWorkspaceStagingAndExchange(t *testing.T) {
	rows := [][]float64{{1, math.Copysign(0, -1)}, {3, 4}, {-5, 6.5}}
	var slab linalg.Tensor
	slab.FromRows(rows, 2)
	var a, b Workspace
	if err := a.Stage(rows, 2); err != nil {
		t.Fatal(err)
	}
	xa, xb := a.Staged(), b.StageSlab(&slab)
	for i := range xa.Data {
		if math.Float64bits(xa.Data[i]) != math.Float64bits(xb.Data[i]) {
			t.Fatalf("value %d: Stage %v, StageSlab %v", i, xa.Data[i], xb.Data[i])
		}
	}
	if &xb.Data[0] == &slab.Data[0] {
		t.Fatal("StageSlab staged the caller's slab instead of a copy")
	}
	want := linalg.NewVector(2)
	slab.MeanRowsInto(want)
	m := b.Mean()
	for j := range want {
		if math.Float64bits(m[j]) != math.Float64bits(want[j]) {
			t.Fatalf("mean %d = %v, MeanRowsInto gives %v", j, m[j], want[j])
		}
	}
	xb.Data[0] = 100 // a later write is not folded in: the mean was taken
	if b.Mean()[0] != m[0] {
		t.Fatal("Mean recomputed within one staging")
	}

	spare := linalg.NewTensor(3, 2)
	b.Exchange(spare)
	if b.Staged() != xb {
		t.Fatal("the exchanged batch is no longer staged before Reset")
	}
	b.Reset()
	if got := b.StageSlab(&slab); got != spare || xb.Data[0] != 100 {
		t.Fatalf("after Exchange the next staging wrote %p (spare %p, given up %p)", got, spare, xb)
	}
	if b.Mean()[0] != want[0] {
		t.Fatal("a new staging kept the old mean")
	}
}
