package nn

import (
	"math"
	"math/rand"
	"testing"

	"freewayml/internal/linalg"
)

// tensorEntryBatch returns the same random batch as rows and as a flat tensor.
func tensorEntryBatch(rng *rand.Rand, rows, cols int) ([][]float64, *linalg.Tensor) {
	x := make([][]float64, rows)
	fused := linalg.NewTensor(rows, cols)
	for i := range x {
		x[i] = make([]float64, cols)
		for j := range x[i] {
			v := rng.NormFloat64()
			x[i][j] = v
			fused.Set(i, j, v)
		}
	}
	return x, fused
}

// TestTensorEntryMatchesRows pins that the flat-tensor entry — ProbaInto on
// the network's frozen parameters, class-major — is bitwise identical to the
// row-slice API on the same values, the property the JSON-vs-binary
// differential test inherits, and that the frozen pass leaves the caller's
// tensor alone.
func TestTensorEntryMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	net, err := NewNetwork(4, 3, NewDense(4, 8, rng), NewReLU(), NewDense(8, 3, rng))
	if err != nil {
		t.Fatal(err)
	}
	const rows = 9
	x, fused := tensorEntryBatch(rng, rows, 4)

	wantProba := net.PredictProba(x)
	before := append([]float64(nil), fused.Data...)
	var ws Workspace
	gotProba := net.Freeze().ProbaInto(&ws, fused)
	if gotProba.Rows != 3 || gotProba.Cols != rows {
		t.Fatalf("frozen proba shape %dx%d, want class-major 3x%d", gotProba.Rows, gotProba.Cols, rows)
	}
	for i := range wantProba {
		for j, w := range wantProba[i] {
			if math.Float64bits(gotProba.At(j, i)) != math.Float64bits(w) {
				t.Fatalf("proba[%d][%d] = %v, want %v", i, j, gotProba.At(j, i), w)
			}
		}
	}
	for i, v := range before {
		if fused.Data[i] != v {
			t.Fatalf("the frozen pass wrote the caller's batch at %d", i)
		}
	}
}

// TestFrozenIsACopy: training the network on after Freeze moves no frozen
// answer, and a first-position activation (which rectifies in place) gets a
// workspace copy of the batch, never the caller's tensor.
func TestFrozenIsACopy(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	net, err := NewNetwork(4, 3, NewReLU(), NewDense(4, 3, rng))
	if err != nil {
		t.Fatal(err)
	}
	x, fused := tensorEntryBatch(rng, 7, 4)
	before := append([]float64(nil), fused.Data...)
	want := net.PredictProba(x)
	frozen := net.Freeze()
	opt := NewSGD(0.5, 0.9, 0)
	for k := 0; k < 3; k++ {
		if _, err := net.TrainBatch(x, []int{0, 1, 2, 0, 1, 2, 0}, opt); err != nil {
			t.Fatal(err)
		}
	}
	var ws Workspace
	got := frozen.ProbaInto(&ws, fused)
	for i := range want {
		for j, w := range want[i] {
			if math.Float64bits(got.At(j, i)) != math.Float64bits(w) {
				t.Fatalf("proba[%d][%d] = %v after the network trained on, want %v", i, j, got.At(j, i), w)
			}
		}
	}
	for i, v := range before {
		if fused.Data[i] != v {
			t.Fatalf("a first-position ReLU rectified the caller's batch at %d", i)
		}
	}
}

func TestTensorEntryRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	net, err := NewNetwork(3, 2, NewDense(3, 2, rng))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a frozen pass accepted a batch of the wrong width")
		}
	}()
	net.Freeze().ProbaInto(new(Workspace), linalg.NewTensor(2, 5))
}

// TestPredictTensorIntoWarmAllocs: predicting from a flat tensor over frozen
// parameters allocates nothing once the workspace is warm — no staging, no
// result, no per-layer scratch — where the row-slice Predict pays for its
// result.
func TestPredictTensorIntoWarmAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	net, err := NewNetwork(6, 2, NewDense(6, 8, rng), NewReLU(), NewDense(8, 2, rng))
	if err != nil {
		t.Fatal(err)
	}
	rows, x := tensorEntryBatch(rng, 16, 6)
	frozen := net.Freeze()
	var ws Workspace
	frozen.ProbaInto(&ws, x)
	net.Predict(rows)
	fused := testing.AllocsPerRun(50, func() {
		ws.Reset()
		frozen.ProbaInto(&ws, x)
	})
	rowAPI := testing.AllocsPerRun(50, func() { net.Predict(rows) })
	if fused != 0 || fused >= rowAPI {
		t.Fatalf("a warm frozen pass allocates %.1f, want 0 (row API: %.1f)", fused, rowAPI)
	}
}
