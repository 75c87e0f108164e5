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
	gotProba := net.Freeze(nil).ProbaInto(&ws, fused)
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
	frozen := net.Freeze(nil)
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
	net.Freeze(nil).ProbaInto(new(Workspace), linalg.NewTensor(2, 5))
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
	frozen := net.Freeze(nil)
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

// TestTrainTensorMatchesTrainBatch: training through the tensor entry, on a
// row view in the middle of a larger slab, gives TrainBatch's losses and
// weights bit for bit, step after step, and leaves the slab as it was — also
// under a first-position ReLU, which rectifies the staging copy it gets
// instead.
func TestTrainTensorMatchesTrainBatch(t *testing.T) {
	for name, layers := range map[string]func(rng *rand.Rand) []Layer{
		"mlp": func(rng *rand.Rand) []Layer { return []Layer{NewDense(5, 8, rng), NewReLU(), NewDense(8, 3, rng)} },
		"relu first": func(rng *rand.Rand) []Layer {
			return []Layer{NewReLU(), NewDense(5, 8, rng), NewReLU(), NewDense(8, 3, rng)}
		},
		"cnn": func(rng *rand.Rand) []Layer {
			return []Layer{NewConv1D(1, 4, 3, 5, rng), NewReLU(), NewMaxPool1D(4, 3, 2), NewDense(8, 3, rng)}
		},
	} {
		t.Run(name, func(t *testing.T) {
			net := func() *Network {
				n, err := NewNetwork(5, 3, layers(rand.New(rand.NewSource(25)))...)
				if err != nil {
					t.Fatal(err)
				}
				return n
			}
			rows, tensor := net(), net()
			optRows, optTensor := NewSGD(0.05, 0.9, 1e-4), NewSGD(0.05, 0.9, 1e-4)
			rng := rand.New(rand.NewSource(26))
			x, slab := tensorEntryBatch(rng, 40, 5)
			before := append([]float64(nil), slab.Data...)
			y := make([]int, 40)
			for i := range y {
				y[i] = rng.Intn(3)
			}
			for _, c := range [][2]int{{3, 19}, {0, 40}, {19, 20}, {7, 39}} {
				view := linalg.TensorView(slab.Data[c[0]*5:c[1]*5], c[1]-c[0], 5)
				want, err := rows.TrainBatch(x[c[0]:c[1]], y[c[0]:c[1]], optRows)
				if err != nil {
					t.Fatal(err)
				}
				got, err := tensor.TrainTensor(view, y[c[0]:c[1]], optTensor)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("rows %v: loss %v, TrainBatch %v", c, got, want)
				}
				wr, wt := rows.AppendFlatParams(nil), tensor.AppendFlatParams(nil)
				for i := range wr {
					if math.Float64bits(wt[i]) != math.Float64bits(wr[i]) {
						t.Fatalf("rows %v: weight %d = %v, TrainBatch %v", c, i, wt[i], wr[i])
					}
				}
			}
			for i, v := range before {
				if math.Float64bits(slab.Data[i]) != math.Float64bits(v) {
					t.Fatalf("training wrote the caller's slab at %d", i)
				}
			}
			if _, err := tensor.TrainTensor(linalg.NewTensor(0, 5), nil, optTensor); err == nil {
				t.Fatal("an empty batch trained")
			}
		})
	}
}
