package strategy

import (
	"math"
	"testing"
	"testing/quick"

	"freewayml/internal/linalg"
)

// probaOf builds a member's probability tensor from rows of the given width
// (the width of an empty batch cannot be read off its rows).
func probaOf(classes int, rows ...[]float64) *linalg.Tensor {
	t := linalg.NewTensor(0, classes)
	t.FromRows(rows, classes)
	return t
}

// TestKernelProperties: K(D,σ) = exp(−D²/(2σ²)) of Eq. 14 is 1 at D = 0,
// vanishes for large D, decreases in |D| and is symmetric.
func TestKernelProperties(t *testing.T) {
	if k := kernel(0, 1); k != 1 {
		t.Errorf("K(0) = %v, want 1", k)
	}
	if k := kernel(100, 1); k > 1e-10 {
		t.Errorf("K(100) = %v, want ~0", k)
	}
	// Monotone decreasing in |d|.
	if !(kernel(1, 1) > kernel(2, 1)) {
		t.Error("kernel not decreasing")
	}
	// Symmetric.
	if kernel(3, 2) != kernel(-3, 2) {
		t.Error("kernel not symmetric")
	}
}

func TestKernelPanicsOnBadSigma(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	kernel(1, 0)
}

func TestFuseErrors(t *testing.T) {
	var out linalg.Tensor
	if _, err := fuse(&out, nil, nil, 1); err == nil {
		t.Error("no members should error")
	}
	m := member{proba: probaOf(2, []float64{0.5, 0.5}), distance: 0}
	if _, err := fuse(&out, nil, []member{m}, 0); err == nil {
		t.Error("sigma 0 should error")
	}
	bad := member{proba: probaOf(2, []float64{1, 0}, []float64{0, 1}), distance: 0}
	if _, err := fuse(&out, nil, []member{m, bad}, 1); err == nil {
		t.Error("sample count mismatch should error")
	}
	badClasses := member{proba: probaOf(3, []float64{1, 0, 0}), distance: 0}
	if _, err := fuse(&out, nil, []member{m, badClasses}, 1); err == nil {
		t.Error("class count mismatch should error")
	}
}

// TestFuseEqualDistancesAverages: equal D give equal K(D,σ), so Eq. 14 is the
// plain average.
func TestFuseEqualDistancesAverages(t *testing.T) {
	a := member{proba: probaOf(2, []float64{1, 0}), distance: 1}
	b := member{proba: probaOf(2, []float64{0, 1}), distance: 1}
	var out linalg.Tensor
	if _, err := fuse(&out, nil, []member{a, b}, 1); err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.At(0, 0)-0.5) > 1e-12 || math.Abs(out.At(0, 1)-0.5) > 1e-12 {
		t.Errorf("equal-distance fuse = %v, want [0.5 0.5]", out.Row(0))
	}
}

// TestFuseCloserModelDominates: the weights are K(Dᵢ,σ)/ΣK (Eq. 14) — they
// sum to one and the member with the smaller model shift distance (Eq. 12/13)
// gets the larger one.
func TestFuseCloserModelDominates(t *testing.T) {
	near := member{proba: probaOf(2, []float64{1, 0}), distance: 0.1}
	far := member{proba: probaOf(2, []float64{0, 1}), distance: 5}
	var out linalg.Tensor
	ws, err := fuse(&out, nil, []member{near, far}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out.At(0, 0) < 0.99 {
		t.Errorf("near model weight too low: %v", out.Row(0))
	}
	k0, k1 := math.Exp(-0.1*0.1/2), math.Exp(-5.0*5.0/2)
	if ws[0] != k0/(k0+k1) || ws[1] != k1/(k0+k1) || math.Abs(ws[0]+ws[1]-1) > 1e-12 {
		t.Errorf("weights = %v, want K(Dᵢ,σ)/ΣK = [%v %v]", ws, k0/(k0+k1), k1/(k0+k1))
	}
}

// TestFuseAllWeightsUnderflowFallsBackUniform: when every K(Dᵢ,σ) of Eq. 14
// underflows to zero the members are averaged, not divided by ΣK = 0.
func TestFuseAllWeightsUnderflowFallsBackUniform(t *testing.T) {
	a := member{proba: probaOf(2, []float64{1, 0}), distance: 1e9}
	b := member{proba: probaOf(2, []float64{0, 1}), distance: 1e9}
	var out linalg.Tensor
	ws, err := fuse(&out, nil, []member{a, b}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.At(0, 0)-0.5) > 1e-12 {
		t.Errorf("underflow fallback = %v, want uniform", out.Row(0))
	}
	if ws[0] != 0.5 || ws[1] != 0.5 {
		t.Errorf("underflow weights = %v, want uniform", ws)
	}
}

func TestFuseEmptyBatch(t *testing.T) {
	m := member{proba: probaOf(2), distance: 0}
	var out linalg.Tensor
	if _, err := fuse(&out, nil, []member{m}, 1); err != nil {
		t.Fatal(err)
	}
	if out.Rows != 0 || len(out.Data) != 0 {
		t.Errorf("fused %d rows, %d values", out.Rows, len(out.Data))
	}
}

// Property: Eq. 14 is a convex combination, so the fused output of valid
// distributions is a valid distribution.
func TestFusePreservesDistributionProperty(t *testing.T) {
	f := func(p1raw, p2raw [3]float64, d1raw, d2raw float64) bool {
		norm := func(raw [3]float64) []float64 {
			p := make([]float64, 3)
			var sum float64
			for i, v := range raw {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					v = 0
				}
				p[i] = math.Abs(math.Mod(v, 10)) + 0.01
				sum += p[i]
			}
			for i := range p {
				p[i] /= sum
			}
			return p
		}
		clampD := func(d float64) float64 {
			if math.IsNaN(d) || math.IsInf(d, 0) {
				return 0
			}
			return math.Abs(math.Mod(d, 100))
		}
		a := member{proba: probaOf(3, norm(p1raw)), distance: clampD(d1raw)}
		b := member{proba: probaOf(3, norm(p2raw)), distance: clampD(d2raw)}
		var out linalg.Tensor
		if _, err := fuse(&out, nil, []member{a, b}, 1); err != nil {
			return false
		}
		var sum float64
		for _, v := range out.Row(0) {
			if v < -1e-12 || v > 1+1e-12 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
