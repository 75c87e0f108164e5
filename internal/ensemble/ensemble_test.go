package ensemble

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKernelProperties(t *testing.T) {
	if k := Kernel(0, 1); k != 1 {
		t.Errorf("K(0) = %v, want 1", k)
	}
	if k := Kernel(100, 1); k > 1e-10 {
		t.Errorf("K(100) = %v, want ~0", k)
	}
	// Monotone decreasing in |d|.
	if !(Kernel(1, 1) > Kernel(2, 1)) {
		t.Error("kernel not decreasing")
	}
	// Symmetric.
	if Kernel(3, 2) != Kernel(-3, 2) {
		t.Error("kernel not symmetric")
	}
}

func TestKernelPanicsOnBadSigma(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Kernel(1, 0)
}

func TestFuseErrors(t *testing.T) {
	if _, _, err := Fuse(nil, 1); err == nil {
		t.Error("no members should error")
	}
	m := Member{Proba: [][]float64{{0.5, 0.5}}, Distance: 0}
	if _, _, err := Fuse([]Member{m}, 0); err == nil {
		t.Error("sigma 0 should error")
	}
	bad := Member{Proba: [][]float64{{1, 0}, {0, 1}}, Distance: 0}
	if _, _, err := Fuse([]Member{m, bad}, 1); err == nil {
		t.Error("sample count mismatch should error")
	}
	badClasses := Member{Proba: [][]float64{{1, 0, 0}}, Distance: 0}
	if _, _, err := Fuse([]Member{m, badClasses}, 1); err == nil {
		t.Error("class count mismatch should error")
	}
}

func TestFuseEqualDistancesAverages(t *testing.T) {
	a := Member{Proba: [][]float64{{1, 0}}, Distance: 1}
	b := Member{Proba: [][]float64{{0, 1}}, Distance: 1}
	out, _, err := Fuse([]Member{a, b}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out[0][0]-0.5) > 1e-12 || math.Abs(out[0][1]-0.5) > 1e-12 {
		t.Errorf("equal-distance fuse = %v, want [0.5 0.5]", out[0])
	}
}

func TestFuseCloserModelDominates(t *testing.T) {
	near := Member{Proba: [][]float64{{1, 0}}, Distance: 0.1}
	far := Member{Proba: [][]float64{{0, 1}}, Distance: 5}
	out, _, err := Fuse([]Member{near, far}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out[0][0] < 0.99 {
		t.Errorf("near model weight too low: %v", out[0])
	}
}

func TestFuseAllWeightsUnderflowFallsBackUniform(t *testing.T) {
	a := Member{Proba: [][]float64{{1, 0}}, Distance: 1e9}
	b := Member{Proba: [][]float64{{0, 1}}, Distance: 1e9}
	out, _, err := Fuse([]Member{a, b}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out[0][0]-0.5) > 1e-12 {
		t.Errorf("underflow fallback = %v, want uniform", out[0])
	}
}

func TestFuseEmptyBatch(t *testing.T) {
	m := Member{Proba: [][]float64{}, Distance: 0}
	out, _, err := Fuse([]Member{m}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Errorf("len = %d", len(out))
	}
}

// Property: fused output of valid distributions is a valid distribution.
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
		a := Member{Proba: [][]float64{norm(p1raw)}, Distance: clampD(d1raw)}
		b := Member{Proba: [][]float64{norm(p2raw)}, Distance: clampD(d2raw)}
		out, _, err := Fuse([]Member{a, b}, 1)
		if err != nil {
			return false
		}
		var sum float64
		for _, v := range out[0] {
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

func TestWeights(t *testing.T) {
	ws, err := Weights([]float64{0, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ws[0] <= ws[1] {
		t.Errorf("closer distance should have larger weight: %v", ws)
	}
	if math.Abs(ws[0]+ws[1]-1) > 1e-12 {
		t.Errorf("weights not normalized: %v", ws)
	}
	if _, err := Weights(nil, 1); err == nil {
		t.Error("empty distances should error")
	}
	if _, err := Weights([]float64{1}, -1); err == nil {
		t.Error("bad sigma should error")
	}
	uw, err := Weights([]float64{1e9, 1e9}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(uw[0]-0.5) > 1e-12 {
		t.Errorf("underflow weights = %v, want uniform", uw)
	}
}
