package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// equalWithin reports whether v and w have the same length and all elements
// are within tol of each other.
func equalWithin(v, w Vector, tol float64) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if math.Abs(v[i]-w[i]) > tol {
			return false
		}
	}
	return true
}

func TestVectorAddSub(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, 5, 6}
	if got := v.Add(w); !equalWithin(got, Vector{5, 7, 9}, 1e-12) {
		t.Errorf("Add = %v", got)
	}
	if got := w.Sub(v); !equalWithin(got, Vector{3, 3, 3}, 1e-12) {
		t.Errorf("Sub = %v", got)
	}
}

func TestVectorAddPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Vector{1}.Add(Vector{1, 2})
}

func TestVectorDotNormDistance(t *testing.T) {
	v := Vector{3, 4}
	if got := v.Norm(); math.Abs(got-5) > 1e-12 {
		t.Errorf("Norm = %v, want 5", got)
	}
	if got := v.Dot(Vector{1, 1}); math.Abs(got-7) > 1e-12 {
		t.Errorf("Dot = %v, want 7", got)
	}
	if got := v.Distance(Vector{0, 0}); math.Abs(got-5) > 1e-12 {
		t.Errorf("Distance = %v, want 5", got)
	}
}

func TestVectorScale(t *testing.T) {
	v := Vector{2, 0}
	s := v.Scale(3)
	if !equalWithin(s, Vector{6, 0}, 1e-12) || v[0] != 2 {
		t.Errorf("Scale = %v (input now %v)", s, v)
	}
	s.ScaleInPlace(0.5)
	if !equalWithin(s, Vector{3, 0}, 1e-12) {
		t.Errorf("ScaleInPlace = %v", s)
	}
}

func TestVectorClone(t *testing.T) {
	v := Vector{1, 2}
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Error("Clone aliases original storage")
	}
}

func TestMeanAndErrors(t *testing.T) {
	if _, err := Mean(nil); err == nil {
		t.Error("Mean(nil) should error")
	}
	if _, err := Mean([]Vector{{1}, {1, 2}}); err == nil {
		t.Error("Mean with ragged rows should error")
	}
	m, err := Mean([]Vector{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if !equalWithin(m, Vector{2, 3}, 1e-12) {
		t.Errorf("Mean = %v", m)
	}
}

func TestCovarianceKnownValues(t *testing.T) {
	rows := []Vector{{1, 0}, {-1, 0}, {0, 2}, {0, -2}}
	mean, err := Mean(rows)
	if err != nil {
		t.Fatal(err)
	}
	cov, err := Covariance(rows, mean)
	if err != nil {
		t.Fatal(err)
	}
	// Biased estimator: var(x)=2/4=0.5, var(y)=8/4=2, cov=0.
	if math.Abs(cov.At(0, 0)-0.5) > 1e-12 || math.Abs(cov.At(1, 1)-2) > 1e-12 {
		t.Errorf("diagonal = %v, %v", cov.At(0, 0), cov.At(1, 1))
	}
	if math.Abs(cov.At(0, 1)) > 1e-12 || math.Abs(cov.At(1, 0)) > 1e-12 {
		t.Errorf("off-diagonal nonzero: %v, %v", cov.At(0, 1), cov.At(1, 0))
	}
}

func TestCovarianceErrors(t *testing.T) {
	if _, err := Covariance(nil, Vector{0}); err == nil {
		t.Error("Covariance(nil) should error")
	}
	if _, err := Covariance([]Vector{{1, 2}}, Vector{0}); err == nil {
		t.Error("Covariance with mismatched mean should error")
	}
}

// clampVec maps arbitrary quick-generated floats into a numerically sane
// range so properties are not defeated by overflow to ±Inf.
func clampVec(xs []float64) Vector {
	v := NewVector(len(xs))
	for i, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0
		}
		v[i] = math.Mod(x, 1e6)
	}
	return v
}

// Property: the triangle inequality holds for Distance.
func TestDistanceTriangleInequalityProperty(t *testing.T) {
	f := func(a, b, c [4]float64) bool {
		va := clampVec(a[:])
		vb := clampVec(b[:])
		vc := clampVec(c[:])
		ac := va.Distance(vc)
		return ac <= va.Distance(vb)+vb.Distance(vc)+1e-6*(1+ac)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Dot is symmetric and Norm² == Dot(v, v).
func TestDotSymmetryProperty(t *testing.T) {
	f := func(a, b [6]float64) bool {
		va, vb := clampVec(a[:]), clampVec(b[:])
		if math.Abs(va.Dot(vb)-vb.Dot(va)) > 1e-9 {
			return false
		}
		n := va.Norm()
		return math.Abs(n*n-va.Dot(va)) <= 1e-6*(1+math.Abs(va.Dot(va)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Mean of identical rows is that row.
func TestMeanIdenticalRowsProperty(t *testing.T) {
	f := func(row [5]float64, nSeed uint8) bool {
		n := int(nSeed%7) + 1
		base := NewVector(len(row))
		for i, x := range row {
			base[i] = math.Mod(x, 1e6) // keep magnitudes sane for exact-ish arithmetic
			if math.IsNaN(base[i]) {
				base[i] = 0
			}
		}
		rows := make([]Vector, n)
		for i := range rows {
			rows[i] = base.Clone()
		}
		m, err := Mean(rows)
		if err != nil {
			return false
		}
		return equalWithin(m, base, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCovarianceDiagonalNonNegativeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(20)
		d := 1 + rng.Intn(6)
		rows := make([]Vector, n)
		for i := range rows {
			rows[i] = NewVector(d)
			for j := range rows[i] {
				rows[i][j] = rng.NormFloat64()
			}
		}
		mean, err := Mean(rows)
		if err != nil {
			t.Fatal(err)
		}
		cov, err := Covariance(rows, mean)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < d; j++ {
			if cov.At(j, j) < -1e-12 {
				t.Fatalf("negative variance %v at %d", cov.At(j, j), j)
			}
		}
		if !cov.IsSymmetric(1e-9) {
			t.Fatal("covariance not symmetric")
		}
	}
}
