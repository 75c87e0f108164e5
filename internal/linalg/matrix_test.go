package linalg

import (
	"math"
	"math/rand"
	"testing"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	if m.At(0, 0) != 1 || m.At(1, 2) != 5 {
		t.Errorf("At/Set roundtrip failed: %v", m.Data)
	}
	if got := m.Row(1); got[2] != 5 {
		t.Errorf("Row = %v", got)
	}
}

// matrixOf builds a matrix from literal rows of equal length.
func matrixOf(rows ...Vector) *Matrix {
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Row(i), r)
	}
	return m
}

// col returns a copy of column j of m.
func col(m *Matrix, j int) Vector {
	out := NewVector(m.Rows)
	for i := range out {
		out[i] = m.At(i, j)
	}
	return out
}

func TestMatrixTMulVec(t *testing.T) {
	a := matrixOf(Vector{1, 2}, Vector{3, 4}, Vector{5, 6})
	w := a.TMulVec(Vector{1, 1, 1})
	if !equalWithin(w, Vector{9, 12}, 1e-12) {
		t.Errorf("TMulVec = %v", w)
	}
	// A zero weight skips its row.
	if w := a.TMulVec(Vector{0, 1, 0}); !equalWithin(w, Vector{3, 4}, 0) {
		t.Errorf("TMulVec with zeros = %v", w)
	}
}

func TestMatrixTMulVecPanicsOnShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMatrix(2, 3).TMulVec(Vector{1, 2, 3})
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewTensor(4, 7)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	mt, tt := NewTensor(7, 4), NewTensor(4, 7)
	TransposeInto(mt, m)
	TransposeInto(tt, mt)
	if mt.At(6, 3) != m.At(3, 6) {
		t.Fatal("TransposeInto misplaced an element")
	}
	for i := range m.Data {
		if m.Data[i] != tt.Data[i] {
			t.Fatal("transposing twice != original")
		}
	}
}

func TestIdentityMul(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := NewTensor(5, 5)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	id, p := Identity(5), NewTensor(5, 5)
	Gemm(p, TensorView(id.Data, 5, 5), m)
	for i := range m.Data {
		if math.Abs(p.Data[i]-m.Data[i]) > 1e-12 {
			t.Fatal("I×M != M")
		}
	}
}

func TestSymmetricEigenKnownMatrix(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	m := matrixOf(Vector{2, 1}, Vector{1, 2})
	res, err := SymmetricEigen(m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Values[0]-3) > 1e-9 || math.Abs(res.Values[1]-1) > 1e-9 {
		t.Errorf("eigenvalues = %v", res.Values)
	}
	// Eigenvector for λ=3 should be parallel to (1,1)/√2.
	v0 := col(res.Vectors, 0)
	if math.Abs(math.Abs(v0[0])-math.Abs(v0[1])) > 1e-9 {
		t.Errorf("first eigenvector = %v", v0)
	}
}

func TestSymmetricEigenReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(8)
		// Random symmetric matrix A = BᵀB.
		b := NewMatrix(n, n)
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		a := NewMatrix(n, n)
		GemmTA(TensorView(a.Data, n, n), TensorView(b.Data, n, n), TensorView(b.Data, n, n))
		res, err := SymmetricEigen(a)
		if err != nil {
			t.Fatal(err)
		}
		// Check A·v = λ·v for each eigenpair, and λ ≥ 0 (PSD input).
		for k := 0; k < n; k++ {
			v := col(res.Vectors, k)
			av := a.TMulVec(v) // A is symmetric: Aᵀv = Av
			lv := v.Scale(res.Values[k])
			if !equalWithin(av, lv, 1e-6*(1+math.Abs(res.Values[k]))) {
				t.Fatalf("trial %d: A·v != λ·v for k=%d (λ=%v)", trial, k, res.Values[k])
			}
			if res.Values[k] < -1e-8 {
				t.Fatalf("trial %d: negative eigenvalue %v for PSD matrix", trial, res.Values[k])
			}
		}
		// Eigenvalues sorted descending.
		for k := 1; k < n; k++ {
			if res.Values[k] > res.Values[k-1]+1e-9 {
				t.Fatalf("eigenvalues not sorted: %v", res.Values)
			}
		}
		// Eigenvectors orthonormal.
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				d := col(res.Vectors, i).Dot(col(res.Vectors, j))
				want := 0.0
				if i == j {
					want = 1.0
				}
				if math.Abs(d-want) > 1e-7 {
					t.Fatalf("eigenvectors not orthonormal: <%d,%d> = %v", i, j, d)
				}
			}
		}
	}
}

func TestSymmetricEigenErrors(t *testing.T) {
	if _, err := SymmetricEigen(NewMatrix(2, 3)); err == nil {
		t.Error("non-square should error")
	}
	if _, err := SymmetricEigen(matrixOf(Vector{1, 2}, Vector{3, 4})); err == nil {
		t.Error("asymmetric should error")
	}
}

func TestIsSymmetric(t *testing.T) {
	if !matrixOf(Vector{1, 2}, Vector{2, 1}).IsSymmetric(1e-12) {
		t.Error("symmetric matrix reported asymmetric")
	}
	if NewMatrix(2, 3).IsSymmetric(1e-12) {
		t.Error("non-square reported symmetric")
	}
}
