package cluster

import (
	"math/rand"
	"testing"
)

func TestCECKWithScoreHighAgreementOnSeparableData(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	centers := [][]float64{{0, 0}, {15, 15}}
	expX, expY := blobs(rng, centers, 12, 0.5)
	batch, _ := blobs(rng, centers, 30, 0.5)
	_, st, err := CECJoint(slab(append(batch, expX...)), len(batch), expY, 4, 2, 5)
	agreement := st.Agreement
	if err != nil {
		t.Fatal(err)
	}
	if agreement < 0.95 {
		t.Errorf("agreement on separable data = %v", agreement)
	}
}

func TestCECKWithScoreLowAgreementWhenClustersCutClasses(t *testing.T) {
	// One isotropic blob whose labels are decided by a hyperplane through
	// its center: clusters cannot align with classes.
	rng := rand.New(rand.NewSource(22))
	mk := func(n int) ([][]float64, []int) {
		x := make([][]float64, n)
		y := make([]int, n)
		for i := range x {
			x[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
			if x[i][0]+x[i][1] > 0 {
				y[i] = 1
			}
		}
		return x, y
	}
	expX, expY := mk(40)
	batch, _ := mk(60)
	_, st, err := CECJoint(slab(append(batch, expX...)), len(batch), expY, 2, 2, 5)
	agreement := st.Agreement
	if err != nil {
		t.Fatal(err)
	}
	if agreement > 0.9 {
		t.Errorf("agreement on class-cutting blob = %v, expected low", agreement)
	}
}

func TestCECKRejectsKBelowClasses(t *testing.T) {
	if _, _, err := CECJoint(slab([][]float64{{1}, {1}}), 1, []int{0}, 1, 2, 1); err == nil {
		t.Error("k < numClasses should error")
	}
}
