package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestWeightedMean(t *testing.T) {
	m, err := WeightedMean([]float64{1, 3}, []float64{3, 1})
	if err != nil || math.Abs(m-1.5) > 1e-12 {
		t.Fatalf("WeightedMean = %v, %v", m, err)
	}
	if _, err := WeightedMean(nil, nil); err != ErrEmpty {
		t.Errorf("empty err = %v", err)
	}
	if _, err := WeightedMean([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := WeightedMean([]float64{1}, []float64{0}); err == nil {
		t.Error("zero weight sum should error")
	}
}

func TestWeightedMeanUniformEqualsMean(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ws := []float64{1, 1, 1, 1}
	wm, _ := WeightedMean(xs, ws)
	if m := 2.5; math.Abs(wm-m) > 1e-12 {
		t.Errorf("uniform WeightedMean %v != mean %v", wm, m)
	}
}

func TestStdDevAround(t *testing.T) {
	s, err := StdDevAround([]float64{1, 3}, 2)
	if err != nil || math.Abs(s-1) > 1e-12 {
		t.Fatalf("StdDevAround = %v, %v", s, err)
	}
	if _, err := StdDevAround(nil, 0); err != ErrEmpty {
		t.Errorf("empty err = %v", err)
	}
}

func TestZScore(t *testing.T) {
	if z := ZScore(3, 1, 1); z != 2 {
		t.Errorf("ZScore = %v", z)
	}
	if z := ZScore(5, 1, 0); !math.IsInf(z, 1) {
		t.Errorf("ZScore with σ=0, x>μ = %v, want +Inf", z)
	}
	if z := ZScore(-5, 1, 0); !math.IsInf(z, -1) {
		t.Errorf("ZScore with σ=0, x<μ = %v, want -Inf", z)
	}
	if z := ZScore(1, 1, 0); z != 0 {
		t.Errorf("ZScore with σ=0, x=μ = %v, want 0", z)
	}
}

func TestRecencyWeights(t *testing.T) {
	ws := RecencyWeights(3, 0.5)
	want := []float64{1, 0.5, 0.25}
	for i := range want {
		if math.Abs(ws[i]-want[i]) > 1e-12 {
			t.Errorf("ws[%d] = %v, want %v", i, ws[i], want[i])
		}
	}
	if RecencyWeights(0, 0.5) != nil {
		t.Error("k=0 should return nil")
	}
	defer func() {
		if recover() == nil {
			t.Error("decay > 1 should panic")
		}
	}()
	RecencyWeights(3, 1.5)
}

func TestInversionsKnownCases(t *testing.T) {
	cases := []struct {
		ranks []int
		want  int
	}{
		{nil, 0},
		{[]int{1}, 0},
		{[]int{1, 2, 3}, 0},
		{[]int{3, 2, 1}, 3},
		{[]int{2, 1, 3}, 1},
		{[]int{1, 3, 2, 4}, 1},
		{[]int{4, 3, 2, 1}, 6},
	}
	for _, c := range cases {
		if got := Inversions(c.ranks); got != c.want {
			t.Errorf("Inversions(%v) = %d, want %d", c.ranks, got, c.want)
		}
	}
}

// Property: merge-count inversions match the O(n²) brute force.
func TestInversionsMatchesBruteForceProperty(t *testing.T) {
	f := func(xs []int8) bool {
		ranks := make([]int, len(xs))
		for i, x := range xs {
			ranks[i] = int(x)
		}
		brute := 0
		for i := 0; i < len(ranks); i++ {
			for j := i + 1; j < len(ranks); j++ {
				if ranks[i] > ranks[j] {
					brute++
				}
			}
		}
		return Inversions(ranks) == brute
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Inversions does not mutate its input.
func TestInversionsDoesNotMutate(t *testing.T) {
	ranks := []int{5, 3, 4, 1, 2}
	orig := append([]int(nil), ranks...)
	Inversions(ranks)
	for i := range ranks {
		if ranks[i] != orig[i] {
			t.Fatal("Inversions mutated its input")
		}
	}
}

func TestNormalizedDisorderBounds(t *testing.T) {
	if d := NormalizedDisorder([]int{1, 2, 3, 4}); d != 0 {
		t.Errorf("sorted disorder = %v", d)
	}
	if d := NormalizedDisorder([]int{4, 3, 2, 1}); d != 1 {
		t.Errorf("reversed disorder = %v", d)
	}
	if d := NormalizedDisorder([]int{7}); d != 0 {
		t.Errorf("singleton disorder = %v", d)
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(30)
		ranks := rng.Perm(n)
		d := NormalizedDisorder(ranks)
		if d < 0 || d > 1 {
			t.Fatalf("disorder %v out of [0,1] for %v", d, ranks)
		}
	}
}

func TestSlidingWindowOrdering(t *testing.T) {
	w := NewSlidingWindow(3)
	for _, x := range []float64{1, 2, 3, 4, 5} {
		w.Push(x)
	}
	if w.Len() != 3 || w.Cap() != 3 {
		t.Fatalf("Len=%d Cap=%d", w.Len(), w.Cap())
	}
	nf := w.NewestFirst()
	if nf[0] != 5 || nf[1] != 4 || nf[2] != 3 {
		t.Errorf("NewestFirst = %v", nf)
	}
	of := w.OldestFirst()
	if of[0] != 3 || of[1] != 4 || of[2] != 5 {
		t.Errorf("OldestFirst = %v", of)
	}
	w.Reset()
	if w.Len() != 0 {
		t.Error("Reset did not clear")
	}
}

func TestSlidingWindowPartialFill(t *testing.T) {
	w := NewSlidingWindow(5)
	w.Push(1)
	w.Push(2)
	nf := w.NewestFirst()
	if len(nf) != 2 || nf[0] != 2 || nf[1] != 1 {
		t.Errorf("NewestFirst = %v", nf)
	}
}

func TestSlidingWindowPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSlidingWindow(0)
}

// Property: NewestFirst is the reverse of OldestFirst.
func TestSlidingWindowReverseProperty(t *testing.T) {
	f := func(xs []float64, capSeed uint8) bool {
		capacity := int(capSeed%10) + 1
		w := NewSlidingWindow(capacity)
		for _, x := range xs {
			w.Push(x)
		}
		nf := w.NewestFirst()
		of := w.OldestFirst()
		if len(nf) != len(of) {
			return false
		}
		rev := append([]float64(nil), of...)
		sort.SliceStable(rev, func(i, j int) bool { return false }) // keep order; manual reverse below
		for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
			rev[i], rev[j] = rev[j], rev[i]
		}
		for i := range nf {
			if nf[i] != rev[i] && !(math.IsNaN(nf[i]) && math.IsNaN(rev[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
