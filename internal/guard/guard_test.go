package guard

import (
	"errors"
	"math"
	"testing"

	"freewayml/internal/linalg"
)

func dirtyBatch() [][]float64 {
	return [][]float64{
		{1, 2, 3},
		{math.NaN(), 5, math.Inf(1)},
		{7, math.Inf(-1), 9},
	}
}

// staged returns the rows as one slab, as the learner stages a batch.
func staged(x [][]float64) *linalg.Tensor {
	t := new(linalg.Tensor)
	t.FromRows(x, len(x[0]))
	return t
}

func TestRejectCountsAndRefuses(t *testing.T) {
	g := New(Reject, 3)
	x := staged(dirtyBatch())
	rep, err := g.Sanitize(x, false)
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
	if rep.NaNs != 1 || rep.Infs != 2 || rep.Rows != 2 {
		t.Errorf("report = %+v", rep)
	}
	if !math.IsNaN(x.At(1, 0)) || !math.IsInf(x.At(1, 2), 1) || !math.IsInf(x.At(2, 1), -1) {
		t.Error("a rejected batch was repaired")
	}
	// Clean batches pass untouched.
	clean := staged([][]float64{{1, 2, 3}})
	rep, err = g.Sanitize(clean, false)
	if err != nil || rep.Total() != 0 {
		t.Fatalf("clean batch: %v %+v", err, rep)
	}
	if clean.Rows != 1 || clean.At(0, 0) != 1 || clean.At(0, 2) != 3 {
		t.Fatal("clean batch mangled")
	}
}

// TestClampRepairsWithoutMutatingInput: Clamp repairs the staged slab in
// place and leaves the caller's rows, which were only copied into it, as they
// arrived.
func TestClampRepairsWithoutMutatingInput(t *testing.T) {
	g := New(Clamp, 3)
	in := dirtyBatch()
	x := staged(in)
	rep, err := g.Sanitize(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total() != 3 {
		t.Errorf("report = %+v", rep)
	}
	if !math.IsNaN(in[1][0]) || !math.IsInf(in[1][2], 1) {
		t.Error("caller's batch was mutated")
	}
	if x.At(1, 0) != 0 {
		t.Errorf("NaN clamped to %v, want 0", x.At(1, 0))
	}
	if x.At(1, 2) != DefaultClampLimit || x.At(2, 1) != -DefaultClampLimit {
		t.Errorf("Inf clamped to %v / %v", x.At(1, 2), x.At(2, 1))
	}
	if !Finite(x.Data) {
		t.Fatal("non-finite value survived clamp")
	}
	for i, row := range in {
		for j, v := range row {
			if v-v == 0 && x.At(i, j) != v {
				t.Errorf("finite value (%d, %d) became %v", i, j, x.At(i, j))
			}
		}
	}
}

func TestImputeUsesRunningMeans(t *testing.T) {
	g := New(Impute, 2)
	// Seed the means with two clean batches: feature 0 mean 2, feature 1 mean 10.
	for i := 0; i < 2; i++ {
		if _, err := g.Sanitize(staged([][]float64{{1, 10}, {3, 10}}), false); err != nil {
			t.Fatal(err)
		}
	}
	x := staged([][]float64{{math.NaN(), math.Inf(1)}})
	rep, err := g.Sanitize(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total() != 2 {
		t.Errorf("report = %+v", rep)
	}
	if x.At(0, 0) != 2 || x.At(0, 1) != 10 {
		t.Errorf("imputed %v, want [2 10]", x.Data)
	}
	// Imputed values must not drift the running means.
	means := g.FeatureMeans()
	if means[0] != 2 || means[1] != 10 {
		t.Errorf("means polluted by imputed values: %v", means)
	}
}

// TestImputeDrawsOnPriorMeans: a repair takes the means as they stood before
// the batch, while the batch's own finite values — the ones that arrived
// finite, not the repaired ones — move them afterwards.
func TestImputeDrawsOnPriorMeans(t *testing.T) {
	g := New(Impute, 2)
	if _, err := g.Sanitize(staged([][]float64{{4, 1}}), false); err != nil {
		t.Fatal(err)
	}
	x := staged([][]float64{{8, math.NaN()}, {math.NaN(), 3}})
	if _, err := g.Sanitize(x, false); err != nil {
		t.Fatal(err)
	}
	if x.At(1, 0) != 4 || x.At(0, 1) != 1 {
		t.Errorf("repaired %v, want the prior means 4 and 1", x.Data)
	}
	if means := g.FeatureMeans(); means[0] != 6 || means[1] != 2 {
		t.Errorf("means %v, want [6 2]", means)
	}
}

func TestImputeBeforeAnyFiniteValueFallsBackToZero(t *testing.T) {
	g := New(Impute, 1)
	x := staged([][]float64{{math.NaN()}})
	if _, err := g.Sanitize(x, false); err != nil {
		t.Fatal(err)
	}
	if x.At(0, 0) != 0 {
		t.Errorf("cold impute = %v, want 0", x.At(0, 0))
	}
}

// TestMeansOnlyUnderImpute: Reject and Clamp never read the running means,
// so they do not keep them — FeatureMeans stays zero however many clean
// batches pass — while Impute's have moved.
func TestMeansOnlyUnderImpute(t *testing.T) {
	clean := [][]float64{{1, 10}, {3, 10}}
	for _, p := range []Policy{Reject, Clamp, Impute} {
		g := New(p, 2)
		for i := 0; i < 3; i++ {
			if _, err := g.Sanitize(staged(clean), false); err != nil {
				t.Fatal(err)
			}
		}
		means := g.FeatureMeans()
		if moved := means[0] != 0 || means[1] != 0; moved != (p == Impute) {
			t.Errorf("%v: FeatureMeans %v after clean batches", p, means)
		}
	}
}

func TestParsePolicy(t *testing.T) {
	cases := map[string]Policy{"": Reject, "reject": Reject, "clamp": Clamp, "impute": Impute}
	for s, want := range cases {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v", s, got, err)
		}
	}
	for _, bad := range []string{"bogus", "off"} {
		if _, err := ParsePolicy(bad); err == nil {
			t.Errorf("policy %q accepted", bad)
		}
	}
}

// TestFinite: every non-finite bit pattern fails the scan wherever it sits,
// and every finite one passes, signed zeros and subnormals included.
func TestFinite(t *testing.T) {
	finite := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, math.MaxFloat64, -math.MaxFloat64, 1}
	if !Finite(finite) || !Finite(nil) {
		t.Fatalf("Finite(%v) = false", finite)
	}
	for _, bad := range []float64{math.NaN(), -math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Inf(1), math.Inf(-1)} {
		for at := range finite {
			xs := append([]float64(nil), finite...)
			xs[at] = bad
			if Finite(xs) {
				t.Errorf("Finite passes %v at %d", bad, at)
			}
		}
	}
}

// TestKnownFiniteIsNotScanned: a slab known finite — one the learner's Infer
// already scanned — leaves what a scan of it leaves under every policy: the
// slab as it was, an all-zero report and, under Impute, the same running
// means. Told it is finite, Sanitize does not look: a non-finite value passes.
func TestKnownFiniteIsNotScanned(t *testing.T) {
	clean := [][]float64{{1, 10, -3}, {3, 10, 0.5}}
	for _, p := range []Policy{Reject, Clamp, Impute} {
		scanned, known := New(p, 3), New(p, 3)
		for i := 0; i < 2; i++ {
			a, b := staged(clean), staged(clean)
			repA, errA := scanned.Sanitize(a, false)
			repB, errB := known.Sanitize(b, true)
			if repA != repB || repB.Total() != 0 || errA != nil || errB != nil {
				t.Fatalf("%v: reports %+v and %+v, errors %v and %v", p, repA, repB, errA, errB)
			}
			for j := range a.Data {
				if math.Float64bits(a.Data[j]) != math.Float64bits(b.Data[j]) || a.Data[j] != staged(clean).Data[j] {
					t.Fatalf("%v: value %d is %v and %v", p, j, a.Data[j], b.Data[j])
				}
			}
			ma, mb := scanned.FeatureMeans(), known.FeatureMeans()
			for j := range ma {
				if math.Float64bits(ma[j]) != math.Float64bits(mb[j]) {
					t.Fatalf("%v: running mean %d is %v and %v", p, j, ma[j], mb[j])
				}
			}
		}
		if rep, err := known.Sanitize(staged(dirtyBatch()), true); err != nil || rep.Total() != 0 {
			t.Errorf("%v: a slab known finite was scanned: %+v, %v", p, rep, err)
		}
	}
}
