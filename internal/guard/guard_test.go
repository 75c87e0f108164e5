package guard

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

func dirtyBatch() [][]float64 {
	return [][]float64{
		{1, 2, 3},
		{math.NaN(), 5, math.Inf(1)},
		{7, math.Inf(-1), 9},
	}
}

func TestOffPassesThrough(t *testing.T) {
	g := New(Off, 3)
	in := dirtyBatch()
	out, rep, err := g.Sanitize(in)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total() != 0 {
		t.Errorf("off policy counted faults: %+v", rep)
	}
	if &out[1][0] != &in[1][0] {
		t.Error("off policy copied data")
	}
}

func TestRejectCountsAndRefuses(t *testing.T) {
	g := New(Reject, 3)
	_, rep, err := g.Sanitize(dirtyBatch())
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
	if rep.NaNs != 1 || rep.Infs != 2 || rep.Rows != 2 {
		t.Errorf("report = %+v", rep)
	}
	// Clean batches pass and feed the running means.
	out, rep, err := g.Sanitize([][]float64{{1, 2, 3}})
	if err != nil || rep.Total() != 0 {
		t.Fatalf("clean batch: %v %+v", err, rep)
	}
	if len(out) != 1 {
		t.Fatal("clean batch mangled")
	}
}

func TestClampRepairsWithoutMutatingInput(t *testing.T) {
	g := New(Clamp, 3)
	in := dirtyBatch()
	out, rep, err := g.Sanitize(in)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total() != 3 {
		t.Errorf("report = %+v", rep)
	}
	if !math.IsNaN(in[1][0]) || !math.IsInf(in[1][2], 1) {
		t.Error("caller's batch was mutated")
	}
	if out[1][0] != 0 {
		t.Errorf("NaN clamped to %v, want 0", out[1][0])
	}
	if out[1][2] != DefaultClampLimit || out[2][1] != -DefaultClampLimit {
		t.Errorf("Inf clamped to %v / %v", out[1][2], out[2][1])
	}
	// Untouched rows are shared, repaired rows are private.
	if &out[0][0] != &in[0][0] {
		t.Error("clean row was copied")
	}
	for _, row := range out {
		for _, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatal("non-finite value survived clamp")
			}
		}
	}
}

func TestImputeUsesRunningMeans(t *testing.T) {
	g := New(Impute, 2)
	// Seed the means with two clean batches: feature 0 mean 2, feature 1 mean 10.
	for i := 0; i < 2; i++ {
		if _, _, err := g.Sanitize([][]float64{{1, 10}, {3, 10}}); err != nil {
			t.Fatal(err)
		}
	}
	out, rep, err := g.Sanitize([][]float64{{math.NaN(), math.Inf(1)}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total() != 2 {
		t.Errorf("report = %+v", rep)
	}
	if out[0][0] != 2 || out[0][1] != 10 {
		t.Errorf("imputed %v, want [2 10]", out[0])
	}
	// Imputed values must not drift the running means.
	means := g.FeatureMeans()
	if means[0] != 2 || means[1] != 10 {
		t.Errorf("means polluted by imputed values: %v", means)
	}
}

func TestImputeBeforeAnyFiniteValueFallsBackToZero(t *testing.T) {
	g := New(Impute, 1)
	out, _, err := g.Sanitize([][]float64{{math.NaN()}})
	if err != nil {
		t.Fatal(err)
	}
	if out[0][0] != 0 {
		t.Errorf("cold impute = %v, want 0", out[0][0])
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
			if _, _, err := g.Sanitize(clean); err != nil {
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
	cases := map[string]Policy{"": Reject, "reject": Reject, "clamp": Clamp, "impute": Impute, "off": Off}
	for s, want := range cases {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("bogus policy accepted")
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

// TestSanitizeStagedIsSanitize: under every policy, SanitizeStaged over a
// batch and its slab returns what Sanitize returns — the same rows, report and
// error — and leaves the same running means, whether the batch is clean,
// clean and already known finite, or dirty. A clean batch comes back as the
// caller's own rows.
func TestSanitizeStagedIsSanitize(t *testing.T) {
	clean := [][]float64{{1, 10, -3}, {3, 10, 0.5}}
	slab := func(x [][]float64) []float64 {
		var s []float64
		for _, row := range x {
			s = append(s, row...)
		}
		return s
	}
	for _, p := range []Policy{Off, Reject, Clamp, Impute} {
		for _, c := range []struct {
			name   string
			x      [][]float64
			finite bool
		}{{"clean", clean, false}, {"known finite", clean, true}, {"dirty", dirtyBatch(), false}} {
			ref, g := New(p, 3), New(p, 3)
			for i := 0; i < 2; i++ { // a second batch imputes from the first's means
				want, wantRep, wantErr := ref.Sanitize(c.x)
				got, rep, err := g.SanitizeStaged(c.x, slab(c.x), c.finite)
				if rep != wantRep || fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("%v %s: report %+v, error %v; Sanitize %+v, %v", p, c.name, rep, err, wantRep, wantErr)
				}
				for r := range want {
					for j := range want[r] {
						if math.Float64bits(got[r][j]) != math.Float64bits(want[r][j]) {
							t.Fatalf("%v %s: row %d feature %d is %v, Sanitize's %v", p, c.name, r, j, got[r][j], want[r][j])
						}
					}
				}
				if rep.Total() == 0 && &got[0][0] != &c.x[0][0] {
					t.Errorf("%v %s: a clean batch was copied", p, c.name)
				}
				wm, gm := ref.FeatureMeans(), g.FeatureMeans()
				for j := range wm {
					if math.Float64bits(gm[j]) != math.Float64bits(wm[j]) {
						t.Fatalf("%v %s: running mean %d is %v, Sanitize's %v", p, c.name, j, gm[j], wm[j])
					}
				}
			}
		}
	}
}
