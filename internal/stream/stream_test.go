package stream

import "testing"

func TestDriftKindString(t *testing.T) {
	cases := map[DriftKind]string{
		KindNone:        "none",
		KindSlight:      "slight",
		KindSudden:      "sudden",
		KindReoccurring: "reoccurring",
		DriftKind(42):   "unknown",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

func TestBatchValidate(t *testing.T) {
	good := Batch{X: [][]float64{{1, 2}, {3, 4}}, Y: []int{0, 1}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid batch rejected: %v", err)
	}
	if !good.Labeled() {
		t.Error("labeled batch reported unlabeled")
	}
	unlabeled := Batch{X: [][]float64{{1, 2}}}
	if err := unlabeled.Validate(); err != nil {
		t.Errorf("unlabeled batch rejected: %v", err)
	}
	if unlabeled.Labeled() {
		t.Error("unlabeled batch reported labeled")
	}
	bad := []Batch{
		{},
		{X: [][]float64{{1}}, Y: []int{0, 1}},
		{X: [][]float64{{1}, {1, 2}}},
		{X: [][]float64{{1}}, Y: []int{-1}},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("case %d: invalid batch passed", i)
		}
	}
}

func TestBatchValidateShape(t *testing.T) {
	good := Batch{X: [][]float64{{1, 2}, {3, 4}}, Y: []int{0, 1}}
	if err := good.ValidateShape(2, 2); err != nil {
		t.Errorf("valid batch rejected: %v", err)
	}
	if err := good.ValidateShape(3, 2); err == nil {
		t.Error("wrong width passed")
	}
	if err := good.ValidateShape(2, 1); err == nil {
		t.Error("out-of-range label passed")
	}
	ragged := Batch{X: [][]float64{{1, 2}, {3}}}
	if err := ragged.ValidateShape(2, 2); err == nil {
		t.Error("ragged batch passed ValidateShape")
	}
}

type fakeSource struct {
	n, emitted int
}

func (f *fakeSource) Name() string { return "fake" }
func (f *fakeSource) Dim() int     { return 1 }
func (f *fakeSource) Classes() int { return 2 }
func (f *fakeSource) Next() (Batch, bool) {
	if f.emitted >= f.n {
		return Batch{}, false
	}
	f.emitted++
	return Batch{Seq: f.emitted - 1, X: [][]float64{{1}}, Y: []int{0}}, true
}

func TestCollect(t *testing.T) {
	if got := Collect(&fakeSource{n: 5}, 3); len(got) != 3 {
		t.Errorf("Collect(max=3) = %d batches", len(got))
	}
	if got := Collect(&fakeSource{n: 5}, 0); len(got) != 5 {
		t.Errorf("Collect(max=0) = %d batches", len(got))
	}
	if got := Collect(&fakeSource{n: 2}, 10); len(got) != 2 {
		t.Errorf("Collect beyond end = %d batches", len(got))
	}
}
