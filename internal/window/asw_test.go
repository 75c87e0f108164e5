package window

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"freewayml/internal/linalg"
)

func mkBatch(n int, label int, val float64) ([][]float64, []int) {
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		x[i] = []float64{val, -val}
		y[i] = label
	}
	return x, y
}

func TestConfigValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.MaxBatches = 0 },
		func(c *Config) { c.MaxItems = 0 },
		func(c *Config) { c.BaseDecay = 0 },
		func(c *Config) { c.BaseDecay = 1 },
		func(c *Config) { c.DisorderBoost = -1 },
		func(c *Config) { c.MinWeight = 1 },
		func(c *Config) { c.MinWeight = -0.1 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config passed", i)
		}
	}
	if _, err := New(Config{}); err == nil {
		t.Error("New with zero config should error")
	}
}

func TestPushValidation(t *testing.T) {
	w, _ := New(DefaultConfig())
	if _, err := w.Push(nil, nil, linalg.Vector{0}); err == nil {
		t.Error("empty batch should error")
	}
	x, y := mkBatch(4, 0, 1)
	if _, err := w.Push(x, y[:2], linalg.Vector{0}); err == nil {
		t.Error("label mismatch should error")
	}
	if _, err := w.Push(x, y, nil); err == nil {
		t.Error("nil centroid should error")
	}
}

func TestFullByBatches(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxBatches = 3
	cfg.MaxItems = 1 << 20
	w, _ := New(cfg)
	for i := 0; i < 3; i++ {
		x, y := mkBatch(4, 0, float64(i))
		full, err := w.Push(x, y, linalg.Vector{float64(i), 0})
		if err != nil {
			t.Fatal(err)
		}
		if (i == 2) != full {
			t.Fatalf("push %d full=%v", i, full)
		}
	}
	if !w.Full() || w.Len() != 3 {
		t.Errorf("Len=%d Full=%v", w.Len(), w.Full())
	}
	w.Reset()
	if w.Len() != 0 || w.Items() != 0 || w.Full() {
		t.Error("Reset did not clear window")
	}
}

func TestFullByItems(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxBatches = 100
	cfg.MaxItems = 10
	w, _ := New(cfg)
	x, y := mkBatch(6, 0, 0)
	if full, _ := w.Push(x, y, linalg.Vector{0, 0}); full {
		t.Error("6 items should not fill a 10-item window")
	}
	if full, _ := w.Push(x, y, linalg.Vector{0, 0}); !full {
		t.Error("12 items should fill a 10-item window")
	}
}

func TestDecayWeightsMonotone(t *testing.T) {
	w, _ := New(DefaultConfig())
	x, y := mkBatch(4, 0, 0)
	if _, err := w.Push(x, y, linalg.Vector{0, 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Push(x, y, linalg.Vector{0.1, 0}); err != nil {
		t.Fatal(err)
	}
	entries := w.Entries()
	if len(entries) != 2 {
		t.Fatalf("entries = %d", len(entries))
	}
	if entries[0].Weight >= 1 {
		t.Errorf("old entry not decayed: %v", entries[0].Weight)
	}
	if entries[1].Weight != 1 {
		t.Errorf("new entry weight = %v, want 1", entries[1].Weight)
	}
}

func TestCloserBatchesDecayLess(t *testing.T) {
	// Two stored batches at distance 0.1 and 10 from the incoming batch: the
	// closer one must retain more weight.
	cfg := DefaultConfig()
	cfg.MaxBatches = 100
	w, _ := New(cfg)
	x, y := mkBatch(4, 0, 0)
	if _, err := w.Push(x, y, linalg.Vector{10, 0}); err != nil { // far
		t.Fatal(err)
	}
	if _, err := w.Push(x, y, linalg.Vector{0.1, 0}); err != nil { // near
		t.Fatal(err)
	}
	if _, err := w.Push(x, y, linalg.Vector{0, 0}); err != nil { // incoming
		t.Fatal(err)
	}
	entries := w.Entries()
	var farW, nearW float64
	for _, e := range entries {
		switch e.Centroid[0] {
		case 10:
			farW = e.Weight
		case 0.1:
			nearW = e.Weight
		}
	}
	if farW == 0 || nearW == 0 {
		t.Fatalf("missing entries: %+v", entries)
	}
	if nearW <= farW {
		t.Errorf("near weight %v should exceed far weight %v", nearW, farW)
	}
}

// TestPushDecayMatchesEq11 pins the decay step of Algorithm 1 (Eq. 11) bit for
// bit: each push multiplies every stored batch's weight by
// BaseDecay^((1+rank/n)(1+DisorderBoost·disorder)), where rank is the batch's
// shift-distance rank among the n stored batches (0 = closest) and disorder
// is the inversion count of those ranks read newest-first over its maximum
// n(n-1)/2. The ranks and inversions below are counted by hand from the
// centroids, not by the window.
func TestPushDecayMatchesEq11(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxBatches = 100
	cfg.MinWeight = 0 // nothing is evicted
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pushes := []struct {
		centroid float64
		ranks    []int // distance rank of each stored batch, oldest first
		inv      int   // inversions of ranks read newest-first
	}{
		{0, nil, 0},
		{10, []int{0}, 0},      // d = 10
		{1, []int{0, 1}, 1},    // d = 1, 9; newest-first [1 0]
		{4, []int{1, 2, 0}, 1}, // d = 4, 6, 3; newest-first [0 2 1]
	}
	var want []float64
	x, y := mkBatch(4, 0, 0)
	for k, p := range pushes {
		if _, err := w.Push(x, y, linalg.Vector{p.centroid}); err != nil {
			t.Fatal(err)
		}
		n := len(p.ranks)
		disorder := 0.0
		if n > 1 {
			disorder = float64(p.inv) / float64(n*(n-1)/2)
		}
		for i, r := range p.ranks {
			rank, stored := float64(r), float64(n)
			exponent := (1 + rank/stored) * (1 + cfg.DisorderBoost*disorder)
			want[i] *= math.Pow(cfg.BaseDecay, exponent)
		}
		want = append(want, 1)

		if math.Float64bits(w.Disorder()) != math.Float64bits(disorder) {
			t.Fatalf("push %d: disorder %v, want %v", k, w.Disorder(), disorder)
		}
		entries := w.Entries()
		if len(entries) != len(want) {
			t.Fatalf("push %d: %d batches stored, want %d", k, len(entries), len(want))
		}
		for i, e := range entries {
			if math.Float64bits(e.Weight) != math.Float64bits(want[i]) {
				t.Fatalf("push %d: batch %d weight %v, want %v", k, i, e.Weight, want[i])
			}
		}
	}
}

func TestDisorderLowForDirectionalDrift(t *testing.T) {
	// Batches marching steadily in one direction: the most recent stored
	// batch is always closest to the incoming one, so time order and
	// distance order agree → low disorder.
	cfg := DefaultConfig()
	cfg.MaxBatches = 100
	cfg.MinWeight = 0 // keep everything so the ranking is over all batches
	w, _ := New(cfg)
	x, y := mkBatch(2, 0, 0)
	for i := 0; i < 8; i++ {
		if _, err := w.Push(x, y, linalg.Vector{float64(i), 0}); err != nil {
			t.Fatal(err)
		}
	}
	if d := w.Disorder(); d > 0.2 {
		t.Errorf("directional drift disorder = %v, want near 0", d)
	}
}

func TestDisorderHighForLocalizedStream(t *testing.T) {
	// Batches bouncing around randomly inside a region: the distance ranking
	// bears no relation to time order → high disorder (Pattern A2, Fig. 7).
	cfg := DefaultConfig()
	cfg.MaxBatches = 100
	cfg.MinWeight = 0
	w, _ := New(cfg)
	x, y := mkBatch(2, 0, 0)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 12; i++ {
		c := linalg.Vector{rng.Float64() * 100, rng.Float64() * 100}
		if _, err := w.Push(x, y, c); err != nil {
			t.Fatal(err)
		}
	}
	if d := w.Disorder(); d < 0.3 {
		t.Errorf("localized stream disorder = %v, want high", d)
	}
}

func TestEvictionBelowMinWeight(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxBatches = 1000
	cfg.MaxItems = 1 << 20
	cfg.BaseDecay = 0.5 // aggressive decay
	cfg.MinWeight = 0.2
	w, _ := New(cfg)
	x, y := mkBatch(4, 0, 0)
	for i := 0; i < 20; i++ {
		if _, err := w.Push(x, y, linalg.Vector{float64(i * 10), 0}); err != nil {
			t.Fatal(err)
		}
	}
	if w.Len() >= 20 {
		t.Errorf("no eviction happened: Len=%d", w.Len())
	}
	for _, e := range w.Entries() {
		if e.Weight < cfg.MinWeight {
			t.Errorf("entry below MinWeight survived: %v", e.Weight)
		}
	}
	// Items counter must match surviving entries.
	total := 0
	for _, e := range w.Entries() {
		total += e.X.Rows
	}
	if total != w.Items() {
		t.Errorf("Items()=%d, actual %d", w.Items(), total)
	}
}

func TestTrainingSetWeighting(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxBatches = 100
	w, _ := New(cfg)
	x0, y0 := mkBatch(10, 0, 0)
	x1, y1 := mkBatch(10, 1, 1)
	if _, err := w.Push(x0, y0, linalg.Vector{0, 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Push(x1, y1, linalg.Vector{5, 0}); err != nil {
		t.Fatal(err)
	}
	var xs linalg.Tensor
	ys := w.TrainingSet(&xs, []int{7, 7, 7})
	if xs.Rows != len(ys) || xs.Cols != len(x0[0]) {
		t.Fatalf("gathered %dx%d samples for %d labels", xs.Rows, xs.Cols, len(ys))
	}
	if xs.Rows == 0 || xs.Rows > 20 {
		t.Fatalf("training set size %d", xs.Rows)
	}
	// Oldest batch first, each its leading rows, copied as they were.
	n0 := xs.Rows - 10
	for r := 0; r < xs.Rows; r++ {
		if want := append(x0[:n0:n0], x1...)[r]; !slices.Equal(xs.Row(r), want) {
			t.Fatalf("row %d is %v, want %v", r, xs.Row(r), want)
		}
	}
	// The newer batch has weight 1 → contributes all 10; the older is
	// decayed → contributes fewer or equal.
	count0, count1 := 0, 0
	for _, yv := range ys {
		if yv == 0 {
			count0++
		} else {
			count1++
		}
	}
	if count1 != 10 {
		t.Errorf("new batch contributed %d, want 10", count1)
	}
	if count0 > 10 {
		t.Errorf("old batch contributed %d > 10", count0)
	}
}

func TestTrainingSetEmptyWindow(t *testing.T) {
	w, _ := New(DefaultConfig())
	xs := linalg.NewTensor(3, 2)
	if ys := w.TrainingSet(xs, []int{1}); xs.Rows != 0 || len(ys) != 0 {
		t.Error("empty window should produce empty training set")
	}
	if w.Distribution() != nil {
		t.Error("empty window distribution should be nil")
	}
}

func TestDistributionWeightedCentroid(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxBatches = 100
	w, _ := New(cfg)
	x, y := mkBatch(4, 0, 0)
	if _, err := w.Push(x, y, linalg.Vector{0, 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Push(x, y, linalg.Vector{10, 0}); err != nil {
		t.Fatal(err)
	}
	d := w.Distribution()
	if d == nil {
		t.Fatal("nil distribution")
	}
	// Newest has weight 1, older < 1, so the mean must lean toward 10.
	if d[0] <= 5 || d[0] >= 10 {
		t.Errorf("distribution[0] = %v, want in (5, 10)", d[0])
	}
}

// TestWarmPushAllocs pins the per-batch garbage of a window that has seen a
// close: a push allocates the centroid clone and nothing else — not the
// ranking scratch, not the entries (Reset keeps their array), and a close
// gathers into the caller's tensor and labels.
func TestWarmPushAllocs(t *testing.T) {
	cfg := DefaultConfig()
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	x, y := [][]float64{{1, 2}, {3, 4}}, []int{0, 1}
	c := linalg.Vector{0.5, -0.5}
	var slab linalg.Tensor
	var labels []int
	push := func() {
		full, err := w.Push(x, y, c)
		if err != nil {
			t.Fatal(err)
		}
		if full {
			labels = w.TrainingSet(&slab, labels)
			w.Reset()
		}
	}
	for i := 0; i < 2*cfg.MaxBatches; i++ {
		push()
	}
	if got := testing.AllocsPerRun(20*cfg.MaxBatches, push); got > 1 {
		t.Errorf("warm Push allocates %.0f times per call, want 1", got)
	}
}

// TestDistributionMatchesScaleAddForm pins Distribution bit for bit to the
// form it replaced — each centroid scaled by its weight (Vector.Scale) and
// added in (AddInPlace), oldest first, then the sum scaled by 1/Σweight — on
// decayed windows of 1–12 batches: it keys the knowledge store and becomes the
// long model's centroid.
func TestDistributionMatchesScaleAddForm(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfg := DefaultConfig()
	cfg.MaxBatches = 100
	for trial := 0; trial < 50; trial++ {
		w, _ := New(cfg)
		for i := 0; i <= rng.Intn(12); i++ {
			c := make(linalg.Vector, 5)
			for j := range c {
				c[j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
			}
			x, y := mkBatch(3, 0, 0)
			if _, err := w.Push(x, y, c); err != nil {
				t.Fatal(err)
			}
		}
		want, total := linalg.NewVector(5), 0.0
		for _, e := range w.Entries() {
			want.AddInPlace(e.Centroid.Scale(e.Weight))
			total += e.Weight
		}
		want.ScaleInPlace(1 / total)
		got := w.Distribution()
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("trial %d: element %d = %v, Scale + AddInPlace give %v", trial, j, got[j], want[j])
			}
		}
	}
}

// TestResetReleasesBatches: Reset keeps the entries' array for the next window
// and leaves no batch in it, the decay-evicted ones past its length included.
func TestResetReleasesBatches(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxBatches, cfg.MinWeight = 100, 0.9
	w, _ := New(cfg)
	for i := 0; i < 10; i++ {
		x, y := mkBatch(2, 0, float64(i))
		if _, err := w.Push(x, y, linalg.Vector{float64(i * i), 0}); err != nil {
			t.Fatal(err)
		}
	}
	if w.Evictions() == 0 {
		t.Fatal("no batch was evicted")
	}
	w.Reset()
	all := w.entries[:cap(w.entries)]
	if len(all) == 0 || w.Len() != 0 {
		t.Fatalf("after Reset: %d entries, array of %d", w.Len(), len(all))
	}
	for i, e := range all {
		if e.X != nil || e.Y != nil || e.Centroid != nil {
			t.Fatalf("entry %d still holds its batch after Reset", i)
		}
	}
}
