package cluster

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"freewayml/internal/linalg"
)

// slab stages rows as one tensor (nil for no rows), the form the buffer's
// experience and the flat clustering take.
func slab(rows [][]float64) *linalg.Tensor {
	if rows == nil {
		return nil
	}
	var t linalg.Tensor
	t.FromRows(rows, len(rows[0]))
	return &t
}

// blobs generates n points around each of the given centers.
func blobs(rng *rand.Rand, centers [][]float64, n int, spread float64) ([][]float64, []int) {
	var x [][]float64
	var y []int
	for c, center := range centers {
		for i := 0; i < n; i++ {
			p := make([]float64, len(center))
			for j := range p {
				p[j] = center[j] + rng.NormFloat64()*spread
			}
			x = append(x, p)
			y = append(y, c)
		}
	}
	return x, y
}

func TestKMeansErrors(t *testing.T) {
	if _, err := KMeans(nil, 2, 1); err == nil {
		t.Error("empty points should error")
	}
	if _, err := KMeans(slab([][]float64{{1}}), 0, 1); err == nil {
		t.Error("k=0 should error")
	}
	if _, err := KMeans(slab([][]float64{{1}}), 2, 1); err == nil {
		t.Error("fewer points than k should error")
	}
	if _, err := CEC([][]float64{{1}, {1, 2}}, slab([][]float64{{1}}), []int{0}, 1, 1); err == nil {
		t.Error("ragged points should error")
	}
}

func TestKMeansSeparatesBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	centers := [][]float64{{0, 0}, {10, 10}, {-10, 10}}
	x, truth := blobs(rng, centers, 50, 0.5)
	res, err := KMeans(slab(x), 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	// Every true cluster must map to a single k-means cluster (purity 1).
	mapping := map[int]map[int]int{}
	for i, c := range res.Assignment {
		if mapping[truth[i]] == nil {
			mapping[truth[i]] = map[int]int{}
		}
		mapping[truth[i]][c]++
	}
	for tc, dist := range mapping {
		if len(dist) != 1 {
			t.Errorf("true cluster %d split across %v", tc, dist)
		}
	}
	if res.Iterations <= 0 || res.Iterations > maxKMeansIterations {
		t.Errorf("iterations = %d", res.Iterations)
	}
}

func TestKMeansDeterministicForSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x, _ := blobs(rng, [][]float64{{0, 0}, {5, 5}}, 30, 0.5)
	a, err := KMeans(slab(x), 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := KMeans(slab(x), 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assignment {
		if a.Assignment[i] != b.Assignment[i] {
			t.Fatal("same seed produced different assignments")
		}
	}
}

func TestKMeansKEqualsN(t *testing.T) {
	x := [][]float64{{0, 0}, {10, 0}, {0, 10}}
	res, err := KMeans(slab(x), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, c := range res.Assignment {
		seen[c] = true
	}
	if len(seen) != 3 {
		t.Errorf("k=n should give singleton clusters, got %v", res.Assignment)
	}
	if in := res.Inertia(slab(x)); in > 1e-9 {
		t.Errorf("inertia = %v, want 0", in)
	}
}

func TestKMeansIdenticalPoints(t *testing.T) {
	x := [][]float64{{1, 1}, {1, 1}, {1, 1}, {1, 1}}
	res, err := KMeans(slab(x), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if in := res.Inertia(slab(x)); in > 1e-9 {
		t.Errorf("inertia on identical points = %v", in)
	}
}

func TestInertiaDecreasesWithMoreClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, _ := blobs(rng, [][]float64{{0, 0}, {8, 8}, {-8, 8}, {8, -8}}, 40, 1.0)
	var prev float64 = math.Inf(1)
	for _, k := range []int{1, 2, 4} {
		res, err := KMeans(slab(x), k, 5)
		if err != nil {
			t.Fatal(err)
		}
		in := res.Inertia(slab(x))
		if in > prev+1e-9 {
			t.Errorf("inertia increased at k=%d: %v > %v", k, in, prev)
		}
		prev = in
	}
}

func TestCECMapsClustersToLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	centers := [][]float64{{0, 0}, {12, 12}, {-12, 12}}
	// Labeled experience from the same distribution.
	expX, expY := blobs(rng, centers, 10, 0.5)
	// Unlabeled current batch.
	batch, truth := blobs(rng, centers, 40, 0.5)
	pred, err := CEC(batch, slab(expX), expY, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := range truth {
		if pred[i] == truth[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(truth)); acc < 0.95 {
		t.Errorf("CEC accuracy = %v, want >= 0.95", acc)
	}
}

func TestCECErrors(t *testing.T) {
	x := [][]float64{{1, 1}}
	if _, err := CEC(nil, slab(x), []int{0}, 2, 1); err == nil {
		t.Error("empty batch should error")
	}
	if _, err := CEC(x, slab(x), []int{0, 1}, 2, 1); err == nil {
		t.Error("experience mismatch should error")
	}
	if _, err := CEC(x, nil, nil, 2, 1); err == nil {
		t.Error("no experience should error")
	}
	if _, err := CEC(x, slab(x), []int{5}, 2, 1); err == nil {
		t.Error("out-of-range experience label should error")
	}
	if _, err := CEC(x, slab(x), []int{0}, 0, 1); err == nil {
		t.Error("numClasses 0 should error")
	}
}

func TestCECWithMissingClassInExperience(t *testing.T) {
	// Experience only covers class 0; predictions must still be valid labels.
	rng := rand.New(rand.NewSource(5))
	expX, expY := blobs(rng, [][]float64{{0, 0}}, 10, 0.5)
	batch, _ := blobs(rng, [][]float64{{0, 0}, {12, 12}}, 20, 0.5)
	pred, err := CEC(batch, slab(expX), expY, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pred {
		if p < 0 || p >= 2 {
			t.Fatalf("invalid predicted label %d", p)
		}
	}
}

func TestCECMoreClassesThanPoints(t *testing.T) {
	// k is capped at the joint point count.
	batch := [][]float64{{0, 0}}
	expX := [][]float64{{0.1, 0}}
	expY := []int{1}
	pred, err := CEC(batch, slab(expX), expY, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pred) != 1 || pred[0] != 1 {
		t.Errorf("pred = %v, want [1]", pred)
	}
}

func TestExpBufferCapacity(t *testing.T) {
	b, err := NewExpBuffer(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	x := [][]float64{{1}, {2}, {3}}
	y := []int{0, 1, 0}
	if err := b.AddBatch(x, y); err != nil {
		t.Fatal(err)
	}
	if err := b.AddBatch(x, y); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 5 {
		t.Errorf("Len = %d, want capacity 5", b.Len())
	}
	// Newest points survive: last stored value should be 3.
	bx, by := b.Experience()
	if bx.Row(bx.Rows - 1)[0] != 3 || by[len(by)-1] != 0 {
		t.Errorf("unexpected tail: %v %v", bx.Row(bx.Rows-1), by[len(by)-1])
	}
}

func TestExpBufferExpiration(t *testing.T) {
	b, err := NewExpBuffer(100, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddBatch([][]float64{{1}}, []int{0}); err != nil {
		t.Fatal(err)
	}
	b.Tick()
	b.Tick()
	if b.Len() != 0 {
		t.Errorf("expired point survived: Len = %d", b.Len())
	}
}

// TestExpBufferEvictsInPlace replays a mixed schedule (small batches, batches
// larger than the buffer, ticks past the expiration age) against a model of
// the buffer — the newest capacity points no older than maxAge batches — and
// then pins the point of evicting in place: a warm AddBatch at capacity
// allocates nothing, and evicted rows are not pinned by stale headers.
func TestExpBufferEvictsInPlace(t *testing.T) {
	const capacity, maxAge = 8, 3
	b, err := NewExpBuffer(capacity, maxAge)
	if err != nil {
		t.Fatal(err)
	}
	type point struct{ v, birth int }
	var model []point
	now, next := 0, 0
	expire := func() {
		for len(model) > 0 && now-model[0].birth >= maxAge {
			model = model[1:]
		}
		if over := len(model) - capacity; over > 0 {
			model = model[over:]
		}
	}
	for step, n := range []int{3, 3, 3, 0, 20, 1, 0, 0, 0, 2, 8, 9, 5} {
		now++
		if n == 0 {
			b.Tick()
		} else {
			x, y := make([][]float64, n), make([]int, n)
			for i := range x {
				x[i], y[i] = []float64{float64(next)}, next%3
				model = append(model, point{next, now})
				next++
			}
			if err := b.AddBatch(x, y); err != nil {
				t.Fatal(err)
			}
		}
		expire()
		bx, by := b.Experience()
		if bx.Rows != len(model) || len(by) != len(model) || b.Len() != len(model) {
			t.Fatalf("step %d: %d points, want %d", step, bx.Rows, len(model))
		}
		for i, p := range model {
			if bx.Row(i)[0] != float64(p.v) || by[i] != p.v%3 {
				t.Fatalf("step %d: point %d = (%v, %d), want (%d, %d)", step, i, bx.Row(i), by[i], p.v, p.v%3)
			}
		}
		if st := b.Export(); len(st.Birth) != len(model) || (len(model) > 0 && st.Birth[0] != model[0].birth) || st.Now != now {
			t.Fatalf("step %d: exported births %v at %d, want first %v at %d", step, st.Birth, st.Now, model, now)
		}
		if len(bx.Data) != bx.Rows*bx.Cols || cap(bx.Data) != len(bx.Data) {
			t.Fatalf("step %d: the experience view reaches %d values past its %d points", step, cap(bx.Data)-bx.Rows*bx.Cols, bx.Rows)
		}
	}

	x, y := [][]float64{{1}, {2}, {3}}, []int{0, 1, 2}
	add := func() {
		if err := b.AddBatch(x, y); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2*capacity; i++ {
		add()
	}
	if allocs := testing.AllocsPerRun(100, add); allocs != 0 {
		t.Errorf("a warm AddBatch at capacity allocates %.0f times, want 0", allocs)
	}
}

func TestExpBufferValidation(t *testing.T) {
	if _, err := NewExpBuffer(0, 0); err == nil {
		t.Error("capacity 0 should error")
	}
	if _, err := NewExpBuffer(1, -1); err == nil {
		t.Error("negative maxAge should error")
	}
	b, _ := NewExpBuffer(2, 0)
	if err := b.AddBatch([][]float64{{1}}, []int{0, 1}); err == nil {
		t.Error("size mismatch should error")
	}
	// A refused import leaves the buffer as it was.
	if err := b.AddBatch([][]float64{{1}}, []int{1}); err != nil {
		t.Fatal(err)
	}
	for _, s := range []ExpBufferState{
		{X: [][]float64{{2}}, Y: []int{0, 1}, Birth: []int{1}},
		{X: [][]float64{{2}, {3, 4}}, Y: []int{0, 1}, Birth: []int{1, 1}},
	} {
		if err := b.Import(s); err == nil {
			t.Errorf("import of %+v should error", s)
		}
		if x, y := b.Experience(); len(y) != 1 || y[0] != 1 || x.Row(0)[0] != 1 {
			t.Fatalf("after a refused import the buffer holds %v %v, want [[1]] [1]", x, y)
		}
	}
}

// TestClusterLabelsInheritFromVotedClusters pins the majority-vote mapping
// of CEC (paper Sec. IV-C): each cluster takes the most frequent label among
// its labelled experience members, and a cluster with none inherits the
// label of the nearest centroid the vote labelled. Ties break
// deterministically, as clusterLabels' doc says: a tied vote goes to the
// lowest label, a tied distance to the lowest cluster index.
func TestClusterLabelsInheritFromVotedClusters(t *testing.T) {
	for _, tc := range []struct {
		name       string
		centroids  [][]float64
		expAssign  []int
		expY       []int
		numClasses int
		want       []int
	}{{
		// Clusters at −10 (voted 0) and +10 (voted 1), then unlabelled ones
		// at −1 and +1 in that order: +1 is nearer +10 than −10, so it gets
		// 1 — not the 0 that −1 has just inherited, though −1 is nearer
		// still.
		name:       "nearest voted centroid",
		centroids:  [][]float64{{-10}, {10}, {-1}, {1}},
		expAssign:  []int{0, 1, 0},
		expY:       []int{0, 1, 0},
		numClasses: 2,
		want:       []int{0, 1, 0, 1},
	}, {
		// Cluster 0's labelled members split 2–2 between labels 2 and 1,
		// label 2 seen first: the vote goes to 1, the lowest tied label.
		name:       "tied vote takes the lowest label",
		centroids:  [][]float64{{0}, {5}},
		expAssign:  []int{0, 0, 0, 0, 1},
		expY:       []int{2, 1, 2, 1, 0},
		numClasses: 3,
		want:       []int{1, 0},
	}, {
		// The unlabelled cluster at 0 is 3 from both −3 (voted 2) and +3
		// (voted 1): it inherits from cluster 0, the lower index, even
		// though that carries the higher label.
		name:       "tied distance takes the lower cluster index",
		centroids:  [][]float64{{-3}, {3}, {0}},
		expAssign:  []int{0, 1},
		expY:       []int{2, 1},
		numClasses: 3,
		want:       []int{2, 1, 2},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			got := clusterLabels(tc.centroids, tc.expAssign, tc.expY, tc.numClasses)
			if !slices.Equal(got, tc.want) {
				t.Fatalf("labels = %v, want %v", got, tc.want)
			}
		})
	}
}
