package strategy

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"freewayml/internal/linalg"
	"freewayml/internal/model"
	"freewayml/internal/shift"
	"freewayml/internal/stream"
	"freewayml/internal/window"
)

// lossLog records the loss of every tensor update of a model.
type lossLog struct {
	model.Model
	losses []float64
}

func (m *lossLog) FitTensor(x *linalg.Tensor, y []int) (float64, error) {
	loss, err := m.Model.FitTensor(x, y)
	m.losses = append(m.losses, loss)
	return loss, err
}

// rowsTrainingSet is the window close's training set as it was built before
// the slab: the row headers of each batch's leading ceil(weight·len) samples,
// oldest batch first.
func rowsTrainingSet(w *window.ASW) ([][]float64, []int) {
	var xs [][]float64
	var ys []int
	for _, e := range w.Entries() {
		n := min(int(math.Ceil(e.Weight*float64(len(e.X)))), len(e.X))
		xs = append(xs, e.X[:n]...)
		ys = append(ys, e.Y[:n]...)
	}
	return xs, ys
}

// TestSlabCloseMatchesRowsClose holds the window close — the window gathered
// into one slab per close, every chunk a row view of it trained through
// FitTensor — to the close it replaced: the window flattened into row headers
// and every chunk a Fit on a [][]float64 slice. The oracle is a twin of the
// ensemble's long path: a window fed the same batches and centroids and a long
// model built from the same seed, closed the old way whenever the ensemble's
// closes. Over a drifting schedule of batches of 17–60 rows, with a window
// that evicts decayed batches, the long weights and every chunk's loss must be
// equal bit for bit after every close.
func TestSlabCloseMatchesRowsClose(t *testing.T) {
	factory, err := model.FactoryFor("mlp", model.DefaultHyper())
	if err != nil {
		t.Fatal(err)
	}
	build := func() model.Model {
		m, err := factory(reuseDim, reuseClasses)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	wcfg := window.DefaultConfig()
	wcfg.MaxBatches, wcfg.MinWeight = 6, 0.6
	cfg := EnsembleConfig{Sigma: 1, LongEpochs: 3, LongChunk: 32}
	asw, err := window.New(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	long := &lossLog{Model: build()}
	e := NewEnsemble(cfg, []*Granularity{NewGranularity(build(), 1, nil)}, long, nil, asw, EnsembleDeps{
		OnRecovery:    func(RecoveryEvent) {},
		BatchNum:      func() int { return 0 },
		ReplaceRadius: func() float64 { return 0 },
	})
	twinWindow, err := window.New(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	twinLong := build()

	rng := rand.New(rand.NewSource(41))
	closes, tails := 0, 0
	for k := 0; k < 60; k++ {
		// The classes drift apart and back; the centroid walks, then jumps
		// about, so the window's disorder and decay vary from close to close.
		b := stream.Batch{X: make([][]float64, 17+rng.Intn(44)), Y: nil}
		for i := range b.X {
			y := rng.Intn(reuseClasses)
			b.X[i] = make([]float64, reuseDim)
			for j := range b.X[i] {
				b.X[i][j] = rng.NormFloat64()
			}
			b.X[i][y] += 2 * math.Sin(float64(k)/7)
			b.Y = append(b.Y, y)
		}
		c := linalg.Vector{float64(k) / 10, 0}
		if k%20 >= 10 {
			c = linalg.Vector{rng.NormFloat64() * 3, rng.NormFloat64() * 3}
		}
		obs := shift.Observation{Pattern: shift.PatternA, YBar: c, Batch: k}
		if err := e.Train(context.Background(), b, obs, nil); err != nil {
			t.Fatal(err)
		}

		full, err := twinWindow.Push(b.X, b.Y, c)
		if err != nil {
			t.Fatal(err)
		}
		if full != (e.WindowLen() == 0) {
			t.Fatalf("batch %d: the twin's window closed = %v, the ensemble's %v", k, full, e.WindowLen() == 0)
		}
		if !full {
			continue
		}
		xs, ys := rowsTrainingSet(twinWindow)
		twinWindow.Reset()
		var want []float64
		for epoch := 0; epoch < cfg.LongEpochs; epoch++ {
			for start := 0; start < len(xs); start += cfg.LongChunk {
				end := min(start+cfg.LongChunk, len(xs))
				loss, err := twinLong.Fit(xs[start:end], ys[start:end])
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, loss)
			}
		}
		closes++
		if len(xs)%cfg.LongChunk != 0 {
			tails++
		}
		if len(long.losses) != len(want) {
			t.Fatalf("close %d: %d chunk updates, the rows close made %d", closes, len(long.losses), len(want))
		}
		for i, l := range want {
			if math.Float64bits(long.losses[i]) != math.Float64bits(l) {
				t.Fatalf("close %d: chunk update %d lost %v, the rows close %v", closes, i, long.losses[i], l)
			}
		}
		long.losses = long.losses[:0]
		sameWeights(t, "long model after a close", long, twinLong)
	}
	if closes < 3 || tails == 0 || twinWindow.Evictions() == 0 {
		t.Fatalf("schedule too tame: %d closes, %d with a chunk tail, %d evictions", closes, tails, twinWindow.Evictions())
	}
	t.Logf("%d closes (%d with a chunk tail), %d decay evictions", closes, tails, twinWindow.Evictions())
}
