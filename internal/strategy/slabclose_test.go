package strategy

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"freewayml/internal/linalg"
	"freewayml/internal/model"
	"freewayml/internal/nn"
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
		n := min(int(math.Ceil(e.Weight*float64(e.X.Rows))), e.X.Rows)
		for i := 0; i < n; i++ {
			xs = append(xs, e.X.Row(i))
		}
		ys = append(ys, e.Y[:n]...)
	}
	return xs, ys
}

// TestSlabCloseMatchesRowsClose holds the window close — the window gathered
// into one slab per close, its chunks row views of it trained through
// FitTensor, half in the Train call whose batch filled the window and the rest
// in the next — to the close it replaced: the window flattened into row
// headers and every chunk a Fit on a [][]float64 slice, all inside the closing
// call. The oracle is a twin of the ensemble's long path: a window fed the same
// batches and centroids and a long model built from the same seed, closed the
// old way whenever the ensemble's closes. Over a drifting schedule of batches
// of 17–60 rows, with a window that evicts decayed batches, every chunk's loss
// must be equal bit for bit, in order, after every Train, and the long weights
// after every Train that leaves no close in flight. Pairs of 250-row batches
// fill the window on their own, so some closes begin while the one before is
// in flight: that one must land first.
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
	wcfg.MaxBatches, wcfg.MaxItems, wcfg.MinWeight = 6, 250, 0.6
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
	var want []float64 // the twin's chunk losses, every close in order
	closes, tails, inFlight := 0, 0, 0
	for k := 0; k < 80; k++ {
		// The classes drift apart and back; the centroid walks, then jumps
		// about, so the window's disorder and decay vary from close to close.
		rows := 17 + rng.Intn(44)
		if k%20 == 4 || k%20 == 5 {
			rows = 250
		}
		b := stream.Batch{X: make([][]float64, rows), Y: nil}
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
		wasOpen := e.closing.open
		end := begin(e, b)
		err := e.Train(context.Background(), b.Y, obs, nil)
		end()
		if err != nil {
			t.Fatal(err)
		}

		full, err := twinWindow.Push(b.X, b.Y, c)
		if err != nil {
			t.Fatal(err)
		}
		if full != (e.WindowLen() == 0) {
			t.Fatalf("batch %d: the twin's window closed = %v, the ensemble's %v", k, full, e.WindowLen() == 0)
		}
		held := 0 // the chunks of the twin's close that the ensemble still holds
		if full {
			xs, ys := rowsTrainingSet(twinWindow)
			twinWindow.Reset()
			n := len(want)
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
			held = (len(want) - n) / 2 // ⌈N/2⌉ chunks train now
			closes++
			if len(xs)%cfg.LongChunk != 0 {
				tails++
			}
			if wasOpen {
				inFlight++
			}
		}
		if e.closing.open != (held > 0) {
			t.Fatalf("batch %d: close in flight = %v, want %v", k, e.closing.open, held > 0)
		}
		if len(long.losses) != len(want)-held {
			t.Fatalf("batch %d: %d chunk updates so far, the rows closes made %d and %d are due next", k, len(long.losses), len(want), held)
		}
		for i, l := range long.losses {
			if math.Float64bits(l) != math.Float64bits(want[i]) {
				t.Fatalf("batch %d: chunk update %d lost %v, the rows close %v", k, i, l, want[i])
			}
		}
		if held == 0 {
			sameWeights(t, "long model after a close landed", long, twinLong)
		}
	}
	if closes < 9 || tails == 0 || inFlight == 0 || twinWindow.Evictions() == 0 {
		t.Fatalf("schedule too tame: %d closes, %d with a chunk tail, %d begun in flight, %d evictions", closes, tails, inFlight, twinWindow.Evictions())
	}
	t.Logf("%d closes (%d with a chunk tail, %d begun while one was in flight), %d decay evictions", closes, tails, inFlight, twinWindow.Evictions())
}

// TestDivergedHalfNeverServed: a window whose middle batch is scaled by 1e150
// drives the long model's weights non-finite within the first half of the
// close. The long watchdog must act in that same Train call — one rollback to
// the weights the previous close landed with, before Infer or a published
// snapshot can see the diverged ones — and the rest of the close is dropped:
// the next Train trains no chunk and raises nothing.
func TestDivergedHalfNeverServed(t *testing.T) {
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
	wcfg.MaxBatches = 3
	asw, err := window.New(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	long := &lossLog{Model: build()}
	var events []RecoveryEvent
	e := NewEnsemble(EnsembleConfig{Sigma: 1, LongEpochs: 2, LongChunk: 16},
		[]*Granularity{NewGranularity(build(), 1, nil)}, long, NewWatchdog("long"), asw, EnsembleDeps{
			OnRecovery:    func(ev RecoveryEvent) { events = append(events, ev) },
			BatchNum:      func() int { return 0 },
			ReplaceRadius: func() float64 { return 0 },
		})
	rng := rand.New(rand.NewSource(5))
	train := func(scale float64) {
		t.Helper()
		b, obs := reuseBatch(rng)
		for _, row := range b.X {
			for j := range row {
				row[j] *= scale
			}
		}
		end := begin(e, b)
		err := e.Train(context.Background(), b.Y, obs, nil)
		end()
		if err != nil {
			t.Fatal(err)
		}
	}
	// A healthy close, landed: the watchdog's rollback target. The landing
	// call opens the next window.
	for i := 0; i < 4; i++ {
		train(1)
	}
	if e.closing.open || len(events) != 0 || e.WindowLen() != 1 {
		t.Fatalf("after the healthy close: in flight %v, %d events, window %d", e.closing.open, len(events), e.WindowLen())
	}
	landed := long.Net().AppendFlatParams(nil)
	long.losses = long.losses[:0]

	train(1e150)
	train(1)
	if e.WindowLen() != 0 {
		t.Fatal("the poisoned window did not close")
	}
	if len(events) != 1 || events[0].Model != "long" || !events[0].RolledBack {
		t.Fatalf("events after the first half = %+v, want one long rollback", events)
	}
	if e.closing.open {
		t.Fatal("the diverged close is still in flight")
	}
	if half := ceilDiv(e.slab.Rows, 16); len(long.losses) != half {
		t.Fatalf("the closing call trained %d chunks, want the first half, %d", len(long.losses), half)
	}
	finite := false
	for _, l := range long.losses {
		finite = finite || !(math.IsNaN(l) || math.IsInf(l, 0))
	}
	if !finite {
		t.Fatal("every chunk lost a non-finite value: the window diverged before the close began")
	}
	sameBits := func(when string, got []float64) {
		t.Helper()
		for i, w := range landed {
			if math.Float64bits(got[i]) != math.Float64bits(w) {
				t.Fatalf("%s: weight %d is %v, the landed close left %v", when, i, got[i], w)
			}
		}
	}
	sameBits("live long model", long.Net().AppendFlatParams(nil))

	probe, obs := reuseBatch(rng)
	end := begin(e, probe)
	if _, err := e.Infer(obs.YBar, nil, nil); err != nil {
		t.Fatal(err)
	}
	inferred := e.memberProba(len(e.grans)) // the long member Infer fused
	live := long.Net().PredictProba(probe.X)
	var x linalg.Tensor
	x.FromRows(probe.X, reuseDim)
	var ws nn.Workspace
	members := e.PublishSnapshot()
	published := members[len(members)-1].Model.ProbaInto(&ws, &x)
	for i, v := range inferred.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("Infer's long member answered %v at %d", v, i)
		}
		if w := live[i%x.Rows][i/x.Rows]; math.Float64bits(w) != math.Float64bits(v) {
			t.Fatalf("Infer's long member answers %v at %d, the rolled-back model %v", v, i, w)
		}
		if math.Float64bits(published.Data[i]) != math.Float64bits(v) {
			t.Fatalf("the published long member answers %v at %d, Infer's %v", published.Data[i], i, v)
		}
	}
	end()

	long.losses = long.losses[:0]
	train(1)
	if len(long.losses) != 0 || len(events) != 1 {
		t.Fatalf("the next Train trained %d chunks and raised %d events, want the dropped close to stay dropped", len(long.losses), len(events)-1)
	}
}
