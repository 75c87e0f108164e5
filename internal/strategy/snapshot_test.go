package strategy

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"freewayml/internal/knowledge"
	"freewayml/internal/linalg"
	"freewayml/internal/model"
	"freewayml/internal/nn"
	"freewayml/internal/pca"
)

// stubModel is a frozen member that answers from a fixed table (row i of the
// batch gets rows[i], class-major as every member answers) and counts its
// calls.
type stubModel struct {
	rows  [][]float64
	calls int
}

func (m *stubModel) ProbaInto(ws *nn.Workspace, x *linalg.Tensor) *linalg.Tensor {
	m.calls++
	out := ws.Tensor(len(m.rows[0]), x.Rows)
	for i, row := range m.rows[:x.Rows] {
		for c, v := range row {
			out.Set(c, i, v)
		}
	}
	return out
}

// snapshotFixture builds a two-member snapshot over a fitted 3→2 projection
// and a two-row query batch, and returns ȳ, the projection of the batch mean
// (Eq. 6) — centroids are placed relative to it so every model shift
// distance Dᵢ (Eq. 12/13) is known by construction.
func snapshotFixture(t *testing.T) (s *Snapshot, short, long *stubModel, x [][]float64, ybar linalg.Vector) {
	t.Helper()
	proj, err := pca.Fit([]linalg.Vector{
		{1, 0, 0}, {-1, 0, 0}, {0, 2, 0}, {0, -2, 0}, {0, 0, 0.5}, {0, 0, -0.5},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	x = [][]float64{{0.5, 1, 0}, {1.5, 3, 0}}
	ybar, err = proj.ProjectMean(linalg.Vector{1, 2, 0})
	if err != nil {
		t.Fatal(err)
	}
	short = &stubModel{rows: [][]float64{{0.9, 0.1}, {0.6, 0.4}}}
	long = &stubModel{rows: [][]float64{{0.2, 0.8}, {0.3, 0.7}}}
	s = &Snapshot{
		Members: []SnapshotMember{{Model: short}, {Model: long}},
		Sigma:   0.8,
		Proj:    proj,
		Dim:     3,
		Classes: 2,
	}
	return s, short, long, x, ybar
}

func offset(v linalg.Vector, d0, d1 float64) linalg.Vector {
	return linalg.Vector{v[0] + d0, v[1] + d1}
}

func closeTo(a, b float64) bool { return math.Abs(a-b) <= 1e-12 }

// stage returns a fresh workspace with x staged, dim wide, for InferInto.
func stage(x [][]float64, dim int) *nn.Workspace {
	ws := new(nn.Workspace)
	ws.Stage(x, dim)
	return ws
}

// TestInferBatchFusesPerEq12To14: member i's weight is K(Dᵢ,σ)/ΣK with
// K(D,σ) = exp(−D²/(2σ²)) (Eq. 14) and Dᵢ the distance from ȳ to the
// member's training centroid (Eq. 12/13), rescaled by the members' mean
// distance so σ is scale-free; the answer is the weighted sum of the
// members' probability rows.
func TestInferBatchFusesPerEq12To14(t *testing.T) {
	s, short, long, x, ybar := snapshotFixture(t)
	s.Members[0].Centroid = offset(ybar, 1, 0) // D_short = 1
	s.Members[1].Centroid = offset(ybar, 0, 3) // D_long  = 3
	store, err := knowledge.NewStore(4, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Preserve(offset(ybar, 0, -2), []byte("concept"), "test", 1); err != nil {
		t.Fatal(err)
	}
	s.Knowledge = store

	out, err := s.InferInto(stage(x, s.Dim))
	if err != nil {
		t.Fatal(err)
	}

	// Mean distance 2 → normalized D = (0.5, 1.5); σ = 0.8.
	k0 := math.Exp(-(0.5 * 0.5) / (2 * 0.8 * 0.8))
	k1 := math.Exp(-(1.5 * 1.5) / (2 * 0.8 * 0.8))
	w0, w1 := k0/(k0+k1), k1/(k0+k1)
	if len(out.Weights) != 2 || !closeTo(out.Weights[0], w0) || !closeTo(out.Weights[1], w1) {
		t.Fatalf("weights = %v, want [%v %v]", out.Weights, w0, w1)
	}
	for i := range x {
		for c := 0; c < 2; c++ {
			want := w0*short.rows[i][c] + w1*long.rows[i][c]
			if !closeTo(out.Proba.At(c, i), want) {
				t.Errorf("fused[%d][%d] = %v, want %v", i, c, out.Proba.At(c, i), want)
			}
		}
	}
	// w0 ≈ 0.827: row 0 fuses to class 0 (0.78 / 0.22), row 1 too (0.55 / 0.45).
	if out.Pred[0] != 0 || out.Pred[1] != 0 {
		t.Errorf("pred = %v, want [0 0]", out.Pred)
	}
	if out.Warmup {
		t.Error("Warmup set with a projection present")
	}
	if !closeTo(out.KnowledgeDist, 2) {
		t.Errorf("KnowledgeDist = %v, want 2", out.KnowledgeDist)
	}
	if short.calls != 1 || long.calls != 1 {
		t.Errorf("forward passes = %d, %d; want one per member", short.calls, long.calls)
	}
	// InferBatch answers with the same labels and hands out no probabilities:
	// its workspace goes back to the pool.
	labels, err := s.InferBatch(x)
	if err != nil || labels.Proba != nil || !slices.Equal(labels.Pred, out.Pred) || !slices.Equal(labels.Weights, out.Weights) {
		t.Errorf("InferBatch = %+v, %v; want InferInto's labels and weights and a nil Proba", labels, err)
	}
}

// TestInferBatchWarmup: until the detector's projection exists the short
// model (member 0) answers alone.
func TestInferBatchWarmup(t *testing.T) {
	s, short, long, x, _ := snapshotFixture(t)
	s.Proj = nil
	out, err := s.InferInto(stage(x, s.Dim))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Warmup || out.Weights != nil || out.KnowledgeDist != -1 {
		t.Errorf("warm-up output = %+v", out)
	}
	for i := range x {
		for c := 0; c < 2; c++ {
			if out.Proba.At(c, i) != short.rows[i][c] {
				t.Errorf("proba[%d][%d] = %v, want the short model's %v", i, c, out.Proba.At(c, i), short.rows[i][c])
			}
		}
	}
	if out.Pred[0] != 0 || out.Pred[1] != 0 {
		t.Errorf("pred = %v, want [0 0]", out.Pred)
	}
	if short.calls != 1 || long.calls != 0 {
		t.Errorf("forward passes = %d, %d; want 1, 0", short.calls, long.calls)
	}
}

// TestInferBatchUniformFallback: when every kernel weight underflows to zero
// the fusion averages the members instead of dividing by zero.
func TestInferBatchUniformFallback(t *testing.T) {
	s, short, long, x, ybar := snapshotFixture(t)
	s.Members[0].Centroid = offset(ybar, 1, 0)
	s.Members[1].Centroid = offset(ybar, 0, 1)
	s.Sigma = 1e-3 // normalized D = (1, 1): K = exp(−5·10⁵) = 0
	out, err := s.InferInto(stage(x, s.Dim))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Weights) != 2 || out.Weights[0] != 0.5 || out.Weights[1] != 0.5 {
		t.Fatalf("weights = %v, want [0.5 0.5]", out.Weights)
	}
	for i := range x {
		for c := 0; c < 2; c++ {
			want := (short.rows[i][c] + long.rows[i][c]) / 2
			if !closeTo(out.Proba.At(c, i), want) {
				t.Errorf("fused[%d][%d] = %v, want %v", i, c, out.Proba.At(c, i), want)
			}
		}
	}
	// Row 0 averages to (0.55, 0.45), row 1 to (0.45, 0.55).
	if out.Pred[0] != 0 || out.Pred[1] != 1 {
		t.Errorf("pred = %v, want [0 1]", out.Pred)
	}
}

func TestInferBatchRejectsDimMismatch(t *testing.T) {
	s, short, long, _, _ := snapshotFixture(t)
	if _, err := s.InferBatch([][]float64{{1, 2, 3}, {1, 2}}); err == nil {
		t.Fatal("row of 2 features accepted by a 3-feature snapshot")
	}
	if short.calls != 0 || long.calls != 0 {
		t.Errorf("forward passes ran on a rejected batch: %d, %d", short.calls, long.calls)
	}
}

// TestInferBatchConcurrentReadersMatchSerial: a published snapshot is
// immutable and every byte of forward scratch is the reader's. Six readers
// call InferInto, each into a workspace from the process-wide pool, on
// whatever generation is current — so on the same snapshot
// and on consecutive ones, whose long member is one shared frozen view — while
// a trainer keeps training and republishing (it holds each generation until
// two reads of it have finished, so every generation is read). Every answer —
// labels, weights and the fused distributions, copied out before the
// workspace goes back — must equal, bit for bit, a later serial InferInto on
// the snapshot it was read from. Run under -race (make race does, three times
// over).
func TestInferBatchConcurrentReadersMatchSerial(t *testing.T) {
	ctx := context.Background()
	e := reuseEnsemble(t, []int{1, 2}, func(m model.Model) model.Model { return m })
	proj, err := pca.Fit([]linalg.Vector{
		{1, 0, 0, 0, 0, 0}, {-1, 0, 0, 0, 0, 0}, {0, 2, 0, 0, 0, 0}, {0, -2, 0, 0, 0, 0}, {0, 0, 0.5, 0, 0, 0}, {0, 0, -0.5, 0, 0, 0},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	const readers, generations = 6, 12
	var current atomic.Pointer[Snapshot]
	var readsOf [generations]atomic.Int64 // finished reads per generation
	publish := func(seq int) {
		current.Store(&Snapshot{Members: e.PublishSnapshot(), Sigma: 1, Proj: proj, Dim: reuseDim, Classes: reuseClasses, Seq: uint64(seq)})
	}
	publish(0)

	type answer struct {
		snap  *Snapshot
		x     [][]float64
		out   InferOutput // Proba cleared: its workspace went back to the pool
		proba []float64   // the fused distributions, class-major
	}
	answers := make([][]answer, readers)
	trained := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // trainer
		defer wg.Done()
		defer close(trained)
		rng := rand.New(rand.NewSource(71))
		for k := 1; k < generations; k++ {
			b, obs := reuseBatch(rng)
			end := begin(e, b)
			_, err := e.Infer(obs.YBar, nil, nil)
			if err == nil {
				err = e.Train(ctx, b.Y, obs, nil)
			}
			end()
			if err != nil {
				t.Error(err)
				return
			}
			for readsOf[k-1].Load() < 2 {
				if t.Failed() {
					return
				}
				runtime.Gosched()
			}
			publish(k)
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(72 + r)))
			for {
				select {
				case <-trained:
					return
				default:
				}
				b, _ := reuseBatch(rng)
				x := b.X[:1+rng.Intn(len(b.X))] // batch sizes differ: the pooled workspaces get reshaped
				snap := current.Load()
				ws := nn.GetWorkspace()
				ws.Stage(x, snap.Dim)
				out, err := snap.InferInto(ws)
				if err != nil {
					t.Error(err)
					return
				}
				proba := append([]float64(nil), out.Proba.Data...)
				out.Weights = slices.Clone(out.Weights) // the workspace's, like Proba
				ws.Release()
				out.Proba = nil
				answers[r] = append(answers[r], answer{snap, x, out, proba})
				readsOf[snap.Seq].Add(1)
				runtime.Gosched() // one P must reach the trainer too
			}
		}(r)
	}
	wg.Wait()

	seen := map[uint64]bool{}
	var ws nn.Workspace
	for r := range answers {
		for i, a := range answers[r] {
			seen[a.snap.Seq] = true
			ws.Reset()
			ws.Stage(a.x, a.snap.Dim)
			want, err := a.snap.InferInto(&ws)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(a.out.Pred, want.Pred) {
				t.Fatalf("reader %d, read %d (snapshot %d): pred %v, serial %v", r, i, a.snap.Seq, a.out.Pred, want.Pred)
			}
			for j, w := range want.Proba.Data {
				if math.Float64bits(a.proba[j]) != math.Float64bits(w) {
					t.Fatalf("reader %d, read %d (snapshot %d): proba[%d][%d] = %v, serial %v", r, i, a.snap.Seq, j%len(a.x), j/len(a.x), a.proba[j], w)
				}
			}
			for j, w := range want.Weights {
				if math.Float64bits(a.out.Weights[j]) != math.Float64bits(w) {
					t.Fatalf("reader %d, read %d: weight %d = %v, serial %v", r, i, j, a.out.Weights[j], w)
				}
			}
		}
	}
	if !t.Failed() && len(seen) < generations-1 {
		t.Errorf("the reads cover %d snapshot generations, want every one before the last (%d)", len(seen), generations-1)
	}
}
