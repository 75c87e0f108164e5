package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"freewayml/internal/cluster"
	"freewayml/internal/core"
	"freewayml/internal/knowledge"
	"freewayml/internal/linalg"
	"freewayml/internal/model"
	"freewayml/internal/pca"
	"freewayml/internal/session"
	"freewayml/internal/shift"
	"freewayml/internal/stream"
	"freewayml/internal/window"
	"freewayml/internal/wire"
)

// perCallUs is the mean wall time of fn over iters calls, in µs, after one
// untimed call. The probes run fixed work on fixed inputs, so a mean is
// steady and also resolves calls far below the clock's granularity.
func perCallUs(iters int, fn func()) float64 {
	fn()
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	return float64(time.Since(start)) / float64(time.Microsecond) / float64(iters)
}

func toVectors(x [][]float64) []linalg.Vector {
	out := make([]linalg.Vector, len(x))
	for i, row := range x {
		out[i] = linalg.Vector(row)
	}
	return out
}

// probeLayers measures the layers below core, and the paths no gated
// workload covers (checkpoints, eviction, the CNN family), each through the
// layer's public entry point on batches captured from the workload.
func (cp *capture) probeLayers(values map[string]float64, rp *replays, opts options, tmp string) error {
	batches := cp.in.batches
	b0 := batches[cp.prefix%len(batches)]
	rows, dim, classes := len(b0.X), cp.in.dim, cp.in.classes
	cfg := learnerConfig()
	ctx := context.Background()
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	// wire: the binary frame codec on one labelled batch.
	frame, err := wire.AppendFrame(nil, "", wire.Float64, b0.X, b0.Y)
	if err != nil {
		return err
	}
	var f wire.Frame
	values["wire.decode_ns_per_row"] = 1e3 * perCallUs(2000, func() { note(f.DecodeInto(frame)) }) / float64(rows)
	buf := make([]byte, 0, len(frame))
	values["wire.encode_ns_per_row"] = 1e3 * perCallUs(2000, func() {
		_, err := wire.AppendFrame(buf[:0], "", wire.Float64, b0.X, b0.Y)
		note(err)
	}) / float64(rows)
	values["wire.bytes_per_row"] = float64(len(frame)) / float64(rows)

	// shift, pca, window: the detector over one schedule, a window fed with
	// the centroids it produces, and the batch projection on its own.
	sc := cfg.Shift
	sc.Alpha = cfg.Alpha
	det, err := shift.NewDetector(sc)
	if err != nil {
		return err
	}
	asw, err := window.New(cfg.Window)
	if err != nil {
		return err
	}
	var observeUs, pushUs []float64
	var warm []linalg.Vector
	for _, b := range batches {
		vecs := toVectors(b.X)
		if !det.Ready() {
			warm = append(warm, vecs...)
		}
		start := time.Now()
		ob, err := det.Observe(vecs)
		observeUs = append(observeUs, float64(time.Since(start))/float64(time.Microsecond))
		if err != nil {
			return err
		}
		if ob.YBar == nil {
			continue
		}
		start = time.Now()
		full, err := asw.Push(b.X, b.Y, ob.YBar)
		pushUs = append(pushUs, float64(time.Since(start))/float64(time.Microsecond))
		if err != nil {
			return err
		}
		if full {
			asw.Reset()
		}
	}
	values["shift.observe_us"], values["window.push_us"] = median(observeUs), median(pushUs)
	proj, err := pca.Fit(warm, min(sc.ProjectionDim, dim))
	if err != nil {
		return err
	}
	vecs0 := toVectors(b0.X)
	values["pca.project_us"] = perCallUs(500, func() {
		_, err := proj.ProjectBatch(vecs0)
		note(err)
	})

	// cluster: one coherent-experience clustering of a batch against a full
	// experience buffer.
	exp, err := cluster.NewExpBuffer(cfg.ExpBufferPoints, cfg.ExpBufferAge)
	if err != nil {
		return err
	}
	for _, b := range batches[:min(len(batches), 4)] {
		note(exp.AddBatch(b.X, b.Y))
	}
	expX, expY := exp.Experience()
	values["cluster.cec_us"] = perCallUs(20, func() {
		_, err := cluster.CEC(b0.X, expX, expY, classes, cfg.Seed)
		note(err)
	})

	// nn and linalg at the workload's shapes.
	hyper := model.DefaultHyper()
	for _, fam := range []struct {
		name  string
		build func(int, int, model.Hyper) (model.Model, error)
	}{{"mlp", model.NewStreamingMLP}, {"cnn3", model.NewStreamingCNN3}} {
		m, err := fam.build(dim, classes, hyper)
		if err != nil {
			return err
		}
		values["nn."+fam.name+"_forward_us"] = perCallUs(100, func() { m.PredictProba(b0.X) })
		values["nn."+fam.name+"_train_us"] = perCallUs(100, func() {
			_, err := m.Fit(b0.X, b0.Y)
			note(err)
		})
	}
	// The MLP's first layer: (rows × dim) · (dim × hidden).
	a, b, c := linalg.NewTensor(rows, dim), linalg.NewTensor(dim, hyper.Hidden), linalg.NewTensor(rows, hyper.Hidden)
	a.FromRows(b0.X, dim)
	for i := range b.Data {
		b.Data[i] = float64(i%7) - 3
	}
	gemmUs := perCallUs(2000, func() { linalg.Gemm(c, a, b) })
	values["linalg.gemm_gflops"] = 2 * float64(rows*dim*hyper.Hidden) / gemmUs / 1e3
	values["linalg.gemm_bytes_per_call"] = 8 * float64(rows*dim+dim*hyper.Hidden+rows*hyper.Hidden)

	// knowledge: match against, and preserve into, a store at the configured
	// capacity, holding real model snapshots keyed by projected centroids.
	mlp, err := model.NewStreamingMLP(dim, classes, hyper)
	if err != nil {
		return err
	}
	snapshot, err := mlp.Snapshot()
	if err != nil {
		return err
	}
	store, err := knowledge.NewStore(cfg.KdgBuffer, "")
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(opts.seed))
	centroid := func() linalg.Vector {
		v := make(linalg.Vector, sc.ProjectionDim)
		for i := range v {
			v[i] = rng.NormFloat64() * 5
		}
		return v
	}
	for i := 0; i < cfg.KdgBuffer; i++ {
		note(store.Preserve(centroid(), snapshot, "probe", i))
	}
	y := centroid()
	values["knowledge.match_us"] = perCallUs(5000, func() {
		_, _, _, err := store.Match(y)
		note(err)
	})
	values["knowledge.preserve_us"] = perCallUs(500, func() { note(store.Preserve(y, snapshot, "probe", 0)) })

	// strategy and core on the replayed learner, i.e. in the state the live
	// stream had reached: a read of its published snapshot, and a checkpoint
	// round trip.
	l := rp.learner
	snap := l.ModelSnapshot()
	values["strategy.snapshot_infer_us"] = perCallUs(500, func() {
		_, err := snap.InferBatch(b0.X)
		note(err)
	})
	var ckpt bytes.Buffer
	values["core.checkpoint_save_us"] = perCallUs(5, func() {
		ckpt.Reset()
		note(l.SaveCheckpoint(&ckpt))
	})
	values["core.checkpoint_bytes"] = float64(ckpt.Len())
	restored, err := core.NewLearner(cfg, dim, classes)
	if err != nil {
		return err
	}
	values["core.checkpoint_load_us"] = perCallUs(5, func() { note(restored.LoadCheckpoint(bytes.NewReader(ckpt.Bytes()))) })
	note(restored.Close())
	note(l.Close())

	// session: eviction to and restore from a checkpoint directory, and how
	// two concurrent callers scale against one.
	dir, err := os.MkdirTemp(tmp, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	mgr, err := session.NewManager(session.Config{Learner: cfg, Dim: dim, Classes: classes, CheckpointDir: dir})
	if err != nil {
		return err
	}
	defer mgr.Close()
	train := func(id string, n int) {
		for k := 0; k < n; k++ {
			bk := batches[k%len(batches)]
			_, err := mgr.ProcessBatch(ctx, id, stream.Batch{X: bk.X, Y: bk.Y})
			note(err)
		}
	}
	const stateBatches = 40 // past detector warm-up, so sessions hold real state
	train("hot", stateBatches)
	var evictUs, restoreUs []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		_, err := mgr.Evict("hot")
		evictUs = append(evictUs, float64(time.Since(start))/float64(time.Microsecond))
		note(err)
		start = time.Now()
		_, err = mgr.Ensure("hot")
		restoreUs = append(restoreUs, float64(time.Since(start))/float64(time.Microsecond))
		note(err)
	}
	values["session.evict_us"], values["session.restore_us"] = median(evictUs), median(restoreUs)

	// Throughput of two concurrent callers over one caller doing the same
	// work each: 2 is perfect scaling, 1 is full serialisation.
	scaling := func(work func(caller int)) float64 {
		start := time.Now()
		work(0)
		one := time.Since(start)
		var wg sync.WaitGroup
		start = time.Now()
		for caller := 1; caller <= 2; caller++ {
			wg.Add(1)
			go func(caller int) {
				defer wg.Done()
				work(caller)
			}(caller)
		}
		wg.Wait()
		return 2 * one.Seconds() / time.Since(start).Seconds()
	}
	values["session.infer_scaling_2c"] = scaling(func(int) {
		for k := 0; k < 600; k++ {
			_, err := mgr.Infer(ctx, "hot", b0.X)
			note(err)
		}
	})
	values["session.process_scaling_2c"] = scaling(func(caller int) { train(fmt.Sprintf("cold%d", caller), 2*stateBatches) })
	return firstErr
}
