package strategy

import (
	"context"
	"fmt"
	"sync"
	"time"

	"freewayml/internal/linalg"
	"freewayml/internal/model"
	"freewayml/internal/nn"
	"freewayml/internal/shift"
	"freewayml/internal/stream"
	"freewayml/internal/window"
)

// Granularity is one fixed-frequency model of the multi-time-granularity
// ensemble: model i trains every Every batches on the batches accumulated
// since its last update.
type Granularity struct {
	// Model is the member model; Every is its update period in batches.
	Model model.Model
	Every int

	pending  int
	bufX     [][]float64
	bufY     []int
	centroid linalg.Vector // distribution of the last training data
	wd       *Watchdog     // nil when the watchdog is disabled
	ver      uint64        // bumped on every parameter/centroid mutation

	// fwd names the forward pass predict ran on the batch being processed,
	// until Train takes it. The network, not this field, decides whether it
	// is still good: any later forward or parameter write outdates it.
	fwd nn.ForwardToken
	// proba holds that prediction's class distributions (class-major) until
	// the next predict: the member's own buffer, which no forward or update
	// writes.
	proba linalg.Tensor
}

// NewGranularity wraps a model as a fixed-frequency ensemble member. wd may
// be nil to disable divergence monitoring.
func NewGranularity(m model.Model, every int, wd *Watchdog) *Granularity {
	return &Granularity{Model: m, Every: every, wd: wd}
}

// predict returns the member's class distributions for the batch being
// processed (valid until its next predict) and keeps the forward pass for
// this batch's Train.
func (g *Granularity) predict(x [][]float64) *linalg.Tensor {
	model.ProbaInto(&g.proba, g.Model, x)
	if ft, ok := g.Model.(model.ForwardTrainer); ok {
		g.fwd = ft.Forwarded()
	}
	return &g.proba
}

// fit is Model.Fit, minus the forward pass when fwd still names the model's
// latest forward — the prediction of these very rows (test-then-train).
func (g *Granularity) fit(fwd nn.ForwardToken, x [][]float64, y []int) (float64, error) {
	if ft, ok := g.Model.(model.ForwardTrainer); ok {
		if loss, reused, err := ft.FitForwarded(fwd, y); reused {
			return loss, err
		}
	}
	return g.Model.Fit(x, y)
}

// BuildGranularities builds the fixed-frequency members: model i updates
// every 2^i batches.
func BuildGranularities(factory model.Factory, dim, classes, n int, wcfg WatchdogConfig) ([]*Granularity, error) {
	grans := make([]*Granularity, 0, n)
	for i := 0; i < n; i++ {
		m, err := factory(dim, classes)
		if err != nil {
			return nil, err
		}
		var wd *Watchdog
		if !wcfg.Disabled {
			wd = NewWatchdog(fmt.Sprintf("gran%d", i), wcfg)
		}
		grans = append(grans, NewGranularity(m, 1<<i, wd))
	}
	return grans, nil
}

// Preserver receives the window-close knowledge-preservation hook. The
// knowledge-reuse strategy implements it; callers hold the ensemble's long-
// model lock, so longSnap may be invoked directly.
type Preserver interface {
	PreserveAtWindowClose(disorder float64, distribution linalg.Vector, longSnap func() ([]byte, error), shortSnap []byte, replaceRadius float64, obs shift.Observation) error
}

// EnsembleConfig carries the knobs of the multi-granularity mechanism (a
// subset of core.Config; see there for semantics).
type EnsembleConfig struct {
	Sigma      float64
	LongEpochs int
	LongChunk  int
	LongRebase bool
	Async      bool
}

// EnsembleDeps are the ensemble's callbacks into its host: health
// bookkeeping, the current batch index, the same-regime replacement radius
// (computed from the detector on the caller's goroutine), and the optional
// knowledge preserver.
type EnsembleDeps struct {
	// Stages receives long-update durations measured off the request path
	// (the asynchronous window close). Required; wrap a nil observer.
	Stages StageObserver
	// OnRecovery folds one watchdog event into the host's health counters.
	// Must be safe from the async update goroutine.
	OnRecovery func(RecoveryEvent)
	// OnAsyncErr records a background-update error for the host to surface.
	OnAsyncErr func(error)
	// BatchNum returns the host's current batch index (caller goroutine
	// only; async paths capture it synchronously).
	BatchNum func() int
	// ReplaceRadius returns the same-regime knowledge-replacement radius.
	// Called synchronously at window close (the detector is not safe to
	// touch from an async update).
	ReplaceRadius func() float64
}

// Ensemble is the Pattern-A mechanism (and the dispatcher's fallback): the
// short/mid fixed-frequency models plus the ASW-driven long-granularity
// model, fused with the Gaussian-kernel distance weighting of Eq. 12-14.
// It owns the adaptive streaming window and the long model's asynchronous
// update lifecycle.
type Ensemble struct {
	cfg  EnsembleConfig
	deps EnsembleDeps

	grans []*Granularity // grans[0] updates per batch
	long  model.Model    // ASW-driven long-granularity model

	asw          *window.ASW
	pre          *window.Precomputer
	longOpt      *nn.SGD
	longCentroid linalg.Vector
	longWd       *Watchdog // nil when the watchdog is disabled

	preserver Preserver // set after construction (nil disables preservation)

	mu      sync.RWMutex // guards long model + longCentroid + longVer during async updates
	wg      sync.WaitGroup
	longVer uint64 // bumped on every long-model mutation (under mu)

	// Infer's scratch (training goroutine only): the member list, the long
	// model's class distributions — the ensemble's buffer, not the network's,
	// so the fusion reads it after e.mu is released while an asynchronous
	// close trains the long model — and the fused ones.
	members          []member
	longProba, fused linalg.Tensor

	// Snapshot-publication cache: a member is frozen again only when its
	// version moved since the last publication. Guarded by pubMu (one
	// publisher at a time); the cached views themselves are immutable.
	pubMu      sync.Mutex
	pubMembers []SnapshotMember
	pubVers    []uint64
	pubLongVer uint64
}

// NewEnsemble assembles the mechanism from its pre-built parts. pre and
// longOpt are non-nil only under the pre-computing window; longWd may be
// nil to disable long-model divergence monitoring.
func NewEnsemble(cfg EnsembleConfig, grans []*Granularity, long model.Model, longWd *Watchdog, asw *window.ASW, pre *window.Precomputer, longOpt *nn.SGD, deps EnsembleDeps) *Ensemble {
	return &Ensemble{
		cfg:     cfg,
		deps:    deps,
		grans:   grans,
		long:    long,
		asw:     asw,
		pre:     pre,
		longOpt: longOpt,
		longWd:  longWd,
	}
}

// SetPreserver attaches the knowledge-preservation hook (call before the
// first Train; nil disables preservation).
func (e *Ensemble) SetPreserver(p Preserver) { e.preserver = p }

// Granularities exposes the fixed-frequency members (checkpointing and
// white-box tests).
func (e *Ensemble) Granularities() []*Granularity { return e.grans }

// ShortModel returns the per-batch member (grans[0]), the "deployed" model
// the other mechanisms arbitrate against.
func (e *Ensemble) ShortModel() model.Model { return e.grans[0].Model }

// AdoptShort replaces the short model's parameters and training centroid —
// the knowledge-reuse adoption path (SC3).
func (e *Ensemble) AdoptShort(snap []byte, centroid linalg.Vector) error {
	g := e.grans[0]
	if err := g.Model.Restore(snap); err != nil {
		return err
	}
	g.centroid = centroid.Clone()
	g.ver++
	// The adopted parameters are the state to return to: a rollback must not
	// undo the adoption.
	g.wd.Retain(g.Model)
	return nil
}

// SetDecayBoost forwards the rate-adjuster boost to the window.
func (e *Ensemble) SetDecayBoost(v float64) { e.asw.SetDecayBoost(v) }

// Disorder returns the window's normalized disorder (A1/A2 and β-policy
// evidence).
func (e *Ensemble) Disorder() float64 { return e.asw.Disorder() }

// WindowLen returns the batches currently held by the window.
func (e *Ensemble) WindowLen() int { return e.asw.Len() }

// WindowItems returns the samples currently held by the window.
func (e *Ensemble) WindowItems() int { return e.asw.Items() }

// WindowEvictions returns the window's lifetime decay-eviction count.
func (e *Ensemble) WindowEvictions() int { return e.asw.Evictions() }

// Wait blocks until any in-flight asynchronous long-model update finishes.
func (e *Ensemble) Wait() { e.wg.Wait() }

// InferWarmup predicts with the short model alone — the strategy while the
// detector has no projected centroid yet.
func (e *Ensemble) InferWarmup(b stream.Batch) Prediction {
	return prediction(e.grans[0].predict(b.X))
}

// granMembers appends to dst the fixed-frequency members' predictions for the
// batch being processed (x is that batch: the forward passes are kept for its
// Train) with their distances to the live distribution — the knowledge-reuse
// fusion deliberately excludes the long model.
func (e *Ensemble) granMembers(dst []member, yBar linalg.Vector, x [][]float64) []member {
	for _, g := range e.grans {
		dst = append(dst, member{proba: g.predict(x), distance: centroidDistance(yBar, g.centroid)})
	}
	return dst
}

// Infer fuses all granularity models with the Gaussian-kernel distance
// weighting of Eq. 12-14. Always serves (ok=true).
func (e *Ensemble) Infer(ctx context.Context, b stream.Batch, obs shift.Observation, tr Trace) (Prediction, bool, error) {
	tr = ensureTrace(tr)
	// Short and mid-granularity models: distance to their last training
	// distribution (D_short of Eq. 12 equals obs.Distance for the per-batch
	// model, since its centroid is the previous batch's ȳ).
	members := e.granMembers(e.members[:0], obs.YBar, b.X)
	e.mu.RLock()
	model.ProbaInto(&e.longProba, e.long, b.X)
	members = append(members, member{proba: &e.longProba, distance: centroidDistance(obs.YBar, e.longCentroid)})
	e.mu.RUnlock()
	e.members = members

	// Normalize distances by their mean so the kernel width Sigma is
	// scale-free: the projected space's units vary per dataset, and Eq. 14
	// only cares about the models' relative match to the live data.
	normalizeDistances(members)

	// Insight A emerges from the distances themselves: under a directional
	// shift (A1) the previous batch — the short model's distribution — is
	// the nearest thing to the live data, while under localized fluctuation
	// (A2) the window's weighted centroid sits at the center of the noise
	// and the long model wins the kernel weighting.
	weights, err := fuse(&e.fused, members, e.cfg.Sigma)
	if err != nil {
		return Prediction{}, false, fmt.Errorf("strategy: ensemble: %w", err)
	}
	tr.Weights(weights)
	return prediction(&e.fused), true, nil
}

// Train updates every granularity model per its schedule, maintains the
// window, and triggers the long-model update at window close.
func (e *Ensemble) Train(ctx context.Context, b stream.Batch, obs shift.Observation, tr Trace) error {
	tr = ensureTrace(tr)
	if err := ctx.Err(); err != nil {
		return err
	}
	// Fixed-frequency models. After every update the watchdog checks the
	// model's health; a diverged model is rolled back to its last healthy
	// snapshot and keeps its previous centroid (the rolled-back parameters
	// belong to the pre-divergence distribution).
	tShort := tr.StageStart()
	for _, g := range e.grans {
		// A batch that completes the schedule with nothing pending (every
		// batch of the Every == 1 granularity) goes to Fit as it is; only a
		// batch that must wait, or join waiting ones, is buffered.
		g.pending++
		x, y := b.X, b.Y
		fwd := g.fwd // this call's prediction of b.X, when the member made one
		g.fwd = nn.ForwardToken{}
		if g.pending < g.Every || len(g.bufX) > 0 {
			g.bufX = append(g.bufX, b.X...)
			g.bufY = append(g.bufY, b.Y...)
			if g.pending < g.Every {
				continue
			}
			x, y = g.bufX, g.bufY
			fwd = nn.ForwardToken{} // trains more rows than it predicted
		}
		loss, err := g.fit(fwd, x, y)
		if err != nil {
			return err
		}
		diverged := false
		if g.wd != nil {
			if ev := g.wd.Check(g.Model, loss, e.deps.BatchNum()); ev != nil {
				diverged = true
				e.deps.OnRecovery(*ev)
			}
		}
		if !diverged && obs.YBar != nil {
			g.centroid = obs.YBar.Clone()
		}
		g.ver++ // Fit ran (or the watchdog rolled back): parameters moved
		g.bufX, g.bufY, g.pending = nil, nil, 0
	}
	tr.StageDone(StageShortUpdate, tShort)

	// Long model via the adaptive streaming window. During detector warm-up
	// there is no projected centroid yet, so the window starts afterward.
	if obs.YBar == nil {
		return nil
	}
	tWin := tr.StageStart()
	full, err := e.asw.Push(b.X, b.Y, obs.YBar)
	if err != nil {
		return err
	}
	if e.pre != nil {
		// Pre-computing window (Sec. V-B): fold this batch's gradient in
		// now, so the update at window close is a single cheap step. This
		// trades the decay weighting of TrainingSet for latency — the
		// gradients were computed at arrival weight.
		e.mu.Lock()
		err := e.pre.AddSubset(b.X, b.Y)
		e.mu.Unlock()
		if err != nil {
			return err
		}
	}
	tr.StageDone(StageWindowPush, tWin)
	if !full {
		return nil
	}
	tr.WindowClosed()
	return e.updateLong(obs, tr)
}

// updateLong trains the long-granularity model from the closed window,
// preserves knowledge per the β policy, and resets the window.
func (e *Ensemble) updateLong(obs shift.Observation, tr Trace) error {
	disorder := e.asw.Disorder()
	distribution := e.asw.Distribution()
	var trainX [][]float64
	var trainY []int
	if e.pre == nil {
		trainX, trainY = e.asw.TrainingSet()
	}
	e.asw.Reset()

	// The short model keeps training on the caller's goroutine, so its
	// snapshot must be captured now, not inside an async update. It serves
	// two purposes: the β-policy preservation below, and re-basing the long
	// model — the long-granularity model is the current model smoothed over
	// the whole window, so each close starts from the freshest parameters
	// and then trains across the window's weighted data. Without re-basing
	// the long model accumulates staleness that no distance weighting can
	// detect (distance measures data match, not parameter quality).
	shortSnap, err := e.grans[0].Model.Snapshot()
	if err != nil {
		return err
	}
	// Same-regime radius for knowledge replacement: computed here, on the
	// caller's goroutine — the detector is not safe to touch from an async
	// update.
	replaceRadius := e.deps.ReplaceRadius()
	batchNum := e.deps.BatchNum()

	apply := func() error {
		e.mu.Lock()
		defer e.mu.Unlock()
		e.longVer++
		// lastLoss feeds the long model's watchdog; negative means the
		// update path produced no loss signal (precompute), where only the
		// weight checks apply.
		lastLoss := -1.0
		if e.pre != nil {
			if err := e.pre.Finalize(e.longOpt); err != nil {
				return err
			}
			e.pre.Start()
		} else if len(trainX) > 0 {
			if e.cfg.LongRebase {
				if err := e.long.Restore(shortSnap); err != nil {
					return err
				}
			}
			// Chunked mini-batch epochs over the weighted window, matching
			// how a DataLoader-driven PyTorch update iterates window data.
			for epoch := 0; epoch < e.cfg.LongEpochs; epoch++ {
				for start := 0; start < len(trainX); start += e.cfg.LongChunk {
					end := start + e.cfg.LongChunk
					if end > len(trainX) {
						end = len(trainX)
					}
					loss, err := e.long.Fit(trainX[start:end], trainY[start:end])
					if err != nil {
						return err
					}
					lastLoss = loss
				}
			}
		}
		if e.longWd != nil {
			if ev := e.longWd.Check(e.long, lastLoss, batchNum); ev != nil {
				e.deps.OnRecovery(*ev)
			}
		}
		if distribution != nil {
			e.longCentroid = distribution
		}
		if e.preserver == nil {
			return nil
		}
		return e.preserver.PreserveAtWindowClose(disorder, distribution, e.long.Snapshot, shortSnap, replaceRadius, obs)
	}

	// With pre-computed gradients the closing step is a single optimizer
	// application — running it inline is cheaper than a goroutine and avoids
	// interleaving the next window's AddSubset with this window's Finalize.
	if e.cfg.Async && e.pre == nil {
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			// The batch's trace event may already be emitted when this
			// finishes, so the async path feeds the stage histogram only.
			start := time.Now()
			err := apply()
			e.deps.Stages.ObserveStage(StageLongUpdate, time.Since(start))
			if err != nil {
				e.deps.OnAsyncErr(err)
			}
		}()
		return nil
	}
	tLong := tr.StageStart()
	err = apply()
	tr.StageDone(StageLongUpdate, tLong)
	return err
}

// PublishSnapshot builds the immutable member view for the inference plane:
// every granularity model in order, the long model last. Members whose
// version counter has not moved since the previous publication reuse the
// cached view, so steady-state publication cost is one copy of the parameter
// values of the models that actually trained this batch (usually just the
// short model). Must be called from the training goroutine — it reads the
// granularity models without e.mu; the long model is frozen under e.mu so an
// in-flight asynchronous update cannot tear it.
func (e *Ensemble) PublishSnapshot() []SnapshotMember {
	e.pubMu.Lock()
	defer e.pubMu.Unlock()
	n := len(e.grans)
	if e.pubMembers == nil {
		e.pubMembers = make([]SnapshotMember, n+1)
		e.pubVers = make([]uint64, n)
	}
	members := make([]SnapshotMember, n+1)
	for i, g := range e.grans {
		if e.pubMembers[i].Model == nil || e.pubVers[i] != g.ver {
			var c linalg.Vector
			if g.centroid != nil {
				c = g.centroid.Clone()
			}
			e.pubMembers[i] = SnapshotMember{Model: g.Model.Freeze(), Centroid: c}
			e.pubVers[i] = g.ver
		}
		members[i] = e.pubMembers[i]
	}
	e.mu.RLock()
	if e.pubMembers[n].Model == nil || e.pubLongVer != e.longVer {
		var c linalg.Vector
		if e.longCentroid != nil {
			c = e.longCentroid.Clone()
		}
		e.pubMembers[n] = SnapshotMember{Model: e.long.Freeze(), Centroid: c}
		e.pubLongVer = e.longVer
	}
	members[n] = e.pubMembers[n]
	e.mu.RUnlock()
	return members
}

// DebugModels exposes the short and long granularity models for diagnostic
// tooling and white-box tests.
func (e *Ensemble) DebugModels() (short, long model.Model) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.grans[0].Model, e.long
}

// DebugDistances recomputes the short/long model shift distances for an
// observation's centroid (diagnostics only).
func (e *Ensemble) DebugDistances(yBar linalg.Vector) (dShort, dLong float64) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return centroidDistance(yBar, e.grans[0].centroid),
		centroidDistance(yBar, e.longCentroid)
}

// EnsembleState is the ensemble's durable state for checkpointing.
type EnsembleState struct {
	GranSnapshots [][]byte
	GranCentroids []linalg.Vector
	LongSnapshot  []byte
	LongCentroid  linalg.Vector
}

// ExportState snapshots every member. Any in-flight asynchronous long-model
// update is waited out first so the state is consistent.
func (e *Ensemble) ExportState() (EnsembleState, error) {
	e.wg.Wait()
	e.mu.Lock()
	defer e.mu.Unlock()
	var st EnsembleState
	for _, g := range e.grans {
		snap, err := g.Model.Snapshot()
		if err != nil {
			return EnsembleState{}, fmt.Errorf("strategy: snapshot short model: %w", err)
		}
		st.GranSnapshots = append(st.GranSnapshots, snap)
		var c linalg.Vector
		if g.centroid != nil {
			c = g.centroid.Clone()
		}
		st.GranCentroids = append(st.GranCentroids, c)
	}
	longSnap, err := e.long.Snapshot()
	if err != nil {
		return EnsembleState{}, fmt.Errorf("strategy: snapshot long model: %w", err)
	}
	st.LongSnapshot = longSnap
	if e.longCentroid != nil {
		st.LongCentroid = e.longCentroid.Clone()
	}
	return st, nil
}

// ImportState restores every member from a checkpoint, makes the restored
// parameters each watchdog's rollback target, clears the pending
// fixed-frequency buffers, and restarts the window (its contents are
// intentionally not serialized).
func (e *Ensemble) ImportState(st EnsembleState) error {
	if len(st.GranSnapshots) != len(e.grans) {
		return fmt.Errorf("strategy: granularity count mismatch: state has %d, ensemble has %d", len(st.GranSnapshots), len(e.grans))
	}
	e.wg.Wait()
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, g := range e.grans {
		if err := g.Model.Restore(st.GranSnapshots[i]); err != nil {
			return fmt.Errorf("strategy: restore granularity %d: %w", i, err)
		}
		g.centroid = st.GranCentroids[i]
		g.ver++
		g.bufX, g.bufY, g.pending = nil, nil, 0
		g.wd.Retain(g.Model)
	}
	if err := e.long.Restore(st.LongSnapshot); err != nil {
		return fmt.Errorf("strategy: restore long model: %w", err)
	}
	e.longWd.Retain(e.long)
	e.longCentroid = st.LongCentroid
	e.longVer++
	e.asw.Reset()
	if e.pre != nil {
		e.pre.Start()
	}
	return nil
}
