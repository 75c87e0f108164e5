package strategy

import (
	"context"
	"fmt"

	"freewayml/internal/knowledge"
	"freewayml/internal/linalg"
	"freewayml/internal/model"
	"freewayml/internal/nn"
	"freewayml/internal/shift"
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
	buf      linalg.Tensor // the batches waiting for the next update, copied back to back
	bufY     []int
	centroid linalg.Vector // distribution of the last training data
	wd       *Watchdog     // nil when the watchdog is disabled
	ver      uint64        // bumped on every parameter/centroid mutation
}

// NewGranularity wraps a model as a fixed-frequency ensemble member. wd may
// be nil to disable divergence monitoring.
func NewGranularity(m model.Model, every int, wd *Watchdog) *Granularity {
	return &Granularity{Model: m, Every: every, wd: wd}
}

// clearBuffer empties the pending batches, keeping their storage.
func (g *Granularity) clearBuffer() {
	g.buf.Rows, g.buf.Data, g.bufY, g.pending = 0, g.buf.Data[:0], g.bufY[:0], 0
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
			wd = NewWatchdog(fmt.Sprintf("gran%d", i))
		}
		grans = append(grans, NewGranularity(m, 1<<i, wd))
	}
	return grans, nil
}

// EnsembleConfig carries the knobs of the multi-granularity mechanism (a
// subset of core.Config; see there for semantics).
type EnsembleConfig struct {
	Sigma      float64
	LongEpochs int
	LongChunk  int
}

// EnsembleDeps link the ensemble to its host: callbacks for health
// bookkeeping, the current batch index and the same-regime replacement
// radius (all run on the caller's goroutine), and the knowledge preserver.
type EnsembleDeps struct {
	// OnRecovery folds one watchdog event into the host's health counters.
	OnRecovery func(RecoveryEvent)
	// BatchNum returns the host's current batch index.
	BatchNum func() int
	// ReplaceRadius returns the same-regime knowledge-replacement radius,
	// read as a window close begins.
	ReplaceRadius func() float64
	// Preserver stores what each window close keeps (nil preserves nothing).
	Preserver *KnowledgeReuse
}

// Ensemble is the Pattern-A mechanism (and the dispatcher's fallback): the
// short/mid fixed-frequency models plus the ASW-driven long-granularity
// model, fused with the Gaussian-kernel distance weighting of Eq. 12-14.
// It owns the adaptive streaming window and closes it over closeCalls Train
// calls on the caller's goroutine: the call whose batch filled the window
// trains the long model's first chunks, the next one the rest, and between
// the two the half-trained long model serves. Every method runs on the
// training goroutine.
type Ensemble struct {
	cfg  EnsembleConfig
	deps EnsembleDeps

	grans []*Granularity // grans[0] updates per batch
	long  model.Model    // ASW-driven long-granularity model

	asw          *window.ASW
	longCentroid linalg.Vector
	longWd       *Watchdog // nil when the watchdog is disabled

	slab, chunk linalg.Tensor // the close's training set, gathered from the window, and a chunk's rows
	slabY       []int         // the slab's labels

	longVer uint64 // bumped on every long-model mutation

	closing windowClose // the window close in flight, while closing.open

	// Infer's scratch: the member list, the fused distributions, which
	// Infer's Prediction views until the next Infer, and the weights.
	members []member
	fused   linalg.Tensor
	weights []float64

	// answered counts the batches Infer answered with a reader's fusion.
	answered int

	// The batch in flight's workspace (BeginBatch), or nil between batches.
	ws *nn.Workspace

	// pub is the last publication, members in order, the long model last: a
	// member is frozen again only when its version moved since; the frozen
	// views themselves are immutable.
	pub []publication

	// copies tracks who holds each frozen view — pub, the watchdogs, the
	// snapshots not yet released — and recycles a view's storage once
	// nothing does. retired holds the superseded snapshots a read still held
	// at the last Retire.
	copies  copyPool
	retired []*Snapshot
}

// publication is one member as the ensemble last published it.
type publication struct {
	frozen   *nn.Frozen
	centroid linalg.Vector
	ver      uint64 // the member's version (Granularity.ver, longVer) when frozen
}

// NewEnsemble assembles the mechanism from its pre-built parts. longWd may
// be nil to disable long-model divergence monitoring.
func NewEnsemble(cfg EnsembleConfig, grans []*Granularity, long model.Model, longWd *Watchdog, asw *window.ASW, deps EnsembleDeps) *Ensemble {
	e := &Ensemble{
		cfg:    cfg,
		deps:   deps,
		grans:  grans,
		long:   long,
		asw:    asw,
		longWd: longWd,
		pub:    make([]publication, len(grans)+1),
	}
	for i := range e.pub {
		if _, _, _, wd := e.memberModel(i); wd != nil {
			wd.pool = &e.copies
		}
	}
	return e
}

// Granularities exposes the fixed-frequency members (checkpointing and
// white-box tests).
func (e *Ensemble) Granularities() []*Granularity { return e.grans }

// ShortModel returns the per-batch member (grans[0]), the "deployed" model
// CEC's evidence scores against.
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
	g.wd.RetainImage(snap)
	return nil
}

// Disorder returns the window's normalized disorder (A1/A2 and β-policy
// evidence).
func (e *Ensemble) Disorder() float64 { return e.asw.Disorder() }

// WindowLen returns the batches currently held by the window.
func (e *Ensemble) WindowLen() int { return e.asw.Len() }

// WindowItems returns the samples currently held by the window.
func (e *Ensemble) WindowItems() int { return e.asw.Items() }

// WindowEvictions returns the window's lifetime decay-eviction count.
func (e *Ensemble) WindowEvictions() int { return e.asw.Evictions() }

// BeginBatch hands the ensemble the workspace of the batch in flight: ws
// holds that batch staged (nn.Workspace.Stage) and whatever forwards of the
// published members already ran over it — with the answer fused from them,
// when a reader of the latest publication fused one (an Infer's, handed to the
// Process call that follows). Infer, InferWarmup and Train read the batch
// there, and only there: each runs between a BeginBatch and its EndBatch. The
// members forward ws each at most once, Infer answers with the fused answer
// when it fuses the same members at the same ȳ, and Train trains a member from
// its forward when the member's parameters are still the forward's. ws stays
// the caller's: it is read until EndBatch, and released by the caller after
// that.
func (e *Ensemble) BeginBatch(ws *nn.Workspace) { e.ws = ws }

// EndBatch ends the batch BeginBatch began: the ensemble keeps nothing of ws.
func (e *Ensemble) EndBatch() { e.ws = nil }

// memberModel returns member i (the granularities in order, the long model at
// len(grans)) with its version counter, training centroid and watchdog.
func (e *Ensemble) memberModel(i int) (model.Model, uint64, linalg.Vector, *Watchdog) {
	if i < len(e.grans) {
		g := e.grans[i]
		return g.Model, g.ver, g.centroid, g.wd
	}
	return e.long, e.longVer, e.longCentroid, e.longWd
}

// publication returns member i as last published. A member never published,
// or whose parameters were written since (nn.Frozen.Current), is frozen anew
// first, so its forward answers what the live model would.
func (e *Ensemble) publication(i int) *publication {
	p := &e.pub[i]
	if p.frozen == nil || !p.frozen.Current() {
		e.freeze(i)
	}
	return p
}

// freeze publishes member i anew: its parameters frozen — the view its
// watchdog retained, while that is current — its centroid copied. The view it
// replaces loses the publication as a holder.
func (e *Ensemble) freeze(i int) {
	m, ver, centroid, wd := e.memberModel(i)
	var f *nn.Frozen
	if wd != nil && wd.frozen.Freezes(m.Net()) {
		f = wd.frozen
	} else {
		f = e.copies.freeze(m)
	}
	p := publication{frozen: f, ver: ver}
	if centroid != nil {
		p.centroid = centroid.Clone()
	}
	e.copies.hold(f)
	e.copies.drop(e.pub[i].frozen)
	e.pub[i] = p
}

// memberProba returns member i's class distributions for the begun batch:
// the published member's forward pass over it.
func (e *Ensemble) memberProba(i int) *linalg.Tensor {
	return e.ws.Forward(e.publication(i).frozen).Proba()
}

// InferWarmup predicts with the short model alone — the strategy while the
// detector has no projected centroid yet. Its Proba is the ensemble's fused
// scratch, a copy of the short model's distributions, valid until the next
// Infer.
func (e *Ensemble) InferWarmup() Prediction {
	p := e.memberProba(0)
	copy(linalg.EnsureTensor(&e.fused, p.Rows, p.Cols).Data, p.Data)
	return prediction(&e.fused)
}

// Infer answers the begun batch with the Gaussian-kernel distance weighting
// of Eq. 12-14 at the live distribution yBar (fuseAt): the granularity models
// in order, then the long model — or, for knowledge reuse, the match restored
// (KnowledgeReuse.Restore) at its distance, then the granularity models. The
// long model stays out of the latter: it smooths over the departed regime,
// while the restored model's small distance lets it dominate unless the live
// models are still competitive. Its Proba is the ensemble's fused scratch,
// valid until the next Infer.
//
// Without a match, the members are those of the latest publication, so when
// the begun workspace holds the answer a reader fused over it (the workspace
// is then a hand-off of the same rows on that publication) at yBar's very
// bits, that answer is this one: Infer copies it instead of fusing again.
func (e *Ensemble) Infer(yBar linalg.Vector, match *KnowledgeMatch, tr Trace) (Prediction, error) {
	tr = ensureTrace(tr)
	if match == nil {
		if p, weights, at := e.ws.Answer(); p != nil && at != nil && linalg.SameBits(at, yBar) {
			copy(linalg.EnsureTensor(&e.fused, p.Rows, p.Cols).Data, p.Data)
			e.answered++
			tr.Weights(weights)
			return prediction(&e.fused), nil
		}
	}
	members := e.members[:0]
	if match != nil {
		members = append(members, member{proba: match.Proba, distance: match.Dist, measured: true})
	}
	// Short and mid-granularity models: distance to their last training
	// distribution (D_short of Eq. 12 equals obs.Distance for the per-batch
	// model, since its centroid is the previous batch's ȳ).
	for i, g := range e.grans {
		members = append(members, member{proba: e.memberProba(i), centroid: g.centroid})
	}
	if match == nil {
		members = append(members, member{proba: e.memberProba(len(e.grans)), centroid: e.longCentroid})
	}
	e.members = members

	// Insight A emerges from the distances themselves: under a directional
	// shift (A1) the previous batch — the short model's distribution — is
	// the nearest thing to the live data, while under localized fluctuation
	// (A2) the window's weighted centroid sits at the center of the noise
	// and the long model wins the kernel weighting.
	p, weights, err := fuseAt(&e.fused, e.weights, members, yBar, e.cfg.Sigma)
	if err != nil {
		return Prediction{}, fmt.Errorf("strategy: ensemble: %w", err)
	}
	e.weights = weights
	tr.Weights(weights)
	return p, nil
}

// Answered counts the batches Infer answered with the fusion a reader left in
// the begun workspace instead of fusing again (observability and tests).
func (e *Ensemble) Answered() int { return e.answered }

// Train updates every granularity model per its schedule, maintains the
// window, lands the window close in flight, and begins one when this batch
// fills the window. The batch is the begun one, its rows staged in the
// workspace (BeginBatch) and y its labels. The window takes the staged
// tensor itself and hands the workspace recycled storage in its place
// (nn.Workspace.Exchange): nothing reads the staged rows after that until
// the workspace is reset.
func (e *Ensemble) Train(ctx context.Context, y []int, obs shift.Observation, tr Trace) error {
	tr = ensureTrace(tr)
	if err := ctx.Err(); err != nil {
		return err
	}
	x := e.ws.Staged()
	// Fixed-frequency models. After every update the watchdog checks the
	// model's health; a diverged model is rolled back to its last healthy
	// snapshot and keeps its previous centroid (the rolled-back parameters
	// belong to the pre-divergence distribution).
	tShort := tr.StageStart()
	for i, g := range e.grans {
		// A batch that completes the schedule with nothing pending (every
		// batch of the Every == 1 granularity) trains as it is, from the
		// member's forward when it can; only a batch that must wait, or join
		// waiting ones, is buffered.
		g.pending++
		var (
			loss float64
			err  error
		)
		if g.pending < g.Every || g.buf.Rows > 0 {
			g.buf.Data = append(g.buf.Data, x.Data...)
			g.buf.Rows, g.buf.Cols = g.buf.Rows+x.Rows, x.Cols
			g.bufY = append(g.bufY, y...)
			if g.pending < g.Every {
				continue
			}
			loss, err = g.Model.FitTensor(&g.buf, g.bufY)
		} else {
			loss, err = e.fitBatch(i, g.Model, y)
		}
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
		g.clearBuffer()
	}
	tr.StageDone(StageShortUpdate, tShort)

	if e.closing.open {
		tLong := tr.StageStart()
		err := e.advanceClose()
		tr.StageDone(StageLongUpdate, tLong)
		if err != nil {
			return err
		}
	}

	// Long model via the adaptive streaming window. During detector warm-up
	// there is no projected centroid yet, so the window starts afterward.
	if obs.YBar == nil {
		return nil
	}
	tWin := tr.StageStart()
	spare, full, err := e.asw.Take(x, y, obs.YBar)
	e.ws.Exchange(spare)
	if err != nil {
		return err
	}
	tr.StageDone(StageWindowPush, tWin)
	if !full {
		return nil
	}
	tr.WindowClosed()
	tLong := tr.StageStart()
	e.beginClose(obs)
	err = e.advanceClose()
	tr.StageDone(StageLongUpdate, tLong)
	return err
}

// fitBatch trains member i, m, on the begun batch, labeled y: from the
// published member's forward over the staged rows (the one Infer ran, or one
// run now) while m's parameters are still that forward's, else FitTensor on
// the staged rows.
func (e *Ensemble) fitBatch(i int, m model.Model, y []int) (float64, error) {
	if f := e.pub[i].frozen; f != nil {
		if loss, ok, err := m.FitFrom(e.ws.Forward(f), y); ok {
			return loss, err
		}
	}
	return m.FitTensor(e.ws.Staged(), y)
}

// closeCalls is how many Train calls a window close is spread over: the call
// whose batch fills the window trains the first ⌈N/closeCalls⌉ of the close's
// N chunks and the next call the rest, before its own batch can fill the
// window again. DESIGN.md ("The deferred close") has the measurements behind
// two.
const closeCalls = 2

// windowClose is the window close in flight: its training set is the
// ensemble's slab, and what it preserves was decided as it began.
type windowClose struct {
	open          bool
	next, chunks  int     // the next chunk to train and the close's chunk count
	lastLoss      float64 // the last chunk's loss; negative before any
	distribution  linalg.Vector
	keep          knowledge.Decision
	shortSnap     []byte // the short model as the close began, when keep.SaveShort
	replaceRadius float64
	obs           shift.Observation // the closing batch's
}

// beginClose starts a window close: it gathers the window's weighted training
// set into the slab, resets the window, points the long model's centroid at
// the window's distribution, and takes the β decision and the short model's
// snapshot as they stand now — the close trains only the long model, so the
// store gets the short model as the close began, whenever the close lands.
func (e *Ensemble) beginClose(obs shift.Observation) {
	disorder := e.asw.Disorder()
	c := windowClose{open: true, lastLoss: -1, distribution: e.asw.Distribution(), obs: obs}
	e.slabY = e.asw.TrainingSet(&e.slab, e.slabY)
	e.asw.Reset()
	c.replaceRadius = e.deps.ReplaceRadius()
	// Chunked mini-batch epochs over the weighted window, matching how a
	// DataLoader-driven PyTorch update iterates window data.
	c.chunks = e.cfg.LongEpochs * ceilDiv(e.slab.Rows, e.cfg.LongChunk)
	if e.deps.Preserver != nil && c.distribution != nil {
		c.keep = e.deps.Preserver.decide(disorder)
		if c.keep.SaveShort && obs.YBar != nil {
			c.shortSnap = e.grans[0].Model.Net().AppendSnapshot(nil)
		}
	}
	if c.distribution != nil {
		e.longCentroid = c.distribution
	}
	e.closing = c
}

// advanceClose trains the next ⌈N/closeCalls⌉ chunks of the close in flight,
// each a row view of the slab, and lands the close after its last chunk: the
// long watchdog checks the model and the store gains what the β policy kept.
// A model whose weights went non-finite lands at once: the watchdog rolls it
// back before any prediction or snapshot sees it, and the rest of the close is
// dropped, which leaves the state the remaining chunks would have ended in.
func (e *Ensemble) advanceClose() error {
	c := &e.closing
	n, cols := e.slab.Rows, e.slab.Cols
	perEpoch := ceilDiv(n, e.cfg.LongChunk)
	for stop := min(c.next+ceilDiv(c.chunks, closeCalls), c.chunks); c.next < stop; c.next++ {
		start := c.next % perEpoch * e.cfg.LongChunk
		end := min(start+e.cfg.LongChunk, n)
		e.chunk = linalg.Tensor{Rows: end - start, Cols: cols, Data: e.slab.Data[start*cols : end*cols]}
		loss, err := e.long.FitTensor(&e.chunk, e.slabY[start:end])
		if err != nil {
			c.open = false
			return err
		}
		c.lastLoss = loss
	}
	e.longVer++
	if c.next < c.chunks && e.long.Net().ParamsFinite() {
		return nil
	}
	if e.longWd != nil {
		if ev := e.longWd.Check(e.long, c.lastLoss, e.deps.BatchNum()); ev != nil {
			e.deps.OnRecovery(*ev)
		}
	}
	c.open = false
	if e.deps.Preserver == nil {
		return nil
	}
	return e.deps.Preserver.PreserveAtWindowClose(c.keep, c.distribution, e.long, c.shortSnap, c.replaceRadius, c.obs)
}

// ceilDiv returns ⌈a/b⌉ for a ≥ 0, b > 0.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// PublishSnapshot builds the immutable member view for the inference plane:
// every granularity model in order, the long model last. Members whose
// version counter has not moved since the previous publication reuse the
// cached view, so steady-state publication cost is one copy of the parameter
// values of the models that actually trained this batch (usually just the
// short model), into storage recycled from views nothing holds any more. The
// members hold their views until their snapshot is retired (Retire) and no
// read holds it. Must be called from the training goroutine, between Train
// calls.
func (e *Ensemble) PublishSnapshot() []SnapshotMember {
	members := make([]SnapshotMember, len(e.pub))
	for i := range e.pub {
		if _, ver, _, _ := e.memberModel(i); e.pub[i].frozen == nil || e.pub[i].ver != ver {
			e.freeze(i)
		}
		e.copies.hold(e.pub[i].frozen)
		members[i] = SnapshotMember{Model: e.pub[i].frozen, Centroid: e.pub[i].centroid}
	}
	return members
}

// Retire takes s, a snapshot of this ensemble's members that a newer
// publication has just replaced, out of service, and sweeps every retired
// snapshot: one no read holds any more drops its members' holds on their
// frozen views, and a view left with no holder has its storage recycled; a
// pinned one gives up the recycling of its views for good, whatever else holds
// them; one a read holds waits for the next sweep. Training goroutine only,
// after the newer snapshot is published (Snapshot.AddReader).
func (e *Ensemble) Retire(old *Snapshot) {
	e.retired = append(e.retired, old)
	kept := e.retired[:0]
	for _, s := range e.retired {
		pinned := s.Pinned()
		if !pinned && s.InUse() {
			kept = append(kept, s)
			continue
		}
		for _, m := range s.Members {
			f, _ := m.Model.(*nn.Frozen) // nil, which the pool ignores, for a test's fake
			if pinned {
				e.copies.forget(f)
			} else {
				e.copies.drop(f)
			}
		}
	}
	clear(e.retired[len(kept):])
	e.retired = kept
}

// DebugModels exposes the short and long granularity models for diagnostic
// tooling and white-box tests.
func (e *Ensemble) DebugModels() (short, long model.Model) {
	return e.grans[0].Model, e.long
}

// EnsembleState is the ensemble's durable state for checkpointing.
type EnsembleState struct {
	GranSnapshots [][]byte
	GranCentroids []linalg.Vector
	LongSnapshot  []byte
	LongCentroid  linalg.Vector
}

// ExportState snapshots every member.
func (e *Ensemble) ExportState() EnsembleState {
	st := EnsembleState{LongSnapshot: e.long.Net().AppendSnapshot(nil)}
	for _, g := range e.grans {
		st.GranSnapshots = append(st.GranSnapshots, g.Model.Net().AppendSnapshot(nil))
		var c linalg.Vector
		if g.centroid != nil {
			c = g.centroid.Clone()
		}
		st.GranCentroids = append(st.GranCentroids, c)
	}
	if e.longCentroid != nil {
		st.LongCentroid = e.longCentroid.Clone()
	}
	return st
}

// ImportState restores every member from a checkpoint, makes the restored
// parameters each watchdog's rollback target, clears the pending
// fixed-frequency buffers, and restarts the window (its contents are
// intentionally not serialized). It checks every model image before it
// restores one: a refused state leaves the ensemble as it was.
func (e *Ensemble) ImportState(st EnsembleState) error {
	if len(st.GranSnapshots) != len(e.grans) || len(st.GranCentroids) != len(e.grans) {
		return fmt.Errorf("strategy: granularity count mismatch: state has %d, ensemble has %d", len(st.GranSnapshots), len(e.grans))
	}
	for i, g := range e.grans {
		if err := g.Model.Net().CheckSnapshot(st.GranSnapshots[i]); err != nil {
			return fmt.Errorf("strategy: restore granularity %d: %w", i, err)
		}
	}
	if err := e.long.Net().CheckSnapshot(st.LongSnapshot); err != nil {
		return fmt.Errorf("strategy: restore long model: %w", err)
	}
	for i, g := range e.grans {
		if err := g.Model.Restore(st.GranSnapshots[i]); err != nil {
			return fmt.Errorf("strategy: restore granularity %d: %w", i, err)
		}
		g.centroid = st.GranCentroids[i]
		g.ver++
		g.clearBuffer()
		g.wd.RetainImage(st.GranSnapshots[i])
	}
	if err := e.long.Restore(st.LongSnapshot); err != nil {
		return fmt.Errorf("strategy: restore long model: %w", err)
	}
	e.longWd.RetainImage(st.LongSnapshot)
	e.longCentroid = st.LongCentroid
	e.longVer++
	e.asw.Reset()
	e.closing.open = false
	return nil
}
