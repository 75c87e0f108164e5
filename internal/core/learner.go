package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"freewayml/internal/cluster"
	"freewayml/internal/guard"
	"freewayml/internal/knowledge"
	"freewayml/internal/linalg"
	"freewayml/internal/metrics"
	"freewayml/internal/model"
	"freewayml/internal/shift"
	"freewayml/internal/strategy"
	"freewayml/internal/stream"
	"freewayml/internal/window"
)

// Result reports everything FreewayML decided about one batch.
type Result struct {
	// Pred holds the predicted class per sample.
	Pred []int
	// proba is the class-major view the strategy answered with (nil for
	// CEC): its scratch, valid until the next Process.
	proba *linalg.Tensor
	// Pattern is the detected shift pattern; SubPattern refines slight
	// shifts into A1/A2 using the window disorder.
	Pattern    shift.Pattern
	SubPattern shift.Pattern
	// Strategy is the mechanism that produced Pred.
	Strategy Strategy
	// Observation is the raw detector output.
	Observation shift.Observation
	// Accuracy is the batch's real-time accuracy when labels were provided,
	// else -1.
	Accuracy float64
}

// RecoveryEvent records one watchdog divergence (see strategy.RecoveryEvent).
type RecoveryEvent = strategy.RecoveryEvent

// maxRecoveryEvents bounds the retained event log; older events are
// dropped (the counters in Stats never reset).
const maxRecoveryEvents = 32

// Learner is the FreewayML framework instance: it detects each batch's
// shift pattern, dispatches exactly one of the three strategy mechanisms
// (internal/strategy) for inference, trains them, and keeps the
// bookkeeping — prequential metrics, health counters, checkpoints. One
// goroutine may call Process at a time, and every model update, the window
// close included, runs on it.
type Learner struct {
	cfg          Config
	det          *shift.Detector
	dim, classes int

	// The three mechanisms of package strategy. ens also serves every batch
	// the dispatch table gives neither cec nor knw.
	ens *strategy.Ensemble
	cec *strategy.CEC
	knw *strategy.KnowledgeReuse

	exp *cluster.ExpBuffer
	kdg *knowledge.Store

	guard *guard.Guard

	// obs is the optional observability layer (nil disables all
	// instrumentation; every hook is nil-safe), and bo the carrier of the
	// batch it is observing, reused by every Process call.
	obs *Observer
	bo  batchObs

	preq   metrics.Summary
	batch  int
	closed atomic.Bool

	// snap is the atomically published inference-plane view; snapSeq counts
	// publications (training goroutine only). Readers load snap lock-free
	// and never touch any other learner field — see infer.go.
	snap    atomic.Pointer[strategy.Snapshot]
	snapSeq uint64

	// parked is the hand-off slot: the workspace of the last Infer, with its
	// member forwards, for the Process call that may follow with the same
	// rows (handoff.go). Readers park, Process takes.
	parked atomic.Pointer[handoff]

	// health holds the fault-tolerance counters behind their own mutex:
	// Process records while a stats handler may read them.
	health struct {
		mu               sync.Mutex
		sanitizedValues  int
		sanitizedBatches int
		rejectedBatches  int
		divergences      int
		recoveries       int
		knowledgeSkipped int
		events           []RecoveryEvent
	}
}

// NewLearner builds a FreewayML learner for streams of the given feature
// dimensionality and class count.
func NewLearner(cfg Config, dim, classes int) (*Learner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	factory, err := model.FactoryFor(cfg.ModelFamily, cfg.Hyper)
	if err != nil {
		return nil, err
	}
	sc := cfg.Shift
	sc.Alpha = cfg.Alpha
	det, err := shift.NewDetector(sc)
	if err != nil {
		return nil, err
	}
	asw, err := window.New(cfg.Window)
	if err != nil {
		return nil, err
	}
	exp, err := cluster.NewExpBuffer(cfg.ExpBufferPoints, cfg.ExpBufferAge)
	if err != nil {
		return nil, err
	}
	kdg, err := knowledge.NewStore(cfg.KdgBuffer, cfg.SpillDir)
	if err != nil {
		return nil, err
	}

	// Fixed-frequency models: model i updates every 2^i batches. The last
	// slot is the ASW-driven long model.
	grans, err := strategy.BuildGranularities(factory, dim, classes, cfg.ModelNum-1, cfg.Watchdog)
	if err != nil {
		return nil, err
	}
	longHyper := cfg.Hyper
	longHyper.LR *= longLRScale
	longFactory, err := model.FactoryFor(cfg.ModelFamily, longHyper)
	if err != nil {
		return nil, err
	}
	long, err := longFactory(dim, classes)
	if err != nil {
		return nil, err
	}
	reuse, err := factory(dim, classes)
	if err != nil {
		return nil, err
	}

	l := &Learner{
		cfg:     cfg,
		det:     det,
		dim:     dim,
		classes: classes,
		exp:     exp,
		kdg:     kdg,
		guard:   guard.New(cfg.Guard, dim),
		cec:     strategy.NewCEC(exp, cfg.Seed),
		knw:     strategy.NewKnowledgeReuse(kdg, reuse, cfg.Beta),
	}
	var longWd *strategy.Watchdog
	if !cfg.Watchdog.Disabled {
		longWd = strategy.NewWatchdog("long")
	}
	l.ens = strategy.NewEnsemble(
		strategy.EnsembleConfig{
			Sigma:      cfg.Sigma,
			LongEpochs: cfg.LongEpochs,
			LongChunk:  cfg.LongChunk,
		},
		grans, long, longWd, asw,
		strategy.EnsembleDeps{
			OnRecovery: l.recordRecovery,
			BatchNum:   func() int { return l.batch },
			// Same-regime radius for knowledge replacement: distributions
			// within the stream's typical batch-to-batch wander are the
			// same regime, so a fresher snapshot overwrites the stale one.
			ReplaceRadius: func() float64 { return 1.5 * meanOf(l.det.HistoryDistances()) },
			Preserver:     l.knw,
		},
	)
	l.publishSnapshot()
	return l, nil
}

// SetObserver attaches the observability layer (nil disables it). Attach
// before the first Process call; the observer is read without locking. It
// sizes the trace's weight arena for the fusion's members: the ModelNum-1
// granularity models with either the long model or a restored match.
func (l *Learner) SetObserver(o *Observer) {
	l.obs = o
	if o != nil {
		o.trace.reserve(l.cfg.ModelNum)
	}
}

// Observer returns the attached observability layer (nil when disabled).
func (l *Learner) Observer() *Observer { return l.obs }

// Metrics returns the learner's prequential metrics: the fixed-size summary
// behind G_acc and SI, which does not grow with the stream's age.
func (l *Learner) Metrics() *metrics.Summary { return &l.preq }

// Seq returns the number of batches Process has completed, labelled or not:
// the sequence number of the next batch. A checkpoint carries it.
func (l *Learner) Seq() int { return l.batch }

// KnowledgeStore exposes the historical knowledge store (for the Table IV
// space measurements).
func (l *Learner) KnowledgeStore() *knowledge.Store { return l.kdg }

// Detector exposes the shift detector (for shift-graph export).
func (l *Learner) Detector() *shift.Detector { return l.det }

// ErrClosed is returned by Process after Close.
var ErrClosed = errors.New("core: learner closed")

// Close marks the learner closed: later Process calls return ErrClosed, while
// Infer keeps answering from the last published snapshot. It releases the
// hand-off slot. Idempotent.
func (l *Learner) Close() error {
	l.closed.Store(true)
	l.parked.Swap(nil).release()
	return nil
}

// Process runs the full pipeline on one batch: detect the shift pattern,
// select and execute one inference strategy, then (when the batch is
// labeled) train every mechanism — the predict-then-train prequential
// protocol of the paper. ctx cancels between (not within) model updates;
// a nil ctx is treated as context.Background().
func (l *Learner) Process(ctx context.Context, b stream.Batch) (Result, error) {
	if l.closed.Load() {
		return Result{}, ErrClosed
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if err := b.ValidateShape(l.dim, l.classes); err != nil {
		return Result{}, err
	}
	bo := l.obs.begin(l)
	bo.trace(b.TraceID)
	// One read of the batch: its rows are staged once, in ws — or already
	// were, by the Infer that parked ws after finding every value finite —
	// and from the guard on everything reads that slab, the learner's own
	// copy: the guard checks (and may repair) it, the detector averages it,
	// the members forward it, the mechanisms read it, the experience buffer
	// copies it and the window takes it whole. The caller's rows are never
	// written or kept (DESIGN.md, "One read of the batch per batch").
	tPred := bo.StageStart()
	ws, hit := l.batchWorkspace(b)
	defer ws.Release()
	x := ws.Staged()
	// Input guardrails: no NaN or Inf feature reaches the detector or any
	// model. The staging checked every value as it copied it — a hit's, in
	// the Infer — so a finite batch is not scanned again; a rejected batch
	// leaves every piece of learner state untouched.
	tGuard := bo.StageStart()
	rep, err := l.guard.Sanitize(x, ws.Finite())
	if err != nil {
		l.health.mu.Lock()
		l.health.rejectedBatches++
		l.health.mu.Unlock()
		bo.finishRejected()
		return Result{}, fmt.Errorf("core: %w", err)
	}
	if rep.Total() > 0 {
		l.health.mu.Lock()
		l.health.sanitizedValues += rep.Total()
		l.health.sanitizedBatches++
		l.health.mu.Unlock()
		bo.sanitized(rep.Total())
	}
	bo.StageDone(strategy.StageGuard, tGuard)
	tDet := bo.StageStart()
	// The mean a hit's Infer projected, or one taken now of the checked rows.
	obs, err := l.det.ObserveMean(x, ws.Mean())
	if err != nil {
		return Result{}, err
	}
	bo.StageDone(strategy.StageShiftDetect, tDet)

	res := Result{Pattern: obs.Pattern, SubPattern: obs.Pattern, Observation: obs, Accuracy: -1}
	if obs.Pattern.IsSlight() {
		res.SubPattern = shift.SubClassifyA(l.ens.Disorder(), l.cfg.Beta)
	}

	// One forward per member per batch: the members of the last publication
	// forward the batch once, in ws — or already did, in the Infer that
	// parked ws — and both the prediction and the short model's update read
	// that pass. The hand-off compare and a miss's staging above are
	// prediction work too: their interval, taken before the guard, is added
	// to this stage's.
	tPred = bo.StageStart().Add(-tGuard.Sub(tPred))
	l.ens.BeginBatch(ws)
	defer l.ens.EndBatch()
	bo.handoff(hit)
	if err := l.infer(x, obs, &res, bo); err != nil {
		return Result{}, err
	}
	bo.StageDone(strategy.StagePredict, tPred)

	if b.Labeled() {
		if acc, err := metrics.Accuracy(res.Pred, b.Y); err == nil {
			res.Accuracy = acc
			l.preq.Record(acc, x.Rows)
		}
		// Train every mechanism: CEC's experience buffer, then the
		// ensemble's granularity models, window and knowledge preservation
		// (knowledge reuse trains nothing per batch).
		if err := l.exp.Add(x, b.Y); err != nil {
			return Result{}, err
		}
		if err := l.ens.Train(ctx, b.Y, obs, bo); err != nil {
			return Result{}, err
		}
	}
	bo.finish(l, &res, x.Rows)
	l.batch++
	l.publishSnapshot()
	return res, nil
}

// infer serves the batch x with the one mechanism the dispatch table chooses
// (dispatch.go, paper Fig. 8), consulting first the mechanism it asks for.
func (l *Learner) infer(x *linalg.Tensor, obs shift.Observation, res *Result, bo *batchObs) error {
	var (
		ev  evidence
		p   strategy.Prediction
		err error
	)
	c := dispatch(obs, ev, l.cfg.Shift.ReoccurRatio)
	if c.ask {
		switch c.strategy {
		case StrategyCEC:
			var cec strategy.CECEvidence
			cec, err = l.cec.Infer(x, l.ens.ShortModel(), l.batch, bo)
			bo.cec(cec.Stats) // zero, and so nothing, without experience
			ev.cec = &cec
		default:
			var m strategy.KnowledgeMatch
			m, err = l.knw.Match(obs.YBar, bo)
			ev.match = &m
		}
		if err != nil {
			return fmt.Errorf("core: %w", err)
		}
		c = dispatch(obs, ev, l.cfg.Shift.ReoccurRatio)
	}
	if ev.match != nil {
		bo.knowledge(c.strategy == StrategyKnowledge, ev.match.Dist)
	}
	switch c.strategy {
	case StrategyWarmup:
		p = l.ens.InferWarmup()
	case StrategyCEC:
		p = strategy.Prediction{Pred: ev.cec.Pred}
	case StrategyKnowledge:
		if err = l.knw.Restore(ev.match, x); err == nil {
			p, err = l.ens.Infer(obs.YBar, ev.match, bo)
		}
		if err == nil && c.adopt {
			err = l.ens.AdoptShort(ev.match.Snap, obs.YBar)
		}
	default:
		p, err = l.ens.Infer(obs.YBar, nil, bo)
	}
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	res.Strategy, res.Pred, res.proba = c.strategy, p.Pred, p.Proba
	return nil
}

// meanOf returns the arithmetic mean (0 for empty input).
func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// DebugModels exposes the short and long granularity models for diagnostic
// tooling and white-box tests.
func (l *Learner) DebugModels() (short, long model.Model) {
	return l.ens.DebugModels()
}
