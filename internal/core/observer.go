package core

import (
	"math"
	"time"

	"freewayml/internal/cluster"
	"freewayml/internal/knowledge"
	"freewayml/internal/obs"
	"freewayml/internal/shift"
	"freewayml/internal/strategy"
)

// Observer instruments a Learner: it maintains Prometheus-style series in an
// obs.Registry and records one decision record per processed batch in a
// bounded trace (DecisionTrace), which renders them as obs.TraceEvents. Every
// series handle is resolved once at construction so the per-batch cost is
// atomic increments, not registry lookups. A nil *Observer is valid and
// disables all instrumentation.
//
// An observer may carry base labels (e.g. stream="orders") appended to every
// series it registers, so many learners can share one registry — the
// multi-stream session layer labels each session's observer with its stream
// id.
type Observer struct {
	reg   *obs.Registry
	trace *DecisionTrace
	base  []string // base label key/value pairs appended to every series

	batches    *obs.Counter
	samples    *obs.Counter
	processSec *obs.Histogram
	stage      []*obs.Histogram // by index in strategy.StageNames
	pattern    map[string]*obs.Counter
	strategy   map[string]*obs.Counter

	guardValues   *obs.Counter
	guardBatches  *obs.Counter
	guardRejected *obs.Counter

	wdDivergences *obs.Counter
	wdRollbacks   *obs.Counter

	kHits         *obs.Counter
	kMisses       *obs.Counter
	kPreserves    *obs.Counter
	kReplacements *obs.Counter

	handoffHit  *obs.Counter
	handoffMiss *obs.Counter

	winCloses    *obs.Counter
	winEvictions *obs.Counter
	traceDropped *obs.Counter

	// Inference-plane series. Unlike the training-plane fields above, these
	// are bumped from many concurrent reader goroutines; all series ops are
	// atomic, so no extra synchronization is needed.
	inferReqs   *obs.Counter
	inferRows   *obs.Counter
	inferWarmup *obs.Counter
	inferSec    *obs.Histogram
	gSnapAge    *obs.Gauge
	gSnapBatch  *obs.Gauge

	gWinBatches *obs.Gauge
	gWinItems   *obs.Gauge
	gDisorder   *obs.Gauge
	gKEntries   *obs.Gauge
	gKBytes     *obs.Gauge
	gKSpilled   *obs.Gauge
	gAccuracy   *obs.Gauge
	gWeight     map[string]*obs.Gauge // member: short, long, knowledge

	// Delta baselines for counters mirrored from mechanism packages. Only
	// the Process goroutine touches them (finish runs there).
	lastK         knowledge.Counters
	lastEvictions int
	lastDropped   int64
}

// NewObserver builds an observer registering into reg (nil selects
// obs.Default) with a decision trace of traceCap records (<=0 selects 1024).
func NewObserver(reg *obs.Registry, traceCap int) *Observer {
	return NewObserverLabeled(reg, traceCap)
}

// NewObserverLabeled builds an observer whose every series carries the
// given base label key/value pairs (e.g. "stream", "orders"), so many
// observers can coexist in one registry.
func NewObserverLabeled(reg *obs.Registry, traceCap int, baseLabels ...string) *Observer {
	if reg == nil {
		reg = obs.Default
	}
	if traceCap <= 0 {
		traceCap = 1024
	}
	o := &Observer{
		reg:   reg,
		trace: newDecisionTrace(traceCap),
		base:  baseLabels,
	}
	o.batches = reg.Counter("freeway_batches_total", "Batches processed by the learner.", o.lbl()...)
	o.samples = reg.Counter("freeway_samples_total", "Samples processed by the learner.", o.lbl()...)
	o.processSec = reg.Histogram("freeway_process_seconds", "End-to-end Process latency per batch.", nil, o.lbl()...)
	o.pattern = map[string]*obs.Counter{}
	o.strategy = map[string]*obs.Counter{}

	o.guardValues = reg.Counter("freeway_guard_sanitized_values_total", "Non-finite feature values repaired by the input guard.", o.lbl()...)
	o.guardBatches = reg.Counter("freeway_guard_sanitized_batches_total", "Batches with at least one repaired value.", o.lbl()...)
	o.guardRejected = reg.Counter("freeway_guard_rejected_batches_total", "Batches refused by the input guard's reject policy.", o.lbl()...)

	o.wdDivergences = reg.Counter("freeway_watchdog_divergences_total", "Model divergences detected by the watchdog.", o.lbl()...)
	o.wdRollbacks = reg.Counter("freeway_watchdog_rollbacks_total", "Watchdog rollbacks to a healthy snapshot.", o.lbl()...)

	o.kHits = reg.Counter("freeway_knowledge_lookups_total", "Knowledge-store lookups by outcome (hit = confident reuse).", o.lbl("result", "hit")...)
	o.kMisses = reg.Counter("freeway_knowledge_lookups_total", "Knowledge-store lookups by outcome (hit = confident reuse).", o.lbl("result", "miss")...)
	o.kPreserves = reg.Counter("freeway_knowledge_preserves_total", "Snapshots preserved into the knowledge store.", o.lbl()...)
	o.kReplacements = reg.Counter("freeway_knowledge_replacements_total", "Same-regime snapshots replaced in place.", o.lbl()...)

	o.handoffHit = reg.Counter("freeway_forward_handoff_total", "Process calls by whether they took an Infer's member forwards over the same rows and snapshot (hit) or ran their own (miss).", o.lbl("result", "hit")...)
	o.handoffMiss = reg.Counter("freeway_forward_handoff_total", "Process calls by whether they took an Infer's member forwards over the same rows and snapshot (hit) or ran their own (miss).", o.lbl("result", "miss")...)

	o.inferReqs = reg.Counter("freeway_infer_requests_total", "Inference-plane requests served from the published snapshot.", o.lbl()...)
	o.inferRows = reg.Counter("freeway_infer_rows_total", "Rows predicted by the inference plane.", o.lbl()...)
	o.inferWarmup = reg.Counter("freeway_infer_warmup_total", "Inference-plane requests served by the short model alone (pre-PCA warm-up).", o.lbl()...)
	o.inferSec = reg.Histogram("freeway_infer_seconds", "Inference-plane request latency (snapshot load to fused prediction).", nil, o.lbl()...)
	o.gSnapAge = reg.Gauge("freeway_snapshot_age_seconds", "Age of the published model snapshot at the last inference.", o.lbl()...)
	o.gSnapBatch = reg.Gauge("freeway_snapshot_batch", "Training batch counter of the published model snapshot.", o.lbl()...)

	o.winCloses = reg.Counter("freeway_window_closes_total", "Adaptive-window closes (long-model update triggers).", o.lbl()...)
	o.winEvictions = reg.Counter("freeway_window_evictions_total", "Window batches evicted by decay-weight expiry.", o.lbl()...)
	o.traceDropped = reg.Counter("freeway_trace_dropped_total", "Decision-trace events evicted from the bounded trace ring.", o.lbl()...)

	o.gWinBatches = reg.Gauge("freeway_window_batches", "Batches currently held by the adaptive streaming window.", o.lbl()...)
	o.gWinItems = reg.Gauge("freeway_window_items", "Samples currently held by the adaptive streaming window.", o.lbl()...)
	o.gDisorder = reg.Gauge("freeway_window_disorder", "Normalized window disorder (A1/A2 and β-policy evidence).", o.lbl()...)
	o.gKEntries = reg.Gauge("freeway_knowledge_entries", "Entries in the historical knowledge store.", o.lbl()...)
	o.gKBytes = reg.Gauge("freeway_knowledge_bytes", "In-memory bytes held by the knowledge store.", o.lbl()...)
	o.gKSpilled = reg.Gauge("freeway_knowledge_spilled", "Knowledge entries spilled to disk.", o.lbl()...)
	o.gAccuracy = reg.Gauge("freeway_batch_accuracy", "Real-time accuracy of the most recent labeled batch.", o.lbl()...)
	o.gWeight = map[string]*obs.Gauge{}

	for _, s := range strategy.StageNames {
		o.stage = append(o.stage, reg.Histogram("freeway_stage_seconds", "Per-stage latency within Process.", nil, o.lbl("stage", s)...))
	}
	for _, p := range []shift.Pattern{shift.PatternWarmup, shift.PatternA, shift.PatternA1, shift.PatternA2, shift.PatternB, shift.PatternC} {
		o.pattern[p.Label()] = reg.Counter("freeway_pattern_total", "Batches per detected shift pattern (A1/A2 slight, B sudden, C reoccurring).", o.lbl("pattern", p.Label())...)
	}
	for _, s := range []Strategy{StrategyWarmup, StrategyEnsemble, StrategyCEC, StrategyKnowledge} {
		o.strategy[s.String()] = reg.Counter("freeway_strategy_total", "Batches per dispatched adaptation strategy.", o.lbl("strategy", s.String())...)
	}
	for _, m := range []string{"short", "long", "knowledge"} {
		o.gWeight[m] = reg.Gauge("freeway_ensemble_weight", "Latest normalized fusion weight per ensemble member.", o.lbl("member", m)...)
	}
	return o
}

// lbl appends the observer's base labels to the given key/value pairs (the
// registry sorts label keys at render time, so order is irrelevant).
func (o *Observer) lbl(kv ...string) []string {
	if len(o.base) == 0 {
		return kv
	}
	out := make([]string, 0, len(kv)+len(o.base))
	out = append(out, kv...)
	return append(out, o.base...)
}

// Trace returns the bounded decision trace.
func (o *Observer) Trace() *DecisionTrace { return o.trace }

// InferObserved records one inference-plane request: the rows served, the
// request latency, and the age/batch of the snapshot that answered. Called
// concurrently from many reader goroutines; every series op is atomic. A
// nil observer disables it.
func (o *Observer) InferObserved(rows int, d, snapAge time.Duration, snapBatch int, warmup bool) {
	if o == nil {
		return
	}
	o.inferReqs.Inc()
	o.inferRows.Add(int64(rows))
	if warmup {
		o.inferWarmup.Inc()
	}
	o.inferSec.Observe(d.Seconds())
	o.gSnapAge.Set(snapAge.Seconds())
	o.gSnapBatch.Set(float64(snapBatch))
}

// recordDivergence counts one watchdog event. Safe on a nil receiver.
func (o *Observer) recordDivergence(rolledBack bool) {
	if o == nil {
		return
	}
	o.wdDivergences.Inc()
	if rolledBack {
		o.wdRollbacks.Inc()
	}
}

// begin opens the batch's record in the learner's carrier, l.bo, which
// every batch reuses. Returns nil (disabling every downstream hook) when the
// observer itself is nil.
func (o *Observer) begin(l *Learner) *batchObs {
	if o == nil {
		return nil
	}
	bo := &l.bo
	bo.o, bo.start = o, time.Now()
	bo.rec = newTraceRecord(l.batch)
	bo.weights, bo.traceID = bo.weights[:0], ""
	return bo
}

// batchObs carries one batch's decision record while Process runs: the
// hooks write into it and finish copies it into the trace, so observing a
// batch allocates nothing. A learner owns one and reuses it for every batch
// (Process runs on one goroutine at a time). Every method is nil-safe so the
// learner's hot path needs no explicit guards; a nil *batchObs also
// satisfies strategy.Trace, so the mechanisms call hooks unconditionally.
type batchObs struct {
	o       *Observer
	start   time.Time
	rec     traceRecord
	weights []float64 // the fusion weights, storage reused batch to batch
	traceID string
}

// compile-time check: the per-batch collector is the strategies' trace.
var _ strategy.Trace = (*batchObs)(nil)

// StageStart returns the stage start time (zero when instrumentation is
// off).
func (bo *batchObs) StageStart() time.Time {
	if bo == nil {
		return time.Time{}
	}
	return time.Now()
}

// StageDone closes a stage opened with StageStart: it appends the timing to
// the record and observes the stage histogram.
func (bo *batchObs) StageDone(name string, t0 time.Time) {
	if bo == nil {
		return
	}
	d := time.Since(t0)
	bo.o.stage[bo.rec.addStage(name, d)].Observe(d.Seconds())
}

// trace joins the batch's request-scoped trace context to the record, so
// one trace id links router span → worker span → this decision record.
func (bo *batchObs) trace(id string) {
	if bo == nil {
		return
	}
	bo.traceID = id
}

// handoff records whether the Process call took a parked Infer's forwards.
func (bo *batchObs) handoff(hit bool) {
	if bo == nil {
		return
	}
	if hit {
		bo.rec.flags |= flagForwardHandoff
	}
}

// sanitized records repaired feature values.
func (bo *batchObs) sanitized(n int) {
	if bo == nil {
		return
	}
	bo.rec.guardSanitized = n
}

// Weights records the fusion weights (first member = knowledge-restored
// model under knowledge reuse, else the short model; last = long model for
// the plain ensemble). The carrier keeps its own copy: ws is scratch that the
// next batch, or the next reader of a workspace, overwrites.
func (bo *batchObs) Weights(ws []float64) {
	if bo == nil {
		return
	}
	bo.weights = append(bo.weights[:0], ws...)
}

// cec records the clustering evidence behind a CEC consultation.
func (bo *batchObs) cec(st cluster.CECStats) {
	if bo == nil {
		return
	}
	bo.rec.cecClusters = st.K
	bo.rec.cecIterations = st.Iterations
	bo.rec.cecExperience = st.ExperiencePoints
	bo.rec.cecAgreement = st.Agreement
	bo.rec.cecDeployedAgreement = st.DeployedAgreement
}

// knowledge records a knowledge-store lookup: hit means the dispatch table
// gave the batch to knowledge reuse; dist is the matched distribution's
// distance (ignored and kept at -1 unless finite).
func (bo *batchObs) knowledge(hit bool, dist float64) {
	if bo == nil {
		return
	}
	bo.rec.flags |= flagKnowledgeChecked
	if hit {
		bo.rec.flags |= flagKnowledgeHit
	}
	if !math.IsInf(dist, 0) && !math.IsNaN(dist) {
		bo.rec.knowledgeDistance = dist
	}
}

// WindowClosed marks that this batch's push closed the window.
func (bo *batchObs) WindowClosed() {
	if bo == nil {
		return
	}
	bo.rec.flags |= flagWindowClosed
}

// finishRejected records a guard-rejected batch: nothing ran, so the record
// carries only the verdict.
func (bo *batchObs) finishRejected() {
	if bo == nil {
		return
	}
	bo.o.guardRejected.Inc()
	bo.rec.flags |= flagGuardRejected
	bo.StageDone(strategy.StageGuard, bo.start)
	bo.record()
}

// record copies the carrier into the trace.
func (bo *batchObs) record() {
	id := bo.traceID
	if bo.rec.setTraceID(id) {
		id = ""
	}
	bo.o.trace.add(&bo.rec, bo.weights, id)
	bo.o.mirrorDropped()
}

// finish completes the batch: fills the record from the result, updates
// every counter and gauge, and adds the record to the trace. Runs on the
// Process goroutine.
func (bo *batchObs) finish(l *Learner, res *Result, samples int) {
	if bo == nil {
		return
	}
	o := bo.o
	ob := res.Observation

	r := &bo.rec
	r.pattern, r.subPattern, r.strategy = uint8(ob.Pattern), uint8(res.SubPattern), uint8(res.Strategy)
	r.shiftDistance = ob.Distance
	r.severity = ob.Severity
	r.historyMean = ob.HistoryMean
	if !math.IsInf(ob.NearestHistory, 0) && !math.IsNaN(ob.NearestHistory) {
		r.nearestHistory = ob.NearestHistory
	}
	r.disorder = l.ens.Disorder()
	r.windowBatches = l.ens.WindowLen()
	r.windowItems = l.ens.WindowItems()
	r.accuracy = res.Accuracy

	// Counters.
	o.batches.Inc()
	o.samples.Add(int64(samples))
	label := res.SubPattern.Label()
	if c := o.pattern[label]; c != nil {
		c.Inc()
	} else {
		o.reg.Counter("freeway_pattern_total", "", o.lbl("pattern", label)...).Inc()
	}
	st := res.Strategy.String()
	if c := o.strategy[st]; c != nil {
		c.Inc()
	} else {
		o.reg.Counter("freeway_strategy_total", "", o.lbl("strategy", st)...).Inc()
	}
	if r.guardSanitized > 0 {
		o.guardValues.Add(int64(r.guardSanitized))
		o.guardBatches.Inc()
	}
	if r.flags&flagKnowledgeChecked != 0 {
		if r.flags&flagKnowledgeHit != 0 {
			o.kHits.Inc()
		} else {
			o.kMisses.Inc()
		}
	}
	if r.flags&flagWindowClosed != 0 {
		o.winCloses.Inc()
	}
	if r.flags&flagForwardHandoff != 0 {
		o.handoffHit.Inc()
	} else {
		o.handoffMiss.Inc()
	}

	// Mirror mechanism-package lifetime counters as deltas so they stay
	// proper monotone counters.
	kc := l.kdg.Counters()
	if d := kc.Preserves - o.lastK.Preserves; d > 0 {
		o.kPreserves.Add(int64(d))
	}
	if d := kc.Replacements - o.lastK.Replacements; d > 0 {
		o.kReplacements.Add(int64(d))
	}
	o.lastK = kc
	if ev := l.ens.WindowEvictions(); ev > o.lastEvictions {
		o.winEvictions.Add(int64(ev - o.lastEvictions))
		o.lastEvictions = ev
	}

	// Gauges.
	o.gWinBatches.Set(float64(r.windowBatches))
	o.gWinItems.Set(float64(r.windowItems))
	o.gDisorder.Set(r.disorder)
	o.gKEntries.Set(float64(l.kdg.Len()))
	o.gKBytes.Set(float64(l.kdg.MemoryBytes()))
	o.gKSpilled.Set(float64(l.kdg.SpilledCount()))
	if res.Accuracy >= 0 {
		o.gAccuracy.Set(res.Accuracy)
	}
	if ws := bo.weights; len(ws) > 0 {
		switch res.Strategy {
		case StrategyKnowledge:
			o.gWeight["knowledge"].Set(ws[0])
			if len(ws) > 1 {
				o.gWeight["short"].Set(ws[1])
			}
		case StrategyEnsemble:
			o.gWeight["short"].Set(ws[0])
			o.gWeight["long"].Set(ws[len(ws)-1])
			o.gWeight["knowledge"].Set(0)
		}
	}

	o.processSec.Observe(time.Since(bo.start).Seconds())
	bo.record()
}

// mirrorDropped exports the trace's eviction count as a monotone
// counter (delta-mirrored like the mechanism-package counters above, and
// likewise only touched from the Process goroutine).
func (o *Observer) mirrorDropped() {
	if d := o.trace.Dropped(); d > o.lastDropped {
		o.traceDropped.Add(d - o.lastDropped)
		o.lastDropped = d
	}
}
