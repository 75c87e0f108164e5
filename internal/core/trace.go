package core

import (
	"encoding/hex"
	"slices"
	"sync"
	"time"

	"freewayml/internal/obs"
	"freewayml/internal/shift"
	"freewayml/internal/strategy"
)

// maxStages bounds the stage timings of one batch: every stage of
// strategy.StageNames once, and long_update a second time, for a batch that
// lands one window close and begins the next (MaxBatches = 1).
const maxStages = 9

// Flag bits of a traceRecord.
const (
	flagWindowClosed uint8 = 1 << iota
	flagKnowledgeChecked
	flagKnowledgeHit
	flagGuardRejected
	flagForwardHandoff
	flagHexTraceID // traceID holds the batch's 32-hex-digit trace id
)

// traceRecord is one batch's decision record as the trace keeps it: fixed in
// size and free of pointers, so a full trace is one flat array that the
// garbage collector never scans, and recording a batch allocates nothing.
// Reading the trace renders each record as the obs.TraceEvent it stands for
// (event). Its fusion weights live in the trace's arena, and a trace id that
// is not 32 lowercase hex digits in the trace's string slots.
type traceRecord struct {
	batch int

	// The evidence, with the -1 sentinels of obs.TraceEvent.
	shiftDistance, severity, historyMean, nearestHistory float64
	disorder                                             float64
	cecAgreement, cecDeployedAgreement                   float64
	knowledgeDistance, accuracy                          float64

	windowBatches, windowItems                int
	cecClusters, cecIterations, cecExperience int
	guardSanitized, divergences               int
	weights                                   int // fusion weights in the arena slot

	// The stages in the order they ran: nStages durations, each of the
	// stage strategy.StageNames[stage[i]].
	stageTime [maxStages]time.Duration
	stage     [maxStages]uint8
	nStages   uint8

	pattern, subPattern uint8 // shift.Pattern
	strategy            uint8 // Strategy
	flags               uint8
	traceID             [16]byte
}

// newTraceRecord opens batch's record with the sentinels of an event that has
// no history distance, knowledge match or accuracy yet.
func newTraceRecord(batch int) traceRecord {
	return traceRecord{batch: batch, nearestHistory: -1, knowledgeDistance: -1, accuracy: -1}
}

// addStage appends one stage's wall time and returns the stage's index in
// strategy.StageNames. A batch runs at most maxStages stages; one more is a
// pipeline this record was not sized for, and it panics rather than lose the
// stage.
func (r *traceRecord) addStage(name string, d time.Duration) int {
	i := slices.Index(strategy.StageNames, name)
	if i < 0 {
		panic("core: trace: unknown stage " + name)
	}
	if int(r.nStages) == maxStages {
		panic("core: trace: more than maxStages stages in one batch")
	}
	r.stage[r.nStages], r.stageTime[r.nStages] = uint8(i), d
	r.nStages++
	return i
}

// setTraceID keeps id in the record when it is 32 lowercase hex digits — the
// form obs.NewTraceID mints and obs.ParseTraceparent accepts — and reports
// whether it did.
func (r *traceRecord) setTraceID(id string) bool {
	if len(id) != 2*len(r.traceID) {
		return false
	}
	var b [len(r.traceID)]byte
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		default:
			return false
		}
		b[i/2] = b[i/2]<<4 | c
	}
	r.traceID = b
	r.flags |= flagHexTraceID
	return true
}

// event renders the record: weights are its fusion weights, which the event
// gets a copy of, and id its trace id when that is not in the record.
func (r *traceRecord) event(weights []float64, id string) obs.TraceEvent {
	ev := obs.TraceEvent{
		Batch:                r.batch,
		ShiftDistance:        r.shiftDistance,
		Severity:             r.severity,
		HistoryMean:          r.historyMean,
		NearestHistory:       r.nearestHistory,
		Disorder:             r.disorder,
		WindowBatches:        r.windowBatches,
		WindowItems:          r.windowItems,
		WindowClosed:         r.flags&flagWindowClosed != 0,
		CECClusters:          r.cecClusters,
		CECIterations:        r.cecIterations,
		CECExperience:        r.cecExperience,
		CECAgreement:         r.cecAgreement,
		CECDeployedAgreement: r.cecDeployedAgreement,
		KnowledgeChecked:     r.flags&flagKnowledgeChecked != 0,
		KnowledgeHit:         r.flags&flagKnowledgeHit != 0,
		KnowledgeDistance:    r.knowledgeDistance,
		GuardSanitized:       r.guardSanitized,
		GuardRejected:        r.flags&flagGuardRejected != 0,
		Divergences:          r.divergences,
		ForwardHandoff:       r.flags&flagForwardHandoff != 0,
		Accuracy:             r.accuracy,
		TraceID:              id,
		Stages:               make([]obs.StageTiming, r.nStages),
	}
	if ev.GuardRejected {
		ev.Pattern = "rejected"
	} else {
		p, sub := shift.Pattern(r.pattern), shift.Pattern(r.subPattern)
		ev.Pattern, ev.Strategy = p.String(), Strategy(r.strategy).String()
		if sub != p {
			ev.SubPattern = sub.String()
		}
	}
	if len(weights) > 0 {
		ev.EnsembleWeights = slices.Clone(weights)
	}
	if r.flags&flagHexTraceID != 0 {
		ev.TraceID = hex.EncodeToString(r.traceID[:])
	}
	for i := range ev.Stages {
		d := r.stageTime[i]
		ev.Stages[i] = obs.StageTiming{Stage: strategy.StageNames[r.stage[i]], Micros: float64(d) / float64(time.Microsecond)}
	}
	return ev
}

// DecisionTrace is a learner's bounded decision trace: the newest records in
// an obs.Ring, each batch's fusion weights in an arena of capacity × width
// float64s, slot for slot with the ring, and the trace ids that are not in hex
// form in strings beside them. Process adds; any goroutine reads, and every
// read renders fresh obs.TraceEvents.
type DecisionTrace struct {
	mu      sync.Mutex // orders adds and renders: the arena slots are reused
	ring    *obs.Ring[traceRecord]
	slots   int       // the ring's capacity
	added   int       // records ever added: the next one takes slot added % slots
	width   int       // weights per arena slot
	weights []float64 // slots × width
	ids     []string  // nil until a trace id not in hex form arrives
}

func newDecisionTrace(capacity int) *DecisionTrace {
	capacity = max(capacity, 1)
	return &DecisionTrace{ring: obs.NewRing[traceRecord](capacity), slots: capacity}
}

// reserve widens every arena slot to hold at least w weights.
func (t *DecisionTrace) reserve(w int) {
	t.mu.Lock()
	t.widen(w)
	t.mu.Unlock()
}

func (t *DecisionTrace) widen(w int) {
	if w <= t.width {
		return
	}
	grown := make([]float64, t.slots*w)
	for s := 0; t.width > 0 && s < t.slots; s++ {
		copy(grown[s*w:], t.weights[s*t.width:(s+1)*t.width])
	}
	t.weights, t.width = grown, w
}

// add appends rec, its fusion weights and, unless the record holds it, its
// trace id, evicting the oldest record when the trace is full.
func (t *DecisionTrace) add(rec *traceRecord, weights []float64, id string) {
	t.mu.Lock()
	slot := t.added % t.slots
	t.widen(len(weights))
	rec.weights = copy(t.weights[slot*t.width:], weights)
	if id != "" && t.ids == nil {
		t.ids = make([]string, t.slots)
	}
	if t.ids != nil {
		t.ids[slot] = id
	}
	t.ring.Add(*rec)
	t.added++
	t.mu.Unlock()
}

// Last renders the newest n retained records, oldest first (n <= 0, or more
// than are retained: all of them). Each event owns its slices.
func (t *DecisionTrace) Last(n int) []obs.TraceEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	recs := t.ring.Last(n)
	out := make([]obs.TraceEvent, len(recs))
	first := t.added - len(recs)
	for i := range recs {
		slot := (first + i) % t.slots
		var id string
		if t.ids != nil {
			id = t.ids[slot]
		}
		out[i] = recs[i].event(t.weights[slot*t.width:][:recs[i].weights], id)
	}
	return out
}

// Len returns the number of retained records.
func (t *DecisionTrace) Len() int { return t.ring.Len() }

// Dropped returns how many records have been evicted.
func (t *DecisionTrace) Dropped() int64 { return t.ring.Dropped() }
