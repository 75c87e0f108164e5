package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// StageTiming is one pipeline stage's wall time within a batch.
type StageTiming struct {
	Stage  string  `json:"stage"`
	Micros float64 `json:"micros"`
}

// TraceEvent is one structured decision record per processed batch: which
// shift pattern was detected, which adaptive mechanism was dispatched, the
// evidence behind the decision, and how long each stage took. Fields that
// can be ±Inf in the pipeline (NearestHistory when no history exists) are
// recorded as -1 so every event stays JSON-encodable.
type TraceEvent struct {
	// Batch is the stream position (0-based).
	Batch int `json:"batch"`
	// Pattern is the detector's verdict; SubPattern refines slight shifts
	// into A1/A2 (empty when not slight).
	Pattern    string `json:"pattern"`
	SubPattern string `json:"sub_pattern,omitempty"`
	// Strategy names the dispatched mechanism.
	Strategy string `json:"strategy"`
	// Shift evidence: d_t, its weighted z-score M, the recent mean μ_d,
	// and the nearest-history distance d_h (-1 when no eligible history).
	ShiftDistance  float64 `json:"shift_distance"`
	Severity       float64 `json:"severity"`
	HistoryMean    float64 `json:"history_mean"`
	NearestHistory float64 `json:"nearest_history"`
	// Window state: normalized disorder, the rate-adjuster's decay boost,
	// stored batches/items after the push, and whether the push closed the
	// window (triggering a long-model update + knowledge preservation).
	Disorder      float64 `json:"disorder"`
	DecayBoost    float64 `json:"decay_boost,omitempty"`
	WindowBatches int     `json:"window_batches"`
	WindowItems   int     `json:"window_items"`
	WindowClosed  bool    `json:"window_closed,omitempty"`
	// EnsembleWeights are the normalized kernel weights of the fusion,
	// short model first, long model last (knowledge-restored model first
	// under knowledge reuse). Empty when no fusion ran.
	EnsembleWeights []float64 `json:"ensemble_weights,omitempty"`
	// CEC evidence (sudden-shift dispatches): effective cluster count,
	// Lloyd iterations, coherent-experience points used, and the
	// labeled-experience agreement behind the arbitration.
	CECClusters   int     `json:"cec_clusters,omitempty"`
	CECIterations int     `json:"cec_iterations,omitempty"`
	CECExperience int     `json:"cec_experience,omitempty"`
	CECAgreement  float64 `json:"cec_agreement,omitempty"`
	// Knowledge-store evidence: whether a lookup ran, whether it matched,
	// and the matched distribution's distance (-1 when no match).
	KnowledgeChecked  bool    `json:"knowledge_checked,omitempty"`
	KnowledgeHit      bool    `json:"knowledge_hit,omitempty"`
	KnowledgeDistance float64 `json:"knowledge_distance,omitempty"`
	// Guardrail and watchdog verdicts for the batch.
	GuardSanitized int  `json:"guard_sanitized,omitempty"`
	GuardRejected  bool `json:"guard_rejected,omitempty"`
	Divergences    int  `json:"divergences,omitempty"`
	// Accuracy is the batch's real-time accuracy (-1 when unlabeled).
	Accuracy float64 `json:"accuracy"`
	// TraceID joins this event to the request-scoped trace that carried
	// the batch (empty for untraced ingestion paths).
	TraceID string `json:"trace_id,omitempty"`
	// Stages are the per-stage wall times, pipeline order.
	Stages []StageTiming `json:"stages"`
}

// TraceRing is a bounded ring buffer of decision events. Memory is bounded
// by the capacity fixed at construction: the ring never grows, and the
// oldest event is overwritten (and counted as dropped) once full. Safe for
// concurrent writers and readers.
type TraceRing struct {
	mu      sync.Mutex
	buf     []TraceEvent
	next    int // index the next Add writes to
	n       int // events currently held
	dropped int64
}

// NewTraceRing returns a ring holding at most capacity events
// (capacity < 1 is raised to 1).
func NewTraceRing(capacity int) *TraceRing {
	if capacity < 1 {
		capacity = 1
	}
	return &TraceRing{buf: make([]TraceEvent, capacity)}
}

// Add appends an event, evicting the oldest when full.
func (t *TraceRing) Add(ev TraceEvent) {
	t.mu.Lock()
	if t.n == len(t.buf) {
		t.dropped++
	} else {
		t.n++
	}
	t.buf[t.next] = ev
	t.next = (t.next + 1) % len(t.buf)
	t.mu.Unlock()
}

// Len returns the number of retained events.
func (t *TraceRing) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Cap returns the ring's fixed capacity.
func (t *TraceRing) Cap() int { return len(t.buf) }

// Dropped returns how many events have been evicted.
func (t *TraceRing) Dropped() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Last returns up to n retained events in chronological order (oldest
// first, newest last). n <= 0 returns every retained event.
func (t *TraceRing) Last(n int) []TraceEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n <= 0 || n > t.n {
		n = t.n
	}
	out := make([]TraceEvent, n)
	start := t.next - n
	if start < 0 {
		start += len(t.buf)
	}
	for i := 0; i < n; i++ {
		out[i] = t.buf[(start+i)%len(t.buf)]
	}
	return out
}

// Newest returns the most recently added event, ok=false when empty.
func (t *TraceRing) Newest() (TraceEvent, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n == 0 {
		return TraceEvent{}, false
	}
	i := t.next - 1
	if i < 0 {
		i += len(t.buf)
	}
	return t.buf[i], true
}

// WriteJSONL encodes up to n events (oldest first) as one JSON object per
// line — the /v1/trace and `freeway -trace` format.
func (t *TraceRing) WriteJSONL(w io.Writer, n int) error {
	enc := json.NewEncoder(w)
	var firstErr error
	for _, ev := range t.Last(n) {
		if err := enc.Encode(ev); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// EncodeJSONL writes one event as a single JSONL line.
func EncodeJSONL(w io.Writer, ev TraceEvent) error {
	return json.NewEncoder(w).Encode(ev)
}
