package obs

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
	// Window state: normalized disorder, stored batches/items after the
	// push, and whether the push closed the window (triggering a long-model
	// update + knowledge preservation).
	Disorder      float64 `json:"disorder"`
	WindowBatches int     `json:"window_batches"`
	WindowItems   int     `json:"window_items"`
	WindowClosed  bool    `json:"window_closed,omitempty"`
	// EnsembleWeights are the normalized kernel weights of the fusion,
	// short model first, long model last (knowledge-restored model first
	// under knowledge reuse). Empty when no fusion ran.
	EnsembleWeights []float64 `json:"ensemble_weights,omitempty"`
	// CEC evidence (sudden-shift dispatches): effective cluster count,
	// Lloyd iterations, coherent-experience points used, and the two sides
	// of the arbitration: CEC's labeled-experience agreement and the
	// deployed model's agreement with the same points.
	CECClusters          int     `json:"cec_clusters,omitempty"`
	CECIterations        int     `json:"cec_iterations,omitempty"`
	CECExperience        int     `json:"cec_experience,omitempty"`
	CECAgreement         float64 `json:"cec_agreement,omitempty"`
	CECDeployedAgreement float64 `json:"cec_deployed_agreement,omitempty"`
	// Knowledge-store evidence: whether a lookup ran, whether it matched,
	// and the matched distribution's distance (-1 when no match).
	KnowledgeChecked  bool    `json:"knowledge_checked,omitempty"`
	KnowledgeHit      bool    `json:"knowledge_hit,omitempty"`
	KnowledgeDistance float64 `json:"knowledge_distance,omitempty"`
	// Guardrail and watchdog verdicts for the batch.
	GuardSanitized int  `json:"guard_sanitized,omitempty"`
	GuardRejected  bool `json:"guard_rejected,omitempty"`
	Divergences    int  `json:"divergences,omitempty"`
	// ForwardHandoff reports that Process took the member forwards of an
	// Infer of the same rows on the same snapshot instead of running them.
	ForwardHandoff bool `json:"forward_handoff,omitempty"`
	// Accuracy is the batch's real-time accuracy (-1 when unlabeled).
	Accuracy float64 `json:"accuracy"`
	// TraceID joins this event to the request-scoped trace that carried
	// the batch (empty for untraced ingestion paths).
	TraceID string `json:"trace_id,omitempty"`
	// Stages are the per-stage wall times, pipeline order.
	Stages []StageTiming `json:"stages"`
}
