// The inference plane of the server: /v1/streams/{id}/infer serves pure
// predictions from each stream's atomically published model snapshot. The
// read path never takes the session lock, so inference proceeds while the
// same stream trains, checkpoints, or is evicted.

package serve

import (
	"context"
	"net/http"

	"freewayml/internal/obs"
)

// InferResponse reports the inference plane's answer for one request.
type InferResponse struct {
	Stream      string `json:"stream"`
	Predictions []int  `json:"predictions"`
	// Strategy is "warmup" while the stream's snapshot predates the
	// detector's PCA fit, "ensemble" afterwards.
	Strategy string `json:"strategy"`
	// SnapshotBatch is the training batch counter of the snapshot that
	// answered; SnapshotAgeMS how stale it was at read time.
	SnapshotBatch int     `json:"snapshot_batch"`
	SnapshotAgeMS float64 `json:"snapshot_age_ms"`
	// KnowledgeDistance is the distance to the nearest preserved concept
	// (-1 when no knowledge index applies).
	KnowledgeDistance float64 `json:"knowledge_distance"`
}

// handleInfer serves POST /v1/streams/{id}/infer: a label-less batch (JSON
// ProcessRequest without y, or a label-less binary frame) predicted from
// the stream's published snapshot.
func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request, id string) {
	f, proto, ok := s.decodeBatch(w, r, id)
	if !ok {
		return
	}
	defer putFrame(f)
	if f.Y != nil {
		s.writeError(w, http.StatusBadRequest, "infer is label-less: submit labeled batches to /process")
		return
	}
	// A malformed shape is a 400 here; a non-finite value is refused by the
	// learner's staging, which checks every value as it copies it, with
	// guard.ErrRejected: a 422 (errStatus).
	if err := validateRows(f.X, nil, s.dim, s.classes); err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	rec := s.beginInferSpan(id, proto, r.Header.Get(obs.TraceparentHeader), f.Traceparent, len(f.X))
	out, status, err := s.infer(r.Context(), id, f.X)
	s.respond(w, rec, out, status, err)
}

// infer predicts one validated label-less batch from the stream's published
// snapshot.
func (s *Server) infer(ctx context.Context, id string, x [][]float64) (InferResponse, int, error) {
	res, err := s.mgr.Infer(ctx, id, x)
	if err != nil {
		return InferResponse{}, s.errStatus(err), err
	}
	return InferResponse{
		Stream:            id,
		Predictions:       res.Pred,
		Strategy:          res.Strategy.String(),
		SnapshotBatch:     res.SnapshotBatch,
		SnapshotAgeMS:     float64(res.SnapshotAge.Microseconds()) / 1000,
		KnowledgeDistance: res.KnowledgeDist,
	}, http.StatusOK, nil
}

// beginInferSpan opens a worker span for one inference call — the infer
// plane's trace events, joinable by trace id with the router's forward
// spans and the training plane's worker.process spans.
func (s *Server) beginInferSpan(streamID, proto, headerTP, frameTP string, rows int) *spanRec {
	rec := s.beginSpan(streamID, proto, headerTP, frameTP, rows)
	rec.span.Name = "worker.infer"
	return rec
}
