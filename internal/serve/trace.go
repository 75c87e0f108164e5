// Request tracing for the worker: every process call (JSON or binary frame)
// records one "worker.process" span into a bounded ring served at
// /v1/spans, and threads its trace id into the batch so the learner's
// TraceEvent joins the same trace. Trace context arrives in the W3C
// traceparent header (the router path) or embedded in a version-2 wire
// frame; the header wins when both are present, because it carries the
// router hop's parentage. A request with neither gets a freshly minted root
// context, so single-node deployments still produce joinable trace ids.

package serve

import (
	"log"
	"net/http"
	"strconv"
	"time"

	"freewayml/internal/obs"
)

// TraceIDHeader echoes the request's trace id on process responses, so
// clients that did not mint their own context learn which id to follow.
const TraceIDHeader = obs.TraceIDHeader

// WorkerMicrosHeader reports the worker-side wall time of a process call,
// letting callers (the router, the load generator) split end-to-end
// latency into hop contributions without scraping spans.
const WorkerMicrosHeader = obs.WorkerMicrosHeader

// DefaultSpanCap bounds the worker span ring.
const DefaultSpanCap = 2048

// SetWorkerID names this worker in its span records (conventionally the
// bound listen address). Call before serving; the default is "worker".
func (s *Server) SetWorkerID(id string) {
	if id != "" {
		s.workerID.Store(id)
	}
}

func (s *Server) workerIDString() string {
	if v, ok := s.workerID.Load().(string); ok && v != "" {
		return v
	}
	return "worker"
}

// spanRec accumulates one worker span from request arrival to response.
type spanRec struct {
	s     *Server
	start time.Time
	span  obs.Span
}

// beginSpan opens the worker span for one process call. headerTP is the
// traceparent HTTP header ("" off the raw binary path), frameTP the
// frame-embedded context ("" on JSON). The returned record's trace id is
// what the batch must carry.
func (s *Server) beginSpan(streamID, proto, headerTP, frameTP string, rows int) *spanRec {
	tp := headerTP
	if tp == "" {
		tp = frameTP
	}
	var traceID, parent string
	if in, ok := obs.ParseTraceparent(tp); ok {
		traceID, parent = in.TraceID, in.SpanID
	} else {
		traceID = obs.NewTraceID()
	}
	now := time.Now()
	return &spanRec{
		s:     s,
		start: now,
		span: obs.Span{
			TraceID:       traceID,
			SpanID:        obs.NewSpanID(),
			Parent:        parent,
			Name:          "worker.process",
			Service:       s.workerIDString(),
			Stream:        streamID,
			Proto:         proto,
			StartUnixNano: now.UnixNano(),
			Rows:          rows,
		},
	}
}

// traceID returns the trace id the batch should carry.
func (r *spanRec) traceID() string { return r.span.TraceID }

// finish closes the span and adds it to the ring; err annotates failures.
func (r *spanRec) finish(err error) {
	r.span.DurationMicros = obs.FormatDurationMicros(time.Since(r.start))
	if err != nil {
		r.span.Status = "error"
		r.span.Err = obs.SpanError(err)
	} else {
		r.span.Status = "ok"
	}
	r.s.spans.Add(r.span)
}

// setHeaders stamps the trace id and worker wall time onto an HTTP
// response. Call after finish.
func (r *spanRec) setHeaders(h http.Header) {
	h.Set(TraceIDHeader, r.span.TraceID)
	h.Set(WorkerMicrosHeader, strconv.FormatFloat(r.span.DurationMicros, 'f', 1, 64))
}

// handleSpans serves the worker's span ring as a JSON array: ?id=<trace id>
// returns every span of that trace (the per-worker half of the router's
// /v1/cluster/trace), ?n=K the newest K spans, and no query the whole ring.
func (s *Server) handleSpans(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	var spans []obs.Span
	if id := r.URL.Query().Get("id"); id != "" {
		spans = obs.SpansOfTrace(s.spans.Last(0), id)
	} else {
		n, err := obs.ParseLastN(r.URL.Query().Get("n"))
		if err != nil {
			s.writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		spans = s.spans.Last(n)
	}
	w.Header().Set("Content-Type", "application/json")
	if err := obs.WriteSpansJSON(w, spans); err != nil {
		log.Printf("serve: spans write failed: %v", err)
	}
}
