// Package serve exposes FreewayML streams as an HTTP JSON service — the
// deployment posture of paper Sec. V, where the framework is connected to
// live streams whose batches arrive labeled (training) or unlabeled
// (inference). The server hosts many named streams behind one listener,
// each backed by its own learner via a session.Manager:
//
//	POST /v1/streams/:id/process   one mini-batch for stream {id}
//	GET  /v1/streams/:id/stats     that stream's prequential metrics
//	GET  /v1/streams/:id/trace     that stream's decision trace (JSONL)
//	GET  /v1/streams                resident streams + aggregate counters
//
// Requests to one stream are serialized (streaming learning is stateful and
// order-dependent); different streams process concurrently. A stream exists
// once its first batch arrives: every id, "default" included, is an ordinary
// name under /v1/streams/.
//
// The server is hardened for unconstrained input: request bodies are capped
// (413 on overflow), every batch passes the learner's input guardrails, and
// checkpointing is a session concern — WithCheckpointDir persists one
// crash-safe envelope per stream, restored when the id reappears.
//
// Observability: /v1/metrics serves the Prometheus text exposition of every
// stream's series (each labelled stream=<id>) plus the session-lifecycle
// aggregates, and WithPprof mounts the standard net/http/pprof handlers.
// Errors on every /v1/* endpoint share one JSON envelope:
// {"error": {"code": <status>, "message": "..."}}.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"freewayml/internal/core"
	"freewayml/internal/guard"
	"freewayml/internal/obs"
	"freewayml/internal/session"
	"freewayml/internal/stream"
	"freewayml/internal/wire"
)

// StatusClientClosedRequest reports a request whose client went away (or
// whose router retry fired) before the batch finished — nginx's 499, since
// no standard status covers "the caller cancelled".
const StatusClientClosedRequest = 499

// MetricsContentType is the Prometheus text exposition content type served
// by /v1/metrics.
const MetricsContentType = "text/plain; version=0.0.4; charset=utf-8"

// TraceContentType is the newline-delimited JSON content type served by
// /v1/streams/{id}/trace.
const TraceContentType = "application/x-ndjson"

// DefaultMaxBodyBytes caps process request bodies (8 MiB ≈ a 1024-row
// batch of 1000 features with labels, with JSON overhead to spare).
const DefaultMaxBodyBytes = 8 << 20

// ProcessRequest is one mini-batch submitted to the service. Y may be
// omitted for pure-inference batches.
type ProcessRequest struct {
	X [][]float64 `json:"x"`
	Y []int       `json:"y,omitempty"`
}

// ProcessResponse reports the learner's decision for the batch.
type ProcessResponse struct {
	Stream        string  `json:"stream"`
	Predictions   []int   `json:"predictions"`
	Pattern       string  `json:"pattern"`
	Strategy      string  `json:"strategy"`
	ShiftDistance float64 `json:"shift_distance"`
	Severity      float64 `json:"severity"`
	Accuracy      float64 `json:"accuracy"` // -1 for unlabeled batches
}

// StatsResponse summarizes one stream's prequential metrics and its
// fault-tolerance counters, plus the server-wide HTTP counters.
type StatsResponse struct {
	Stream           string  `json:"stream"`
	Batches          int     `json:"batches"`
	Samples          int     `json:"samples"`
	GAcc             float64 `json:"g_acc"`
	SI               float64 `json:"si"`
	KnowledgeEntries int     `json:"knowledge_entries"`
	KnowledgeBytes   int     `json:"knowledge_bytes"`
	Restored         bool    `json:"restored"`

	// Robustness counters (the fault-tolerance layer).
	SanitizedValues  int   `json:"sanitized_values"`
	RejectedBatches  int   `json:"rejected_batches"`
	Divergences      int   `json:"divergences"`
	Recoveries       int   `json:"recoveries"`
	KnowledgeSkipped int   `json:"knowledge_skipped"`
	SpillFailures    int   `json:"spill_failures"`
	CheckpointSaves  int64 `json:"checkpoint_saves"`
	CheckpointErrors int64 `json:"checkpoint_errors"`

	// CheckpointErrorsTotal is the process-wide failed-checkpoint count
	// (every stream, resident or evicted) — the spill path is best-effort,
	// so silent failure here is how state quietly stops being durable.
	CheckpointErrorsTotal int64 `json:"checkpoint_errors_total"`

	// HTTP-layer counters (server-wide): total requests served, error
	// responses sent (status >= 400), request bodies refused by the size
	// cap, and requests cancelled by the client mid-batch.
	HTTPRequests      int64 `json:"http_requests"`
	HTTPRejects       int64 `json:"http_rejects"`
	BodyCapHits       int64 `json:"body_cap_hits"`
	CancelledRequests int64 `json:"cancelled_requests"`
}

// StreamsResponse is the /v1/streams listing: every resident stream's
// summary plus the manager's lifecycle aggregates.
type StreamsResponse struct {
	Streams  []session.Stats        `json:"streams"`
	Sessions session.AggregateStats `json:"sessions"`
}

// errorEnvelope is the JSON error body every /v1/* endpoint returns.
type errorEnvelope struct {
	Error struct {
		Code    int    `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// bufPool recycles the serialization scratch of the serve hot path: request
// bodies are slurped into a pooled buffer before decoding, and responses
// are encoded into one before the single Write. Decoded batches live in
// the pooled frames (framePool).
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBufBytes keeps pathological one-off giants (a max-size batch
// body) from pinning memory in the pool forever.
const maxPooledBufBytes = 1 << 20

func getBuf() *bytes.Buffer { return bufPool.Get().(*bytes.Buffer) }

func putBuf(b *bytes.Buffer) {
	if b.Cap() > maxPooledBufBytes {
		return
	}
	b.Reset()
	bufPool.Put(b)
}

// Option customizes a Server.
type Option func(*Server)

// WithMaxBodyBytes overrides the request-body cap (n <= 0 keeps the
// default).
func WithMaxBodyBytes(n int64) Option {
	return func(s *Server) {
		if n > 0 {
			s.maxBody = n
		}
	}
}

// WithCheckpointDir persists one checkpoint envelope per stream under dir
// (<dir>/<id>.ckpt): written every `every` batches (0 = only on eviction
// and shutdown) and restored automatically when a stream id reappears. A
// save failure is counted and logged, never fatal to serving; a file that
// fails to load is counted and the stream starts fresh.
func WithCheckpointDir(dir string, every int) Option {
	return func(s *Server) {
		if dir != "" {
			s.scfg.CheckpointDir = dir
			if every > 0 {
				s.scfg.CheckpointEvery = every
			}
		}
	}
}

// WithSessionLimits bounds resident streams (max, 0 keeps the default of
// session.DefaultMaxSessions) and evicts streams idle longer than ttl
// (0 disables TTL eviction). Evicted streams checkpoint when persistence is
// configured and are recreated on their next request.
func WithSessionLimits(max int, ttl time.Duration) Option {
	return func(s *Server) {
		if max > 0 {
			s.scfg.MaxSessions = max
		}
		if ttl > 0 {
			s.scfg.TTL = ttl
		}
	}
}

// WithTraceCap sets each stream's decision-trace ring capacity (n <= 0
// keeps the default of 1024 events).
func WithTraceCap(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.scfg.TraceCap = n
		}
	}
}

// WithPprof mounts the net/http/pprof handlers under /debug/pprof/ —
// opt-in because profiling endpoints expose internals and cost CPU when
// scraped, so they have no place on an unaudited listener by default.
func WithPprof() Option {
	return func(s *Server) { s.pprofOn = true }
}

// Server hosts named streams behind an http.Handler.
type Server struct {
	mgr     *session.Manager
	dim     int
	classes int
	mux     *http.ServeMux

	maxBody int64
	scfg    session.Config
	pprofOn bool

	workerID atomic.Value // string; span Service name
	spans    *obs.Ring[obs.Span]

	reqs       atomic.Int64
	rejects    atomic.Int64
	bodyCap    atomic.Int64
	cancelled  atomic.Int64
	cCancel    *obs.Counter
	cBinFrames *obs.Counter
	cBinGrew   *obs.Counter

	closing   atomic.Bool
	closeOnce sync.Once
	closeErr  error

	// routeCounters maps a route template (not the raw path — ids would
	// explode label cardinality) to its request counter.
	routeCounters map[string]*obs.Counter
}

// New builds a server hosting streams of the given shape, each served by a
// fresh learner built from cfg when its first batch arrives.
func New(cfg core.Config, dim, classes int, opts ...Option) (*Server, error) {
	s := &Server{
		dim:     dim,
		classes: classes,
		mux:     http.NewServeMux(),
		maxBody: DefaultMaxBodyBytes,
		spans:   obs.NewRing[obs.Span](DefaultSpanCap),
		scfg: session.Config{
			Learner: cfg,
			Dim:     dim,
			Classes: classes,
		},
	}
	for _, opt := range opts {
		opt(s)
	}
	mgr, err := session.NewManager(s.scfg)
	if err != nil {
		return nil, err
	}
	s.mgr = mgr
	s.routeCounters = map[string]*obs.Counter{}
	for _, route := range []string{
		"/v1/healthz", "/v1/readyz", "/v1/metrics", "/v1/streams", "/v1/spans",
		"/v1/streams/:id/process", "/v1/streams/:id/stats", "/v1/streams/:id/trace",
		"/v1/streams/:id/evict", "/v1/streams/:id/infer", unknownRoute,
	} {
		s.routeCounters[route] = mgr.Registry().Counter("freeway_http_requests_total", "HTTP requests by route.", "path", route)
	}
	s.cCancel = mgr.Registry().Counter("freeway_http_cancelled_total", "Requests abandoned by the client (or a router retry) before the batch finished.")
	s.cBinFrames = mgr.Registry().Counter("freeway_binary_frames_total", "Binary batch frames decoded.")
	s.cBinGrew = mgr.Registry().Counter("freeway_binary_decode_allocs_total", "Binary frame decodes that had to grow storage (cold frame, or a batch larger than any before it on that slot).")

	s.handle("/v1/healthz", s.handleHealth)
	s.handle("/v1/readyz", s.handleReady)
	s.handle("/v1/metrics", s.handleMetrics)
	s.handle("/v1/streams", s.handleStreams)
	s.handle("/v1/spans", s.handleSpans)
	s.mux.HandleFunc("/v1/streams/", s.handleStreamRoute)
	s.mux.HandleFunc("/v1/", s.handleUnknown)
	s.mux.HandleFunc("/v1", s.handleUnknown)
	if s.pprofOn {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s, nil
}

// Sessions exposes the session manager (stats, and deterministic eviction
// in tests).
func (s *Server) Sessions() *session.Manager { return s.mgr }

// unknownRoute is the route label of every /v1 path that names no endpoint.
const unknownRoute = "/v1/*"

// handle registers h at an exact path with request counting.
func (s *Server) handle(path string, h http.HandlerFunc) {
	s.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		s.reqs.Add(1)
		s.routeCounters[path].Inc()
		h(w, r)
	})
}

// handleUnknown answers a /v1 path that names no endpoint with the JSON 404
// envelope (the mux's plain-text NotFound would break clients expecting the
// envelope contract).
func (s *Server) handleUnknown(w http.ResponseWriter, r *http.Request) {
	s.reqs.Add(1)
	s.routeCounters[unknownRoute].Inc()
	s.writeError(w, http.StatusNotFound, fmt.Sprintf("unknown endpoint %q", r.URL.Path))
}

// handleStreamRoute dispatches /v1/streams/:id/{process|stats|trace|evict|infer};
// anything else under the prefix is an unknown endpoint.
func (s *Server) handleStreamRoute(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/streams/")
	id, action, _ := strings.Cut(rest, "/")
	var h func(http.ResponseWriter, *http.Request, string)
	switch action {
	case "process":
		h = s.handleProcess
	case "stats":
		h = s.handleStats
	case "trace":
		h = s.handleTrace
	case "evict":
		h = s.handleEvict
	case "infer":
		h = s.handleInfer
	}
	if h == nil {
		s.handleUnknown(w, r)
		return
	}
	s.reqs.Add(1)
	s.routeCounters["/v1/streams/:id/"+action].Inc()
	h(w, r, id)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close tears down every stream — writing final checkpoints where
// persistence is configured — and stops the session sweeper. Idempotent: the
// second and later calls return nil.
func (s *Server) Close() error {
	s.closing.Store(true) // readiness goes false before teardown starts
	s.closeOnce.Do(func() { s.closeErr = s.mgr.Close() })
	err := s.closeErr
	s.closeErr = nil
	return err
}

// readBody slurps the request body, capped at maxBody, into a pooled buffer
// the caller must putBuf. On failure it has already answered — 413 (counted
// in BodyCapHits) for an over-cap body, 400 for a broken read — and returns
// ok=false.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) (body *bytes.Buffer, ok bool) {
	body = getBuf()
	if _, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, s.maxBody)); err != nil {
		putBuf(body)
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.bodyCap.Add(1)
			s.writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
		} else {
			s.writeError(w, http.StatusBadRequest, fmt.Sprintf("bad request: %v", err))
		}
		return nil, false
	}
	return body, true
}

func (s *Server) handleProcess(w http.ResponseWriter, r *http.Request, id string) {
	f, proto, ok := s.decodeBatch(w, r, id)
	if !ok {
		return
	}
	defer putFrame(f)
	if err := validateRows(f.X, f.Y, s.dim, s.classes); err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	rec := s.beginSpan(id, proto, r.Header.Get(obs.TraceparentHeader), f.Traceparent, len(f.X))
	// A decoded frame's rows travel as its slab; encoding/json's as rows.
	b := stream.Batch{X: f.X, Slab: f.Tensor(), Y: f.Y, TraceID: rec.traceID()}
	out, status, err := s.process(r.Context(), id, b)
	s.respond(w, rec, out, status, err)
}

// decodeBatch is the one decode step of /process and /infer: it reads the
// capped body and decodes it into a pooled frame the caller must putFrame —
// a binary frame by DecodeInto, a JSON batch by DecodeJSON, and any JSON body
// that declines by encoding/json, which owns both the verdict and the error
// text and whose rows the frame then merely carries. proto labels the span.
// On failure it has already answered (405, 413 or 400) and returns ok=false.
func (s *Server) decodeBatch(w http.ResponseWriter, r *http.Request, id string) (f *wire.Frame, proto string, ok bool) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "POST required")
		return nil, "", false
	}
	body, ok := s.readBody(w, r)
	if !ok {
		return nil, "", false
	}
	defer putBuf(body)
	f = getFrame()
	switch {
	case strings.HasPrefix(r.Header.Get("Content-Type"), BinaryContentType):
		if err := f.DecodeInto(body.Bytes()); err != nil {
			s.writeError(w, http.StatusBadRequest, fmt.Sprintf("bad request: %v", err))
			break
		}
		s.cBinFrames.Inc()
		if f.Grew {
			s.cBinGrew.Inc()
		}
		if f.ID != "" && f.ID != id {
			s.writeError(w, http.StatusBadRequest,
				fmt.Sprintf("frame is addressed to stream %q, not %q", f.ID, id))
			break
		}
		return f, "binary", true
	case f.DecodeJSON(body.Bytes()):
		return f, "json", true
	default:
		var req ProcessRequest
		dec := json.NewDecoder(bytes.NewReader(body.Bytes()))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			s.writeError(w, http.StatusBadRequest, fmt.Sprintf("bad request: %v", err))
			break
		}
		// Decode stops at the end of the first value; a second batch or
		// stray bytes behind it must not be dropped silently.
		if _, err := dec.Token(); err != io.EOF {
			s.writeError(w, http.StatusBadRequest, "bad request: unexpected data after the JSON batch")
			break
		}
		f.X, f.Y, f.ID, f.Traceparent = req.X, req.Y, "", ""
		return f, "json", true
	}
	putFrame(f)
	return nil, "", false
}

// respond closes the request's span, stamps its headers and writes the
// session's answer or its error.
func (s *Server) respond(w http.ResponseWriter, rec *spanRec, out any, status int, err error) {
	rec.finish(err)
	rec.setHeaders(w.Header())
	if err != nil {
		s.writeError(w, status, err.Error())
		return
	}
	s.writeJSON(w, out)
}

// errStatus maps a processing failure to an HTTP status: a bad stream id
// (404) and guard-rejected input (422) are the client's problem, a closed
// server is 503, a request the client abandoned mid-batch is 499 (counted,
// not an error of ours — the learner observes ctx and stops training
// between model updates), and any other failure is ours (500).
func (s *Server) errStatus(err error) int {
	switch {
	case errors.Is(err, session.ErrBadID):
		return http.StatusNotFound
	case errors.Is(err, session.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, guard.ErrRejected):
		return http.StatusUnprocessableEntity
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		s.cancelled.Add(1)
		s.cCancel.Inc()
		return StatusClientClosedRequest
	}
	return http.StatusInternalServerError
}

// process runs one decoded batch through the stream's session and maps
// failures via errStatus. The learner copies what it keeps, so the frame's
// storage goes back to the pool with it.
func (s *Server) process(ctx context.Context, id string, b stream.Batch) (ProcessResponse, int, error) {
	res, err := s.mgr.ProcessBatch(ctx, id, b)
	if err != nil {
		return ProcessResponse{}, s.errStatus(err), err
	}
	pattern := res.Pattern
	if res.Pattern.IsSlight() {
		pattern = res.SubPattern
	}
	return ProcessResponse{
		Stream:        id,
		Predictions:   res.Pred,
		Pattern:       pattern.String(),
		Strategy:      res.Strategy.String(),
		ShiftDistance: res.Observation.Distance,
		Severity:      res.Observation.Severity,
		Accuracy:      res.Accuracy,
	}, http.StatusOK, nil
}

// session resolves a stream id for the read-only endpoints: only a resident
// session answers, so a GET never spawns a learner and an unknown id 404s.
func (s *Server) session(id string) (*session.Session, int, error) {
	if sess, ok := s.mgr.Get(id); ok {
		return sess, http.StatusOK, nil
	}
	return nil, http.StatusNotFound, fmt.Errorf("unknown stream %q", id)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request, id string) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	sess, status, err := s.session(id)
	if err != nil {
		s.writeError(w, status, err.Error())
		return
	}
	st := sess.Snapshot()
	s.writeJSON(w, StatsResponse{
		Stream:           st.ID,
		Batches:          st.Batches,
		Samples:          st.Samples,
		GAcc:             st.GAcc,
		SI:               st.SI,
		KnowledgeEntries: st.KnowledgeEntries,
		KnowledgeBytes:   st.KnowledgeBytes,
		Restored:         st.Restored,

		SanitizedValues:  st.Health.SanitizedValues,
		RejectedBatches:  st.Health.RejectedBatches,
		Divergences:      st.Health.Divergences,
		Recoveries:       st.Health.Recoveries,
		KnowledgeSkipped: st.Health.KnowledgeSkipped,
		SpillFailures:    st.Health.SpillFailures + st.Health.SpillLoadFailures,
		CheckpointSaves:  st.CheckpointSaves,
		CheckpointErrors: st.CheckpointErrors,

		CheckpointErrorsTotal: s.mgr.Aggregate().CheckpointErrors,

		HTTPRequests:      s.reqs.Load(),
		HTTPRejects:       s.rejects.Load(),
		BodyCapHits:       s.bodyCap.Load(),
		CancelledRequests: s.cancelled.Load(),
	})
}

// handleStreams lists the resident streams and the lifecycle aggregates.
func (s *Server) handleStreams(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	resp := StreamsResponse{Streams: []session.Stats{}, Sessions: s.mgr.Aggregate()}
	for _, id := range s.mgr.List() {
		if sess, ok := s.mgr.Get(id); ok {
			resp.Streams = append(resp.Streams, sess.Snapshot())
		}
	}
	s.writeJSON(w, resp)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, map[string]string{"status": "ok"})
}

// ReadyResponse is the /v1/readyz body: overall status plus each readiness
// check, so a probe failure names what is actually wrong.
type ReadyResponse struct {
	Status string            `json:"status"`
	Checks map[string]string `json:"checks"`
}

// handleReady is the readiness probe — distinct from /v1/healthz liveness.
// A live process is not ready when it is shutting down, when its resident
// sessions have hit the cap (new streams would thrash the LRU), or when the
// checkpoint directory is not writable (evictions and failover would
// silently lose state). Routers use this to stop placing streams here
// before the condition becomes client-visible errors.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	resp := ReadyResponse{Status: "ok", Checks: map[string]string{
		"accepting": "ok", "sessions": "ok", "checkpoint_dir": "ok",
	}}
	if s.closing.Load() {
		resp.Checks["accepting"] = "shutting down"
	}
	if max := s.mgr.MaxSessions(); s.mgr.Len() >= max {
		resp.Checks["sessions"] = fmt.Sprintf("resident sessions at cap (%d)", max)
	}
	if dir := s.scfg.CheckpointDir; dir != "" {
		if f, err := os.CreateTemp(dir, ".readyz-*"); err != nil {
			resp.Checks["checkpoint_dir"] = fmt.Sprintf("not writable: %v", err)
		} else {
			name := f.Name()
			f.Close()
			os.Remove(name)
		}
	}
	for _, v := range resp.Checks {
		if v != "ok" {
			resp.Status = "unavailable"
			break
		}
	}
	if resp.Status != "ok" {
		s.rejects.Add(1)
		buf := getBuf()
		defer putBuf(buf)
		if err := json.NewEncoder(buf).Encode(resp); err != nil {
			s.writeError(w, http.StatusInternalServerError, "response encoding failed")
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write(buf.Bytes())
		return
	}
	s.writeJSON(w, resp)
}

// handleEvict checkpoints and evicts one stream on demand — the
// checkpoint-on-migrate half of distributed failover: a router moving a
// stream to another worker calls this on the old owner so the new owner
// restores the freshest possible state from the shared checkpoint
// directory. Evicting a non-resident stream is not an error (the desired
// state already holds); the response reports which case occurred.
func (s *Server) handleEvict(w http.ResponseWriter, r *http.Request, id string) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	// ?checkpoint=false discards the session without a final snapshot — for
	// callers (the router's stale-flush) that know the on-disk checkpoint is
	// fresher than this worker's in-memory state.
	checkpoint := r.URL.Query().Get("checkpoint") != "false"
	var evicted bool
	var err error
	if checkpoint {
		evicted, err = s.mgr.Evict(id)
	} else {
		evicted, err = s.mgr.Discard(id)
	}
	if err != nil {
		// The session is gone either way; a teardown error means the final
		// checkpoint may be stale, which the caller must know.
		s.writeError(w, http.StatusInternalServerError, fmt.Sprintf("evict %q: %v", id, err))
		return
	}
	s.writeJSON(w, map[string]any{"stream": id, "evicted": evicted, "checkpoint": checkpoint})
}

// handleMetrics serves the Prometheus text exposition of every stream's
// series plus the session-lifecycle aggregates.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	w.Header().Set("Content-Type", MetricsContentType)
	if err := s.mgr.Registry().WritePrometheus(w); err != nil {
		log.Printf("serve: metrics write failed: %v", err)
	}
}

// handleTrace serves a stream's decision trace as JSONL, oldest retained
// event first. ?n=K limits the output to the newest K events.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request, id string) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	n, err := obs.ParseLastN(r.URL.Query().Get("n"))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	sess, status, err := s.session(id)
	if err != nil {
		s.writeError(w, status, err.Error())
		return
	}
	w.Header().Set("Content-Type", TraceContentType)
	if err := obs.WriteJSONL(w, sess.Observer().Trace().Last(n)); err != nil {
		log.Printf("serve: trace write failed: %v", err)
	}
}

// writeError sends the shared JSON error envelope and counts the reject.
func (s *Server) writeError(w http.ResponseWriter, status int, msg string) {
	s.rejects.Add(1)
	var body errorEnvelope
	body.Error.Code = status
	body.Error.Message = msg
	buf := getBuf()
	defer putBuf(buf)
	if err := json.NewEncoder(buf).Encode(body); err != nil {
		log.Printf("serve: error envelope encode failed: %v", err)
		http.Error(w, msg, status)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	if _, err := w.Write(buf.Bytes()); err != nil {
		log.Printf("serve: error envelope write failed: %v", err)
	}
}

// validateRows applies the shared shape contract to a decoded batch — the
// same check for both the JSON and binary ingest paths.
func validateRows(x [][]float64, y []int, dim, classes int) error {
	b := stream.Batch{X: x, Y: y}
	return b.ValidateShape(dim, classes)
}

// writeJSON sends v as the 200 response body. Encoding goes through a
// pooled buffer so the handler pays one Write (and the client gets a
// Content-Length), and an encoder failure surfaces as a 500 instead of a
// half-written 200.
func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	buf := getBuf()
	defer putBuf(buf)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		log.Printf("serve: response encode failed: %v", err)
		s.writeError(w, http.StatusInternalServerError, "response encoding failed")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	if _, err := w.Write(buf.Bytes()); err != nil {
		log.Printf("serve: response write failed: %v", err)
	}
}
