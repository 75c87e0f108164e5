// Cluster-wide observability for the routing tier: per-attempt trace spans,
// the slow-request exemplar ring, the cluster event timeline, and the
// /v1/cluster/* endpoints that federate router-local data with per-worker
// scrapes (/v1/metrics, /v1/spans) into one cluster view.

package dist

import (
	"encoding/json"
	"log"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"freewayml/internal/obs"
	"freewayml/internal/wire"
)

// Wire protos distinguished by the proxy-bytes counters and span records.
// The binary content type mirrors serve.BinaryContentType; dist keeps its
// own copy so the routing tier does not import the serving tier.
const (
	protoJSON         = "json"
	protoBinary       = "binary"
	binaryContentType = "application/x-freeway-batch"
	routerServiceName = "router"
	routerForwardSpan = "router.forward"
)

// protoOf classifies a request Content-Type for metrics and spans.
func protoOf(contentType string) string {
	if ct, _, _ := strings.Cut(contentType, ";"); strings.TrimSpace(ct) == binaryContentType {
		return protoBinary
	}
	return protoJSON
}

// Spans exposes the router's per-attempt span ring.
func (r *Router) Spans() *obs.Ring[obs.Span] { return r.spans }

// Events exposes the cluster timeline ring.
func (r *Router) Events() *obs.Ring[obs.ClusterEvent] { return r.events }

// Exemplars exposes the slow-request top-K ring.
func (r *Router) Exemplars() *obs.ExemplarRing { return r.exemplars }

// recordEvent appends one timeline entry, stamping the time.
func (r *Router) recordEvent(ev obs.ClusterEvent) {
	ev.UnixNano = time.Now().UnixNano()
	r.events.Add(ev)
}

// routerTrace carries one request's trace context through the forward
// attempt loop. A nil *routerTrace (DisableTracing) turns every method into
// a no-op, so the forward path needs no flag checks.
type routerTrace struct {
	r      *Router
	ctx    obs.TraceContext // the request-wide trace id + the client's span id
	minted bool             // true when the router created the trace id
	stream string
	proto  string
	hop    routerHop // per-attempt scratch; only one attempt is live at a time
}

// beginTrace resolves the request's trace context: the client's traceparent
// header when present and well-formed, else the one a binary body embeds
// (a version-2 frame), else a freshly minted root. Returns nil when tracing
// is disabled.
func (r *Router) beginTrace(req *http.Request, body []byte, stream, proto string) *routerTrace {
	if r.cfg.DisableTracing {
		return nil
	}
	tr := &routerTrace{r: r, stream: stream, proto: proto}
	tp := req.Header.Get(obs.TraceparentHeader)
	if tp == "" && proto == protoBinary {
		tp = wire.FrameTraceparent(body)
	}
	if in, ok := obs.ParseTraceparent(tp); ok {
		tr.ctx = in
	} else {
		tr.ctx = obs.TraceContext{TraceID: obs.NewTraceID()}
		tr.minted = true
	}
	return tr
}

// id returns the trace id ("" when tracing is disabled).
func (t *routerTrace) id() string {
	if t == nil {
		return ""
	}
	return t.ctx.TraceID
}

// routerHop is one in-flight forward attempt's span.
type routerHop struct {
	t     *routerTrace
	start time.Time
	span  obs.Span
}

// beginAttempt opens the span for one forward attempt and rewrites the
// outgoing traceparent header so the worker's span parents to this exact
// attempt. Mutating req.Header is safe: the handler owns the request, and
// do() copies headers into a fresh outbound request per attempt.
func (t *routerTrace) beginAttempt(req *http.Request, owner string, attempt int, backoff time.Duration) *routerHop {
	if t == nil {
		return nil
	}
	now := time.Now()
	t.hop = routerHop{
		t:     t,
		start: now,
		span: obs.Span{
			TraceID:       t.ctx.TraceID,
			SpanID:        obs.NewSpanID(),
			Parent:        t.ctx.SpanID,
			Name:          routerForwardSpan,
			Service:       routerServiceName,
			Stream:        t.stream,
			Proto:         t.proto,
			StartUnixNano: now.UnixNano(),
			Attempt:       attempt,
			Owner:         owner,
			BackoffMicros: obs.FormatDurationMicros(backoff),
		},
	}
	down := obs.TraceContext{TraceID: t.ctx.TraceID, SpanID: t.hop.span.SpanID}
	req.Header.Set(obs.TraceparentHeader, down.Traceparent())
	return &t.hop
}

// finish closes the attempt span with the owner's breaker state as observed
// after the attempt settled, and records it.
func (h *routerHop) finish(breaker string, err error) {
	if h == nil {
		return
	}
	h.span.DurationMicros = obs.FormatDurationMicros(time.Since(h.start))
	h.span.Breaker = breaker
	if err != nil {
		h.span.Status = "error"
		h.span.Err = obs.SpanError(err)
	} else {
		h.span.Status = "ok"
	}
	h.t.r.spans.Add(h.span)
}

// setHeaders stamps the router's per-hop response headers: the trace id
// (unless the worker already echoed it), the router-side wall time, and the
// attempt count. workerHdr is the worker response's header set (nil when
// every attempt failed).
func (t *routerTrace) setHeaders(h http.Header, workerHdr http.Header, start time.Time, attempts int) {
	if t == nil {
		return
	}
	if workerHdr == nil || workerHdr.Get(obs.TraceIDHeader) == "" {
		h.Set(obs.TraceIDHeader, t.ctx.TraceID)
	}
	h.Set(obs.RouterMicrosHeader, strconv.FormatFloat(obs.FormatDurationMicros(time.Since(start)), 'f', 1, 64))
	h.Set(obs.AttemptsHeader, strconv.Itoa(attempts))
}

// offerExemplar records the finished request in the slow-request top-K ring.
func (t *routerTrace) offerExemplar(r *Router, owner string, start time.Time, attempts int) {
	if t == nil {
		return
	}
	r.exemplars.Offer(obs.Exemplar{
		TraceID:        t.ctx.TraceID,
		Stream:         t.stream,
		Owner:          owner,
		Proto:          t.proto,
		Attempts:       attempts,
		StartUnixNano:  start.UnixNano(),
		DurationMicros: obs.FormatDurationMicros(time.Since(start)),
	})
}

// handleClusterMetrics federates metrics: the router's own registry plus a
// /v1/metrics scrape of every in-ring worker, merged into one Prometheus
// exposition in which each worker's series carry a worker="<addr>" label
// (router-local series stay unlabeled; see obs.MergeExpositions for the
// merge rules). A worker that fails mid-scrape is skipped — federation
// degrades to the reachable subset rather than failing the whole scrape.
func (r *Router) handleClusterMetrics(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		r.writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	var local strings.Builder
	if err := r.reg.WritePrometheus(&local); err != nil {
		r.writeError(w, http.StatusInternalServerError, "metrics render failed")
		return
	}
	parts := []obs.ExpositionPart{{Text: local.String()}}
	for _, addr := range r.ringMembers() {
		text, ok := r.scrapeWorker(req, addr, "/v1/metrics")
		if !ok {
			continue
		}
		parts = append(parts, obs.ExpositionPart{Worker: addr, Text: text})
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := obs.MergeExpositions(w, parts); err != nil {
		log.Printf("dist: cluster metrics write failed: %v", err)
	}
}

// handleClusterTrace assembles every span of one trace: the router's
// per-attempt spans plus each in-ring worker's /v1/spans?id= records,
// sorted by start time — the cluster-wide view of one request's life.
func (r *Router) handleClusterTrace(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		r.writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	id := req.URL.Query().Get("id")
	if id == "" {
		r.writeError(w, http.StatusBadRequest, "id query parameter is required")
		return
	}
	spans := obs.SpansOfTrace(r.spans.Last(0), id)
	for _, addr := range r.ringMembers() {
		text, ok := r.scrapeWorker(req, addr, "/v1/spans?id="+url.QueryEscape(id))
		if !ok {
			continue
		}
		var ws []obs.Span
		if err := json.Unmarshal([]byte(text), &ws); err != nil {
			continue
		}
		spans = append(spans, ws...)
	}
	sort.SliceStable(spans, func(i, j int) bool {
		return spans[i].StartUnixNano < spans[j].StartUnixNano
	})
	w.Header().Set("Content-Type", "application/json")
	if err := obs.WriteSpansJSON(w, spans); err != nil {
		log.Printf("dist: cluster trace write failed: %v", err)
	}
}

// handleClusterEvents serves the cluster timeline, one JSON event per line
// (oldest first); ?n=K limits to the newest K events.
func (r *Router) handleClusterEvents(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		r.writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	n, err := obs.ParseLastN(req.URL.Query().Get("n"))
	if err != nil {
		r.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	if err := obs.WriteJSONL(w, r.events.Last(n)); err != nil {
		log.Printf("dist: cluster events write failed: %v", err)
	}
}

// handleClusterExemplars serves the slowest requests seen so far (slowest
// first), each carrying the trace id to follow via /v1/cluster/trace.
func (r *Router) handleClusterExemplars(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		r.writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	writeJSON(w, r.exemplars.TopK())
}

// ringMembers snapshots the healthy worker set.
func (r *Router) ringMembers() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.members()
}

// scrapeWorker GETs one observability URI from a worker under the probe
// timeout, returning the body text; ok is false on any transport or
// non-200 failure.
func (r *Router) scrapeWorker(req *http.Request, addr, uri string) (string, bool) {
	resp, body, err := r.do(req.Context(), r.cfg.ProbeTimeout, addr, http.MethodGet, uri, nil, nil)
	if err != nil || resp.StatusCode != http.StatusOK {
		return "", false
	}
	return string(body), true
}
