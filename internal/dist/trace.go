// Tracing for the routing tier: one span per forward attempt, the per-hop
// response headers, and /v1/cluster/trace, which joins the router's spans
// with every worker's /v1/spans into one request's cross-node trace.

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

// routerTrace carries one request's trace context through the forward
// attempt loop. A nil *routerTrace (DisableTracing) turns every method into
// a no-op, so the forward path needs no flag checks.
type routerTrace struct {
	r      *Router
	ctx    obs.TraceContext // the request-wide trace id + the client's span id
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
	}
	return tr
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
		body, ok := r.scrapeWorker(req, addr, "/v1/spans?id="+url.QueryEscape(id))
		if !ok {
			continue
		}
		var ws []obs.Span
		if err := json.Unmarshal(body, &ws); err != nil {
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

// ringMembers snapshots the healthy worker set.
func (r *Router) ringMembers() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.members()
}

// scrapeWorker GETs one read-only URI from a worker under the probe
// timeout, returning the body; ok is false on any transport or non-200
// failure.
func (r *Router) scrapeWorker(req *http.Request, addr, uri string) ([]byte, bool) {
	resp, body, err := r.do(req.Context(), r.cfg.ProbeTimeout, addr, http.MethodGet, uri, nil, nil)
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil, false
	}
	return body, true
}
