package dist

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"freewayml/internal/faults"
	"freewayml/internal/obs"
	"freewayml/internal/serve"
	"freewayml/internal/wire"
)

// tracedProcessVia POSTs one labeled batch through the router with a
// client-minted traceparent, returning the recorder for header assertions.
func tracedProcessVia(t *testing.T, rt *Router, rng *rand.Rand, id string, tc obs.TraceContext) *httptest.ResponseRecorder {
	t.Helper()
	var req struct {
		X [][]float64 `json:"x"`
		Y []int       `json:"y"`
	}
	for i := 0; i < 4; i++ {
		c := rng.Intn(2)
		req.X = append(req.X, []float64{float64(c)*2 + rng.NormFloat64()*0.3, rng.NormFloat64() * 0.3, 0})
		req.Y = append(req.Y, c)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	hr := httptest.NewRequest(http.MethodPost, "/v1/streams/"+id+"/process", strings.NewReader(string(body)))
	hr.Header.Set("Content-Type", "application/json")
	if tc.Valid() {
		hr.Header.Set(obs.TraceparentHeader, tc.Traceparent())
	}
	rt.ServeHTTP(rec, hr)
	return rec
}

func clusterTrace(t *testing.T, rt *Router, id string) []obs.Span {
	t.Helper()
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/cluster/trace?id="+id, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/cluster/trace: status %d: %s", rec.Code, rec.Body.String())
	}
	var spans []obs.Span
	if err := json.Unmarshal(rec.Body.Bytes(), &spans); err != nil {
		t.Fatalf("decode cluster trace: %v", err)
	}
	return spans
}

// TestTraceContinuityAcrossFailover is the continuity pin: a request whose
// first attempts hit a partitioned owner must retry onto the second worker
// under the SAME trace id, leaving one router span per attempt (the failed
// ones annotated with the opened breaker) and the surviving worker's
// process span parented to the successful attempt — all assembled by
// /v1/cluster/trace.
func TestTraceContinuityAcrossFailover(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(7))
	w1 := newTestWorker(t, dir)
	w2 := newTestWorker(t, dir)
	chaos := faults.NewChaosTransport(newHopTransport(nil))
	rt := failoverRouter(t, chaos, w1, w2)

	const stream = "trace-failover"
	if rec := tracedProcessVia(t, rt, rng, stream, obs.TraceContext{}); rec.Code != http.StatusOK {
		t.Fatalf("warm request: status %d: %s", rec.Code, rec.Body.String())
	}
	owner, ok := rt.ownerFor(stream)
	if !ok {
		t.Fatal("no owner for stream")
	}
	chaos.Partition(owner)

	tc := obs.NewTraceContext()
	rec := tracedProcessVia(t, rt, rng, stream, tc)
	if rec.Code != http.StatusOK {
		t.Fatalf("failover request: status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(obs.TraceIDHeader); got != tc.TraceID {
		t.Fatalf("trace id header = %q, want %q", got, tc.TraceID)
	}
	attempts, err := strconv.Atoi(rec.Header().Get(obs.AttemptsHeader))
	if err != nil || attempts < 2 {
		t.Fatalf("attempts header = %q, want >= 2", rec.Header().Get(obs.AttemptsHeader))
	}
	if rec.Header().Get(obs.RouterMicrosHeader) == "" {
		t.Fatal("missing router micros header")
	}

	spans := clusterTrace(t, rt, tc.TraceID)
	var routerSpans, workerSpans []obs.Span
	for _, s := range spans {
		if s.TraceID != tc.TraceID {
			t.Fatalf("span %s/%s has trace id %q, want %q", s.Name, s.SpanID, s.TraceID, tc.TraceID)
		}
		switch s.Name {
		case routerForwardSpan:
			routerSpans = append(routerSpans, s)
		case "worker.process":
			workerSpans = append(workerSpans, s)
		}
	}
	if len(routerSpans) < 2 {
		t.Fatalf("got %d router spans, want >= 2 (one per attempt)", len(routerSpans))
	}
	owners := map[string]bool{}
	sawOpenBreaker := false
	var okSpan *obs.Span
	for i := range routerSpans {
		s := &routerSpans[i]
		owners[s.Owner] = true
		if s.Parent != tc.SpanID {
			t.Fatalf("router span parent = %q, want client span %q", s.Parent, tc.SpanID)
		}
		if s.Status == "error" && s.Breaker == "open" {
			sawOpenBreaker = true
		}
		if s.Status == "ok" {
			okSpan = s
		}
	}
	if len(owners) < 2 {
		t.Fatalf("router spans cover owners %v, want both workers", owners)
	}
	if !sawOpenBreaker {
		t.Fatal("no failed router span carries the open-breaker annotation")
	}
	if okSpan == nil {
		t.Fatal("no successful router span")
	}
	if len(workerSpans) == 0 {
		t.Fatal("no worker.process span federated into the cluster trace")
	}
	foundChild := false
	for _, s := range workerSpans {
		if s.Parent == okSpan.SpanID {
			foundChild = true
		}
	}
	if !foundChild {
		t.Fatalf("no worker span parents to the successful router attempt %s", okSpan.SpanID)
	}

	// The ejection must appear in the cluster timeline, annotated with the
	// trace that triggered it.
	events := rt.Events().Last(0)
	sawOpen := false
	for _, ev := range events {
		if ev.Type == obs.EventBreakerOpen && ev.Worker == owner && ev.TraceID == tc.TraceID {
			sawOpen = true
		}
	}
	if !sawOpen {
		t.Fatalf("no breaker_open event for %s with trace %s in %v", owner, tc.TraceID, events)
	}

	// And the retried (slow) request must rank in the exemplar ring.
	found := false
	for _, ex := range rt.Exemplars().TopK() {
		if ex.TraceID == tc.TraceID {
			if ex.Attempts != attempts {
				t.Fatalf("exemplar attempts = %d, header said %d", ex.Attempts, attempts)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("failover request missing from exemplar ring")
	}
}

// TestFrameTraceContinuityThroughRouter: a version-2 binary frame carries its
// trace context in-band, with no traceparent header. The router joins that
// trace — the response echoes its id — and /v1/cluster/trace assembles the
// router's attempt span, parented to the client's span, and the worker's
// process span, parented to that attempt.
func TestFrameTraceContinuityThroughRouter(t *testing.T) {
	dir := t.TempDir()
	rt := failoverRouter(t, nil, newTestWorker(t, dir), newTestWorker(t, dir))
	rng := rand.New(rand.NewSource(13))
	var x [][]float64
	var y []int
	for i := 0; i < 16; i++ {
		c := rng.Intn(2)
		x = append(x, []float64{float64(c)*2 + rng.NormFloat64()*0.3, rng.NormFloat64() * 0.3, 0})
		y = append(y, c)
	}
	tc := obs.NewTraceContext()
	frame, err := wire.AppendFrameTrace(nil, "", tc.Traceparent(), wire.Float64, x, y)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	hr := httptest.NewRequest(http.MethodPost, "/v1/streams/frame-traced/process", bytes.NewReader(frame))
	hr.Header.Set("Content-Type", serve.BinaryContentType)
	rt.ServeHTTP(rec, hr)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(obs.TraceIDHeader); got != tc.TraceID {
		t.Fatalf("response trace id = %q, want the frame-embedded %q", got, tc.TraceID)
	}

	var router, worker *obs.Span
	spans := clusterTrace(t, rt, tc.TraceID)
	for i, s := range spans {
		switch s.Name {
		case routerForwardSpan:
			router = &spans[i]
		case "worker.process":
			worker = &spans[i]
		}
	}
	if router == nil || worker == nil {
		t.Fatalf("trace %s: router span %v, worker span %v; want both hops in %+v", tc.TraceID, router != nil, worker != nil, spans)
	}
	if router.Parent != tc.SpanID {
		t.Errorf("router span parent = %q, want the frame's span %q", router.Parent, tc.SpanID)
	}
	if worker.Parent != router.SpanID || worker.Proto != "binary" {
		t.Errorf("worker span parent %q proto %q, want the router attempt %q over binary", worker.Parent, worker.Proto, router.SpanID)
	}
}

// TestClusterMetricsFederation pins the federation merge: the router's own
// series appear unlabeled, every healthy worker's series appear under
// worker="<addr>", and the events endpoint speaks JSONL.
func TestClusterMetricsFederation(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(11))
	w1 := newTestWorker(t, dir)
	w2 := newTestWorker(t, dir)
	rt := failoverRouter(t, nil, w1, w2)

	// A few requests across enough stream ids to touch both workers.
	for i := 0; i < 8; i++ {
		if code := processVia(t, rt, rng, "fed-"+strconv.Itoa(i)); code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, code)
		}
	}

	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/cluster/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/cluster/metrics: status %d", rec.Code)
	}
	text := rec.Body.String()
	if !strings.Contains(text, "freeway_router_requests_total 8") {
		t.Fatalf("router-local series missing or labeled:\n%s", text)
	}
	if !strings.Contains(text, `freeway_router_proxy_bytes_total{direction="in",proto="json"}`) {
		t.Fatalf("proxy bytes counter missing:\n%s", text)
	}
	for _, w := range []*testWorker{w1, w2} {
		if !strings.Contains(text, `worker="`+w.addr()+`"`) {
			t.Fatalf("no federated series labeled for worker %s:\n%s", w.addr(), text)
		}
	}
	// Known worker families must carry the injected label — including the
	// histogram _sum line, so the bucket/_sum/_count triple stays consistent
	// under the merge.
	sawCounter, sawSum := false, false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "freeway_http_requests_total{") && strings.Contains(line, `worker="`) {
			sawCounter = true
		}
		if strings.HasPrefix(line, "freeway_process_seconds_sum{") && strings.Contains(line, `worker="`) {
			sawSum = true
		}
	}
	if !sawCounter || !sawSum {
		t.Fatalf("worker-side series not labeled (counter=%v histogram_sum=%v):\n%s", sawCounter, sawSum, text)
	}

	// Exemplars: every request competes; the ring must be non-empty and its
	// trace ids resolvable.
	exRec := httptest.NewRecorder()
	rt.ServeHTTP(exRec, httptest.NewRequest(http.MethodGet, "/v1/cluster/exemplars", nil))
	var exemplars []obs.Exemplar
	if err := json.Unmarshal(exRec.Body.Bytes(), &exemplars); err != nil || len(exemplars) == 0 {
		t.Fatalf("exemplars: err %v body %s", err, exRec.Body.String())
	}
	if spans := clusterTrace(t, rt, exemplars[0].TraceID); len(spans) == 0 {
		t.Fatalf("exemplar trace %s resolves to no spans", exemplars[0].TraceID)
	}

	// Events endpoint: JSONL, possibly empty in a healthy cluster, but it
	// must answer 200 with the NDJSON content type.
	evRec := httptest.NewRecorder()
	rt.ServeHTTP(evRec, httptest.NewRequest(http.MethodGet, "/v1/cluster/events?n=10", nil))
	if evRec.Code != http.StatusOK || evRec.Header().Get("Content-Type") != "application/x-ndjson" {
		t.Fatalf("/v1/cluster/events: status %d type %q", evRec.Code, evRec.Header().Get("Content-Type"))
	}
}

// TestForwardUntracedWhenDisabled pins the overhead valve: with tracing
// disabled the forward path emits no spans, no exemplars, and no trace
// headers, but still routes.
func TestForwardUntracedWhenDisabled(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"ok":true}`))
	}))
	defer backend.Close()
	rt, err := NewRouter(Config{
		Workers:        []string{strings.TrimPrefix(backend.URL, "http://")},
		DisableTracing: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/streams/s/process", strings.NewReader("{}"))
	rt.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if rec.Header().Get(obs.TraceIDHeader) != "" || rec.Header().Get(obs.RouterMicrosHeader) != "" {
		t.Fatal("tracing headers present with tracing disabled")
	}
	if rt.Spans().Len() != 0 || rt.Exemplars().Len() != 0 {
		t.Fatalf("spans=%d exemplars=%d recorded with tracing disabled", rt.Spans().Len(), rt.Exemplars().Len())
	}
}

// TestRingEndpointsRejectBadN: the three ring endpoints (a worker's /v1/trace
// and /v1/spans, the router's /v1/cluster/events) read ?n= through one
// parser. A negative or non-numeric n is a 400 with the JSON error envelope,
// and a worker counts the reject in http_rejects (the router keeps no reject
// counter); a valid n is served.
func TestRingEndpointsRejectBadN(t *testing.T) {
	w := newTestWorker(t, t.TempDir())
	rt := failoverRouter(t, nil, w)
	get := func(h http.Handler, path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}
	workerRejects := func() int64 {
		var st serve.StatsResponse
		if err := json.Unmarshal(get(w.srv, "/v1/stats").Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		return st.HTTPRejects
	}
	for _, tc := range []struct {
		name, path string
		h          http.Handler
		counted    bool
	}{
		{"worker trace", "/v1/trace", w.srv, true},
		{"worker spans", "/v1/spans", w.srv, true},
		{"router events", "/v1/cluster/events", rt, false},
	} {
		for _, n := range []string{"-1", "x", "1.5"} {
			before := workerRejects()
			rec := get(tc.h, tc.path+"?n="+n)
			var env struct {
				Error struct {
					Code    int    `json:"code"`
					Message string `json:"message"`
				} `json:"error"`
			}
			if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &env) != nil ||
				env.Error.Code != http.StatusBadRequest || env.Error.Message != "n must be a non-negative integer" {
				t.Errorf("%s n=%s: status %d body %q, want the 400 envelope", tc.name, n, rec.Code, rec.Body.String())
			}
			if tc.counted {
				if got := workerRejects() - before; got != 1 {
					t.Errorf("%s n=%s: http_rejects moved by %d, want 1", tc.name, n, got)
				}
			}
		}
		for _, n := range []string{"", "0", "3"} {
			if rec := get(tc.h, tc.path+"?n="+n); rec.Code != http.StatusOK {
				t.Errorf("%s n=%q: status %d: %s", tc.name, n, rec.Code, rec.Body.String())
			}
		}
	}
}
