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
// /v1/cluster/trace. The ejection and the stream's move show in the
// router's counters.
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
	ejections := counterValue(rt, "freeway_router_ejections_total")
	migrations := counterValue(rt, "freeway_router_migrations_total")

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

	if got := counterValue(rt, "freeway_router_ejections_total") - ejections; got != 1 {
		t.Errorf("ejections_total moved by %d, want 1 (the partitioned owner)", got)
	}
	if got := counterValue(rt, "freeway_router_migrations_total") - migrations; got < 1 {
		t.Errorf("migrations_total moved by %d, want >= 1 (the traced stream)", got)
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

// TestClusterMetricsFederation pins where cluster metrics come from: the
// router's /v1/metrics carries its own series, each worker's /v1/metrics its
// own, and the router serves no merged copy of them.
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
	metrics := func(h http.Handler) string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("/v1/metrics: status %d", rec.Code)
		}
		return rec.Body.String()
	}

	text := metrics(rt)
	if !strings.Contains(text, "freeway_router_requests_total 8") {
		t.Fatalf("router series missing or labeled:\n%s", text)
	}
	if !strings.Contains(text, `freeway_router_proxy_bytes_total{direction="in",proto="json"}`) {
		t.Fatalf("proxy bytes counter missing:\n%s", text)
	}

	// Each worker counts the batches it served; together, every one routed.
	const served = `freeway_http_requests_total{path="/v1/streams/:id/process"} `
	total := 0
	for _, w := range []*testWorker{w1, w2} {
		own := metrics(w.srv)
		i := strings.Index(own, served)
		if i < 0 {
			t.Fatalf("worker %s: no %s series:\n%s", w.addr(), served, own)
		}
		line, _, _ := strings.Cut(own[i+len(served):], "\n")
		n, err := strconv.Atoi(line)
		if err != nil {
			t.Fatalf("worker %s: %s%q: %v", w.addr(), served, line, err)
		}
		total += n
	}
	if total != 8 {
		t.Fatalf("workers served %d batches, want 8", total)
	}

	for _, path := range []string{"/v1/cluster/metrics", "/v1/cluster/events", "/v1/cluster/exemplars"} {
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, rec.Code)
		}
	}
}

// TestForwardUntracedWhenDisabled pins the overhead valve: with tracing
// disabled the forward path emits no spans and no trace headers, but still
// routes.
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
	if rt.Spans().Len() != 0 {
		t.Fatalf("spans=%d recorded with tracing disabled", rt.Spans().Len())
	}
}

// TestRingEndpointsRejectBadN: the two ring endpoints (a worker's
// /v1/streams/{id}/trace and /v1/spans) read ?n= through one parser. A
// negative or non-numeric n is a 400 with the JSON error envelope, counted in
// http_rejects; a valid n is served.
func TestRingEndpointsRejectBadN(t *testing.T) {
	w := newTestWorker(t, t.TempDir())
	get := func(h http.Handler, path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}
	seed := httptest.NewRecorder()
	w.srv.ServeHTTP(seed, httptest.NewRequest(http.MethodPost, "/v1/streams/s0/process", strings.NewReader(`{"x":[[0,0,0]],"y":[0]}`)))
	if seed.Code != http.StatusOK {
		t.Fatalf("seed batch: status %d: %s", seed.Code, seed.Body.String())
	}
	workerRejects := func() int64 {
		var st serve.StatsResponse
		if err := json.Unmarshal(get(w.srv, "/v1/streams/s0/stats").Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		return st.HTTPRejects
	}
	for _, path := range []string{"/v1/streams/s0/trace", "/v1/spans"} {
		for _, n := range []string{"-1", "x", "1.5"} {
			before := workerRejects()
			rec := get(w.srv, path+"?n="+n)
			var env struct {
				Error struct {
					Code    int    `json:"code"`
					Message string `json:"message"`
				} `json:"error"`
			}
			if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &env) != nil ||
				env.Error.Code != http.StatusBadRequest || env.Error.Message != "n must be a non-negative integer" {
				t.Errorf("%s n=%s: status %d body %q, want the 400 envelope", path, n, rec.Code, rec.Body.String())
			}
			if got := workerRejects() - before; got != 1 {
				t.Errorf("%s n=%s: http_rejects moved by %d, want 1", path, n, got)
			}
		}
		for _, n := range []string{"", "0", "3"} {
			if rec := get(w.srv, path+"?n="+n); rec.Code != http.StatusOK {
				t.Errorf("%s n=%q: status %d: %s", path, n, rec.Code, rec.Body.String())
			}
		}
	}
}
