package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"freewayml/internal/faults"
)

// fakeWorker is a scriptable stand-in for a freeway-serve worker: it
// answers /v1/healthz, records evict calls, and runs an optional override
// for everything else.
type fakeWorker struct {
	ts *httptest.Server

	mu      sync.Mutex
	evicted []string

	failNext atomic.Int64 // requests to answer 503 before recovering
	handler  func(w http.ResponseWriter, r *http.Request) bool
}

func newFakeWorker(t *testing.T) *fakeWorker {
	t.Helper()
	fw := &fakeWorker{}
	fw.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fw.handler != nil && fw.handler(w, r) {
			return
		}
		if strings.HasSuffix(r.URL.Path, "/evict") {
			id := strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/v1/streams/"), "/evict")
			fw.mu.Lock()
			fw.evicted = append(fw.evicted, id)
			fw.mu.Unlock()
			fmt.Fprintf(w, `{"stream":%q,"evicted":true}`, id)
			return
		}
		if fw.failNext.Load() > 0 {
			fw.failNext.Add(-1)
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"worker":%q,"path":%q}`+"\n", fw.addr(), r.URL.Path)
	}))
	t.Cleanup(fw.ts.Close)
	return fw
}

func (fw *fakeWorker) addr() string { return strings.TrimPrefix(fw.ts.URL, "http://") }

func (fw *fakeWorker) evictedStreams() []string {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return append([]string(nil), fw.evicted...)
}

// testRouter builds a router over the workers with a fast, deterministic
// failure model and no background prober.
func testRouter(t *testing.T, chaos *faults.ChaosTransport, workers ...*fakeWorker) *Router {
	t.Helper()
	// Cooldown 0 means "rejoin on the first healthy probe" — what the
	// deterministic tests want (withDefaults only replaces negatives).
	cfg := Config{
		FailThreshold: 2,
		Cooldown:      0,
		ProbeTimeout:  2 * time.Second,
		Retries:       5,
		RetryBase:     time.Millisecond,
		RetryMax:      4 * time.Millisecond,
	}
	for _, fw := range workers {
		cfg.Workers = append(cfg.Workers, fw.addr())
	}
	if chaos != nil {
		cfg.Transport = chaos
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	return rt
}

func routerGet(t *testing.T, rt *Router, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

func routerProcess(t *testing.T, rt *Router, id string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/streams/"+id+"/process",
		strings.NewReader(`{"x":[[0,0,0]],"y":[0]}`))
	req.Header.Set("Content-Type", "application/json")
	rt.ServeHTTP(rec, req)
	return rec
}

func counterValue(rt *Router, name string, labels ...string) int64 {
	return rt.Registry().Counter(name, "", labels...).Value()
}

func TestRouterRetriesTransientConnectionDrops(t *testing.T) {
	fw := newFakeWorker(t)
	chaos := faults.NewChaosTransport(newHopTransport(nil))
	rt := testRouter(t, chaos, fw)

	// Calls 0 and... drop the first request only: below the breaker
	// threshold of 2, so the worker stays in the ring.
	chaos.DropCalls(fw.addr(), 0, 1)
	rec := routerProcess(t, rt, "orders")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d after transient drop, want 200 (body %s)", rec.Code, rec.Body)
	}
	if got := counterValue(rt, "freeway_router_retries_total"); got != 1 {
		t.Errorf("retries_total = %d, want 1", got)
	}
	if got := counterValue(rt, "freeway_router_ejections_total"); got != 0 {
		t.Errorf("ejections_total = %d, want 0 (single drop is below threshold)", got)
	}
}

func TestRouterRetries503AsFailure(t *testing.T) {
	fw := newFakeWorker(t)
	rt := testRouter(t, nil, fw)

	fw.failNext.Store(1)
	rec := routerProcess(t, rt, "orders")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 after retrying a 503", rec.Code)
	}
	if got := counterValue(rt, "freeway_router_retries_total"); got != 1 {
		t.Errorf("retries_total = %d, want 1", got)
	}
}

func TestRouterRelaysWorkerErrorsVerbatim(t *testing.T) {
	fw := newFakeWorker(t)
	rt := testRouter(t, nil, fw)
	fw.handler = func(w http.ResponseWriter, r *http.Request) bool {
		if strings.HasSuffix(r.URL.Path, "/process") {
			http.Error(w, `{"error":{"code":400,"message":"bad batch"}}`, http.StatusBadRequest)
			return true
		}
		return false
	}
	rec := routerProcess(t, rt, "orders")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want the worker's 400 relayed (not retried)", rec.Code)
	}
	if got := counterValue(rt, "freeway_router_retries_total"); got != 0 {
		t.Errorf("retries_total = %d, want 0: a 4xx is the worker's answer", got)
	}
}

func TestRouterBreakerEjectsAndFailsOver(t *testing.T) {
	w1 := newFakeWorker(t)
	w2 := newFakeWorker(t)
	chaos := faults.NewChaosTransport(newHopTransport(nil))
	rt := testRouter(t, chaos, w1, w2)

	// Establish which worker owns the stream, and that routing is sticky.
	rec := routerProcess(t, rt, "orders")
	if rec.Code != http.StatusOK {
		t.Fatalf("seed request failed: %d", rec.Code)
	}
	var seeded struct{ Worker string }
	if err := json.Unmarshal(rec.Body.Bytes(), &seeded); err != nil {
		t.Fatal(err)
	}
	victim, survivor := w1, w2
	if seeded.Worker == w2.addr() {
		victim, survivor = w2, w1
	}

	chaos.Partition(victim.addr())
	rec = routerProcess(t, rt, "orders")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d during failover, want 200 via the surviving worker (body %s)", rec.Code, rec.Body)
	}
	var after struct{ Worker string }
	if err := json.Unmarshal(rec.Body.Bytes(), &after); err != nil {
		t.Fatal(err)
	}
	if after.Worker != survivor.addr() {
		t.Fatalf("failover answered from %q, want survivor %q", after.Worker, survivor.addr())
	}
	if got := counterValue(rt, "freeway_router_ejections_total"); got != 1 {
		t.Errorf("ejections_total = %d, want 1", got)
	}
	if got := counterValue(rt, "freeway_router_migrations_total"); got != 1 {
		t.Errorf("migrations_total = %d, want 1 (the tracked stream moved)", got)
	}
	// The old owner was partitioned, so checkpoint-on-migrate had to fail;
	// the stale-flush on the new owner succeeded (a no-op discard there).
	if got := counterValue(rt, "freeway_router_migrate_evicts_total", "result", "error"); got != 1 {
		t.Errorf("migrate evict errors = %d, want 1", got)
	}
	if got := counterValue(rt, "freeway_router_stale_flush_total", "result", "ok"); got != 1 {
		t.Errorf("stale flushes = %d, want 1", got)
	}

	// Topology reflects the ejection.
	rec = routerGet(t, rt, "/v1/cluster")
	var cluster ClusterResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &cluster); err != nil {
		t.Fatal(err)
	}
	if cluster.HealthyCount != 1 {
		t.Errorf("healthy_count = %d, want 1; body %s", cluster.HealthyCount, rec.Body)
	}
}

func TestRouterRejoinMigratesBackWithCleanEvict(t *testing.T) {
	w1 := newFakeWorker(t)
	w2 := newFakeWorker(t)
	chaos := faults.NewChaosTransport(newHopTransport(nil))
	rt := testRouter(t, chaos, w1, w2)

	rec := routerProcess(t, rt, "orders")
	var seeded struct{ Worker string }
	json.Unmarshal(rec.Body.Bytes(), &seeded)
	victim, survivor := w1, w2
	if seeded.Worker == w2.addr() {
		victim, survivor = w2, w1
	}

	// Eject the owner; the stream fails over and is now tracked on the
	// survivor.
	chaos.Partition(victim.addr())
	if rec := routerProcess(t, rt, "orders"); rec.Code != http.StatusOK {
		t.Fatalf("failover request: %d", rec.Code)
	}

	// Heal and probe: the worker rejoins (cooldown 0), the stream's arc
	// moves back, and this time the previous owner is alive — the router
	// checkpoints-and-evicts it there cleanly.
	chaos.Heal(victim.addr())
	rt.ProbeOnce()
	if got := counterValue(rt, "freeway_router_rejoins_total"); got != 1 {
		t.Fatalf("rejoins_total = %d, want 1", got)
	}
	if got := counterValue(rt, "freeway_router_migrate_evicts_total", "result", "ok"); got != 1 {
		t.Errorf("clean migrate evicts = %d, want 1", got)
	}
	// The survivor saw the ejection-time stale-flush plus the rejoin-time
	// checkpoint evict; the rejoined victim saw its own stale-flush.
	if ev := survivor.evictedStreams(); len(ev) != 2 || ev[0] != "orders" || ev[1] != "orders" {
		t.Errorf("survivor saw evictions %v, want [orders orders]", ev)
	}
	if ev := victim.evictedStreams(); len(ev) != 1 || ev[0] != "orders" {
		t.Errorf("rejoined victim saw evictions %v, want its stale session flushed: [orders]", ev)
	}
	// And the stream is served by its original owner again.
	rec = routerProcess(t, rt, "orders")
	var back struct{ Worker string }
	json.Unmarshal(rec.Body.Bytes(), &back)
	if back.Worker != victim.addr() {
		t.Errorf("post-rejoin request answered by %q, want %q", back.Worker, victim.addr())
	}
}

func TestRouterExhaustedReturns502AndNotReady(t *testing.T) {
	fw := newFakeWorker(t)
	chaos := faults.NewChaosTransport(newHopTransport(nil))
	rt := testRouter(t, chaos, fw)

	chaos.Partition(fw.addr())
	rec := routerProcess(t, rt, "orders")
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("status %d with every worker down, want 502", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), `"error"`) {
		t.Errorf("502 body is not the JSON error envelope: %s", rec.Body)
	}
	if got := counterValue(rt, "freeway_router_exhausted_total"); got != 1 {
		t.Errorf("exhausted_total = %d, want 1", got)
	}

	// Liveness stays green (the router itself is fine); readiness goes red.
	if rec := routerGet(t, rt, "/v1/healthz"); rec.Code != http.StatusOK {
		t.Errorf("healthz = %d, want 200", rec.Code)
	}
	if rec := routerGet(t, rt, "/v1/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz = %d, want 503 with zero healthy workers", rec.Code)
	}
}

func TestRouterProbeEjectsWithoutTraffic(t *testing.T) {
	w1 := newFakeWorker(t)
	w2 := newFakeWorker(t)
	chaos := faults.NewChaosTransport(newHopTransport(nil))
	rt := testRouter(t, chaos, w1, w2)

	chaos.Partition(w1.addr())
	rt.ProbeOnce() // fail 1
	rt.ProbeOnce() // fail 2 → threshold
	if got := counterValue(rt, "freeway_router_ejections_total"); got != 1 {
		t.Fatalf("ejections_total = %d after 2 failed probes, want 1", got)
	}
	if got := counterValue(rt, "freeway_router_probe_failures_total", "worker", w1.addr()); got != 2 {
		t.Errorf("probe_failures_total{worker=%s} = %d, want 2", w1.addr(), got)
	}
	if g := rt.Registry().Gauge("freeway_router_worker_healthy", "", "worker", w1.addr()).Value(); g != 0 {
		t.Errorf("worker_healthy gauge = %v, want 0", g)
	}
}

func TestRouterConcurrentForwardsDuringChurn(t *testing.T) {
	// Race-detector workout: concurrent forwards while a worker is
	// partitioned, ejected, healed, and rejoined. Correctness assertion is
	// just "no client-visible failure".
	w1 := newFakeWorker(t)
	w2 := newFakeWorker(t)
	chaos := faults.NewChaosTransport(newHopTransport(nil))
	rt := testRouter(t, chaos, w1, w2)

	var wg sync.WaitGroup
	var failures atomic.Int64
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rec := routerProcess(t, rt, fmt.Sprintf("s%d", (g+i)%8))
				if rec.Code != http.StatusOK {
					failures.Add(1)
				}
			}
		}(g)
	}
	for round := 0; round < 3; round++ {
		chaos.Partition(w1.addr())
		rt.ProbeOnce()
		rt.ProbeOnce()
		chaos.Heal(w1.addr())
		rt.ProbeOnce()
	}
	close(stop)
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Errorf("%d client-visible failures during churn, want 0", n)
	}
}

// TestRouterOpaqueBinaryPassThrough: the router is payload-agnostic — an
// arbitrary Content-Type and body forward to the worker byte-for-byte, the
// worker's response body and headers relay back byte-for-byte, and
// hop-by-hop headers are stripped in both directions.
func TestRouterOpaqueBinaryPassThrough(t *testing.T) {
	reqBody := make([]byte, 4096)
	respBody := make([]byte, 2048)
	rng := rand.New(rand.NewSource(7))
	rng.Read(reqBody)
	rng.Read(respBody)

	const binCT = "application/x-freeway-batch"
	var workerErr atomic.Value
	fw := newFakeWorker(t)
	fw.handler = func(w http.ResponseWriter, r *http.Request) bool {
		if !strings.HasSuffix(r.URL.Path, "/process") {
			return false
		}
		got, _ := io.ReadAll(r.Body)
		switch {
		case !bytes.Equal(got, reqBody):
			workerErr.Store(fmt.Sprintf("body mangled: %d bytes, want %d", len(got), len(reqBody)))
		case r.Header.Get("Content-Type") != binCT:
			workerErr.Store(fmt.Sprintf("content-type %q", r.Header.Get("Content-Type")))
		case r.Header.Get("X-Freeway-Test") != "carried":
			workerErr.Store(fmt.Sprintf("custom header %q", r.Header.Get("X-Freeway-Test")))
		case r.Header.Get("Proxy-Authorization") != "":
			workerErr.Store("hop-by-hop request header forwarded")
		}
		w.Header().Set("Content-Type", "application/x-freeway-reply")
		w.Header().Set("X-Freeway-Worker", "w1")
		w.Header().Set("Keep-Alive", "timeout=5")
		w.Write(respBody)
		return true
	}
	rt := testRouter(t, nil, fw)

	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/streams/bin/process", bytes.NewReader(reqBody))
	req.Header.Set("Content-Type", binCT)
	req.Header.Set("X-Freeway-Test", "carried")
	req.Header.Set("Proxy-Authorization", "secret")
	rt.ServeHTTP(rec, req)

	if msg, _ := workerErr.Load().(string); msg != "" {
		t.Fatalf("worker saw mangled request: %s", msg)
	}
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if !bytes.Equal(rec.Body.Bytes(), respBody) {
		t.Errorf("response body mangled: %d bytes, want %d", rec.Body.Len(), len(respBody))
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-freeway-reply" {
		t.Errorf("response content-type %q not propagated", ct)
	}
	if v := rec.Header().Get("X-Freeway-Worker"); v != "w1" {
		t.Errorf("response header not relayed (got %q)", v)
	}
	if rec.Header().Get("Keep-Alive") != "" {
		t.Error("hop-by-hop response header relayed to the client")
	}
}

// TestStreamsListingSkipsFailingWorker: the router's merged /v1/streams counts
// a worker only when it answers 200. A worker answering 500 with the JSON
// error envelope adds no streams and is not counted as reporting.
func TestStreamsListingSkipsFailingWorker(t *testing.T) {
	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"streams":[{"id":"a"}],"sessions":{"resident":1}}`))
	}))
	defer healthy.Close()
	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		w.Write([]byte(`{"error":{"code":500,"message":"listing failed"}}`))
	}))
	defer failing.Close()
	rt, err := NewRouter(Config{Workers: []string{
		strings.TrimPrefix(healthy.URL, "http://"), strings.TrimPrefix(failing.URL, "http://"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	rec := routerGet(t, rt, "/v1/streams")
	var got struct {
		Streams  []json.RawMessage `json:"streams"`
		Sessions map[string]int64  `json:"sessions"`
		Workers  int               `json:"workers"`
	}
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &got) != nil {
		t.Fatalf("status %d body %s", rec.Code, rec.Body)
	}
	if got.Workers != 1 || len(got.Streams) != 1 || got.Sessions["resident"] != 1 {
		t.Fatalf("merged listing %s, want the healthy worker's alone (workers 1)", rec.Body)
	}
}

// TestRetryBudgetBoundsBackoff: RetryBudget covers a forward whose every
// attempt runs to its deadline and whose every backoff draws its slowest
// jitter, for the defaults freeway-router starts with and for an edited
// config.
func TestRetryBudgetBoundsBackoff(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want time.Duration
	}{
		// Backoff ceilings 25, 50, 100 and 200 ms.
		{Config{Retries: DefaultRetries}, 5*DefaultRequestTimeout + 375*time.Millisecond},
		// Ceilings 0.1, 0.2, 0.4, 0.8, then capped at 1 s three times.
		{Config{Retries: 7, RequestTimeout: 2 * time.Second, RetryBase: 100 * time.Millisecond, RetryMax: time.Second},
			8*2*time.Second + 4500*time.Millisecond},
	} {
		budget := tc.cfg.RetryBudget()
		if budget != tc.want {
			t.Errorf("retries %d: budget %v, want %v", tc.cfg.Retries, budget, tc.want)
		}
		tc.cfg.Workers = []string{"127.0.0.1:1"}
		rt, err := NewRouter(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		worst := time.Duration(rt.cfg.Retries+1) * rt.cfg.RequestTimeout
		for n := 0; n < rt.cfg.Retries; n++ {
			var slowest time.Duration
			for i := 0; i < 2000; i++ {
				slowest = max(slowest, rt.backoff(n))
			}
			worst += slowest
		}
		rt.Close()
		if worst > budget {
			t.Errorf("retries %d: attempts and drawn backoffs take %v, beyond the budget %v", tc.cfg.Retries, worst, budget)
		}
	}
}
