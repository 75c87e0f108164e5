package dist

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"freewayml/internal/core"
	"freewayml/internal/faults"
	"freewayml/internal/serve"
)

// testWorker is a real freeway-serve worker behind an httptest listener —
// the unit the failover tests kill, partition, and rejoin.
type testWorker struct {
	srv  *serve.Server
	ts   *httptest.Server
	dead atomic.Bool
}

func (w *testWorker) addr() string { return strings.TrimPrefix(w.ts.URL, "http://") }

// kill closes the listener and the idle connections without shutting the
// server down — from the cluster's point of view this is an unclean death: no
// final checkpoints, pooled connections reset. A request the worker reads
// after its death is aborted unprocessed, as a dead process would leave it
// (closing an idle connection races with a request arriving on it); requests
// already being processed finish.
func (w *testWorker) kill() {
	w.dead.Store(true)
	w.ts.Close()
}

// newTestWorker boots a worker persisting every batch's checkpoint into the
// shared dir, so failover loses nothing.
func newTestWorker(t *testing.T, dir string, opts ...serve.Option) *testWorker {
	t.Helper()
	return startTestWorker(t, dir, nil, opts...)
}

// startTestWorker is newTestWorker on the given listener (nil picks a free
// loopback port).
func startTestWorker(t *testing.T, dir string, ln net.Listener, opts ...serve.Option) *testWorker {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Shift.WarmupPoints = 64
	opts = append([]serve.Option{serve.WithCheckpointDir(dir, 1)}, opts...)
	srv, err := serve.New(cfg, 3, 2, opts...)
	if err != nil {
		t.Fatal(err)
	}
	w := &testWorker{srv: srv}
	w.ts = httptest.NewUnstartedServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if w.dead.Load() {
			panic(http.ErrAbortHandler)
		}
		srv.ServeHTTP(rw, r)
	}))
	if ln != nil {
		w.ts.Listener.Close()
		w.ts.Listener = ln
	}
	w.ts.Start()
	t.Cleanup(func() {
		w.ts.Close()
		srv.Close()
	})
	return w
}

func failoverRouter(t *testing.T, chaos *faults.ChaosTransport, workers ...*testWorker) *Router {
	t.Helper()
	cfg := Config{
		FailThreshold:  2,
		Cooldown:       0, // rejoin on the first healthy probe
		ProbeTimeout:   2 * time.Second,
		RequestTimeout: 5 * time.Second,
		Retries:        6,
		RetryBase:      time.Millisecond,
		RetryMax:       8 * time.Millisecond,
	}
	for _, w := range workers {
		cfg.Workers = append(cfg.Workers, w.addr())
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

// processVia POSTs one labeled 4-sample batch for id through the router and
// returns the HTTP status.
func processVia(t *testing.T, rt *Router, rng *rand.Rand, id string) int {
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
	rt.ServeHTTP(rec, hr)
	return rec.Code
}

// statsVia fetches a stream's stats through the router.
func statsVia(t *testing.T, rt *Router, id string) serve.StatsResponse {
	t.Helper()
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/streams/"+id+"/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("stats for %q: status %d body %s", id, rec.Code, rec.Body)
	}
	var out serve.StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// residentStreams lists the stream ids resident on a worker, asked
// directly (not via the router).
func residentStreams(t *testing.T, w *testWorker) map[string]bool {
	t.Helper()
	resp, err := http.Get(w.ts.URL + "/v1/streams")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var listing struct {
		Streams []struct {
			ID string `json:"id"`
		} `json:"streams"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, s := range listing.Streams {
		out[s.ID] = true
	}
	return out
}

// TestFailoverAfterWorkerKill is the acceptance scenario: kill a worker
// holding several active streams mid-traffic and require that every stream
// resumes on a new owner from its last checkpoint, with no client-visible
// error once the retry/backoff budget is in play.
func TestFailoverAfterWorkerKill(t *testing.T) {
	dir := t.TempDir()
	workers := []*testWorker{
		newTestWorker(t, dir),
		newTestWorker(t, dir),
		newTestWorker(t, dir),
	}
	rt := failoverRouter(t, nil, workers...)
	rng := rand.New(rand.NewSource(7))

	const nStreams, nBatches = 8, 3
	ids := make([]string, nStreams)
	for i := range ids {
		ids[i] = fmt.Sprintf("f%d", i)
	}
	for b := 0; b < nBatches; b++ {
		for _, id := range ids {
			if code := processVia(t, rt, rng, id); code != http.StatusOK {
				t.Fatalf("stream %s batch %d: status %d", id, b, code)
			}
		}
	}

	// Pick the victim: the worker holding the most of our streams.
	victim, victimStreams := workers[0], map[string]bool{}
	for _, w := range workers {
		if res := residentStreams(t, w); len(res) > len(victimStreams) {
			victim, victimStreams = w, res
		}
	}
	owned := 0
	for _, id := range ids {
		if victimStreams[id] {
			owned++
		}
	}
	if owned == 0 {
		t.Fatal("victim owns none of the test streams; test is vacuous")
	}
	before := map[string]int{}
	for _, id := range ids {
		before[id] = statsVia(t, rt, id).Batches
	}

	victim.kill()
	t.Logf("killed %s holding %d of %d streams", victim.addr(), owned, nStreams)

	// One more batch per stream: every one must succeed via retry/backoff.
	for _, id := range ids {
		if code := processVia(t, rt, rng, id); code != http.StatusOK {
			t.Fatalf("stream %s after kill: status %d (client-visible failure)", id, code)
		}
	}
	for _, id := range ids {
		st := statsVia(t, rt, id)
		if st.Batches != before[id]+1 {
			t.Errorf("stream %s: batches %d after failover, want %d (checkpoint continuity)",
				id, st.Batches, before[id]+1)
		}
		if victimStreams[id] && !st.Restored {
			t.Errorf("stream %s lived on the killed worker but was not restored from checkpoint", id)
		}
	}
	if got := counterValue(rt, "freeway_router_ejections_total"); got != 1 {
		t.Errorf("ejections_total = %d, want 1", got)
	}
	if got := counterValue(rt, "freeway_router_migrations_total"); int(got) < owned {
		t.Errorf("migrations_total = %d, want >= %d", got, owned)
	}
}

// TestFailoverPartitionThenRejoin covers the reachable-owner migration: the
// stream fails over during a partition, then migrates back cleanly when the
// worker rejoins — including the stale-session flush on the rejoined owner,
// without which the stream would silently resume from pre-partition state.
func TestFailoverPartitionThenRejoin(t *testing.T) {
	dir := t.TempDir()
	a := newTestWorker(t, dir)
	b := newTestWorker(t, dir)
	chaos := faults.NewChaosTransport(newHopTransport(nil))
	rt := failoverRouter(t, chaos, a, b)
	rng := rand.New(rand.NewSource(11))

	const id = "pq"
	for i := 0; i < 3; i++ {
		if code := processVia(t, rt, rng, id); code != http.StatusOK {
			t.Fatalf("seed batch %d: status %d", i, code)
		}
	}
	victim := a
	if residentStreams(t, b)[id] {
		victim = b
	}
	if !residentStreams(t, victim)[id] {
		t.Fatalf("stream %q resident on neither worker", id)
	}

	chaos.Partition(victim.addr())
	if code := processVia(t, rt, rng, id); code != http.StatusOK {
		t.Fatalf("batch during partition: status %d", code)
	}
	st := statsVia(t, rt, id)
	if st.Batches != 4 || !st.Restored {
		t.Fatalf("after failover: batches=%d restored=%v, want 4/true", st.Batches, st.Restored)
	}

	chaos.Heal(victim.addr())
	rt.ProbeOnce()
	if got := counterValue(rt, "freeway_router_rejoins_total"); got != 1 {
		t.Fatalf("rejoins_total = %d, want 1", got)
	}
	if got := counterValue(rt, "freeway_router_migrate_evicts_total", "result", "ok"); got < 1 {
		t.Errorf("no clean checkpoint-on-migrate evict recorded on rejoin")
	}

	// The stream is back on its original worker and continues from the
	// survivor's checkpoint: 5 batches total. Without the stale flush the
	// rejoined worker's in-memory session (3 batches) would win and this
	// would read 4.
	if code := processVia(t, rt, rng, id); code != http.StatusOK {
		t.Fatalf("batch after rejoin: status %d", code)
	}
	if !residentStreams(t, victim)[id] {
		t.Errorf("stream %q did not move back to the rejoined worker", id)
	}
	st = statsVia(t, rt, id)
	if st.Batches != 5 {
		t.Errorf("after rejoin: batches=%d, want 5 (continuity through both migrations)", st.Batches)
	}
	if got := counterValue(rt, "freeway_router_stale_flush_total", "result", "ok"); got < 1 {
		t.Errorf("stale_flush ok = %d, want >= 1", got)
	}
}
