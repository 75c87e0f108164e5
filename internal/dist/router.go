package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"freewayml/internal/obs"
)

// Defaults for the failure model. They are deliberately conservative: a
// worker is ejected only after FailThreshold consecutive failures (one lost
// packet must not trigger a cluster rebalance), and rejoins only after it
// has been continuously probed healthy past the cooldown.
const (
	DefaultFailThreshold  = 3
	DefaultCooldown       = 5 * time.Second
	DefaultProbeInterval  = 1 * time.Second
	DefaultProbeTimeout   = 2 * time.Second
	DefaultRequestTimeout = 15 * time.Second
	DefaultRetries        = 4
	DefaultRetryBase      = 25 * time.Millisecond
	DefaultRetryMax       = 2 * time.Second
	DefaultMaxBodyBytes   = 8 << 20
)

// DefaultSpanCap bounds the router's span ring: a few seconds of peak
// traffic at one span per forward attempt.
const DefaultSpanCap = 4096

// Config configures a Router.
type Config struct {
	// Workers is the initial worker set (host:port each). At least one is
	// required; all start healthy and are probed from the first tick.
	Workers []string
	// VNodes is the virtual-node count per worker (0 = DefaultVNodes).
	VNodes int

	// FailThreshold is how many consecutive failures (forwarded requests or
	// probes) open a worker's circuit breaker and eject it from the ring.
	FailThreshold int
	// Cooldown is how long an ejected worker must stay out before a
	// successful probe readmits it.
	Cooldown time.Duration
	// ProbeInterval is the health-probe period; ProbeTimeout bounds each
	// probe (and each migration evict call).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration

	// RequestTimeout bounds each forward attempt; Retries is how many times
	// a failed attempt is retried (against the then-current owner, so a
	// retry after an ejection lands on the new owner). Backoff between
	// attempts is exponential from RetryBase, capped at RetryMax, with
	// half-interval jitter.
	RequestTimeout time.Duration
	Retries        int
	RetryBase      time.Duration
	RetryMax       time.Duration

	// MaxBody caps forwarded request bodies (<= 0 selects the default).
	MaxBody int64

	// DisableTracing turns off trace minting, span recording and the
	// per-hop response headers on the forward path. The span ring and
	// /v1/cluster/trace still exist (they just stay empty), so the flag is
	// a pure data valve — used to measure tracing overhead.
	DisableTracing bool

	// Seed makes the retry jitter deterministic (0 = 1).
	Seed int64

	// Registry receives the router's metrics (nil builds a private one).
	Registry *obs.Registry
	// Transport performs the actual round trips — the seam the chaos
	// harness wraps (nil = the router's own pooled hop transport, hop.go).
	Transport http.RoundTripper
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.VNodes <= 0 {
		out.VNodes = DefaultVNodes
	}
	if out.FailThreshold <= 0 {
		out.FailThreshold = DefaultFailThreshold
	}
	if out.Cooldown < 0 {
		out.Cooldown = DefaultCooldown
	}
	if out.ProbeInterval <= 0 {
		out.ProbeInterval = DefaultProbeInterval
	}
	if out.ProbeTimeout <= 0 {
		out.ProbeTimeout = DefaultProbeTimeout
	}
	if out.RequestTimeout <= 0 {
		out.RequestTimeout = DefaultRequestTimeout
	}
	if out.Retries < 0 {
		out.Retries = DefaultRetries
	}
	if out.RetryBase <= 0 {
		out.RetryBase = DefaultRetryBase
	}
	if out.RetryMax <= 0 {
		out.RetryMax = DefaultRetryMax
	}
	if out.MaxBody <= 0 {
		out.MaxBody = DefaultMaxBodyBytes
	}
	if out.Seed == 0 {
		out.Seed = 1
	}
	return out
}

// RetryBudget is the longest a forward spends on its attempts: each of the
// Retries+1 attempts running to RequestTimeout, and the backoff schedule's
// ceiling before every retry. The migration that an ejection starts runs on
// the forward that caused it and is not included.
func (c Config) RetryBudget() time.Duration {
	c = c.withDefaults()
	budget := time.Duration(c.Retries+1) * c.RequestTimeout
	for n := 0; n < c.Retries; n++ {
		budget += c.backoffCeiling(n)
	}
	return budget
}

// backoffCeiling is the delay before retry n (0-based) ahead of jitter:
// exponential from RetryBase, capped at RetryMax.
func (c *Config) backoffCeiling(n int) time.Duration {
	d := c.RetryBase
	for i := 0; i < n && d < c.RetryMax; i++ {
		d *= 2
	}
	return min(d, c.RetryMax)
}

// workerState is one worker's view in the router: its breaker (healthy ↔
// ejected) and the consecutive-failure count that drives it.
type workerState struct {
	addr        string
	healthy     bool
	consecFails int
	ejectedAt   time.Time

	// inflight counts forward attempts currently outstanding against this
	// worker; atomic because it is touched outside r.mu on the hot path.
	inflight atomic.Int64

	gHealthy   *obs.Gauge
	gInflight  *obs.Gauge
	cFailures  *obs.Counter
	cProbeFail *obs.Counter
	cForwards  *obs.Counter
	cDials     *obs.Counter
	hForward   *obs.Histogram
}

// Router is the stateless routing tier: it owns no stream state, only the
// ring, the per-worker breakers, and a map of which worker each stream id
// was last routed to (so a ring change knows which streams moved). Safe for
// concurrent use.
type Router struct {
	cfg    Config
	client *http.Client
	reg    *obs.Registry
	mux    *http.ServeMux

	mu      sync.Mutex
	ring    *ring
	workers map[string]*workerState
	streams map[string]string // stream id → worker it was last routed to
	// migrating holds the streams a rejoin is moving back, until the move
	// lands: their requests wait on the channel instead of reaching the new
	// owner before the old one has checkpointed and let go.
	migrating map[string]chan struct{}

	rngMu sync.Mutex
	rng   *rand.Rand

	stop    chan struct{}
	bg      sync.WaitGroup
	started atomic.Bool
	closed  atomic.Bool

	cRequests   *obs.Counter
	cRetries    *obs.Counter
	cExhausted  *obs.Counter
	cEjections  *obs.Counter
	cRejoins    *obs.Counter
	cMigrations *obs.Counter
	cEvictOK    *obs.Counter
	cEvictFail  *obs.Counter
	cFlushOK    *obs.Counter
	cFlushFail  *obs.Counter
	hLatency    *obs.Histogram

	// bytesIn/bytesOut count proxied request/response body bytes, keyed by
	// wire proto ("json" or "binary").
	bytesIn  map[string]*obs.Counter
	bytesOut map[string]*obs.Counter

	spans *obs.Ring[obs.Span]
}

// NewRouter builds a router over the given workers. The prober is not
// running until Start; tests drive ProbeOnce directly instead.
func NewRouter(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Workers) == 0 {
		return nil, errors.New("dist: at least one worker is required")
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	rt := &Router{
		cfg:       cfg,
		client:    &http.Client{Transport: cfg.Transport},
		reg:       reg,
		mux:       http.NewServeMux(),
		ring:      newRing(cfg.VNodes),
		workers:   map[string]*workerState{},
		streams:   map[string]string{},
		migrating: map[string]chan struct{}{},
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		stop:      make(chan struct{}),

		cRequests:   reg.Counter("freeway_router_requests_total", "Requests accepted by the router."),
		cRetries:    reg.Counter("freeway_router_retries_total", "Forward attempts retried after a failure."),
		cExhausted:  reg.Counter("freeway_router_exhausted_total", "Requests that failed every retry (502 to the client)."),
		cEjections:  reg.Counter("freeway_router_ejections_total", "Workers ejected by the circuit breaker."),
		cRejoins:    reg.Counter("freeway_router_rejoins_total", "Ejected workers readmitted after cooldown."),
		cMigrations: reg.Counter("freeway_router_migrations_total", "Streams whose owner changed on a ring change."),
		cEvictOK:    reg.Counter("freeway_router_migrate_evicts_total", "Checkpoint-on-migrate evict calls, by result.", "result", "ok"),
		cEvictFail:  reg.Counter("freeway_router_migrate_evicts_total", "Checkpoint-on-migrate evict calls, by result.", "result", "error"),
		cFlushOK:    reg.Counter("freeway_router_stale_flush_total", "No-checkpoint discards of stale sessions on a stream's new owner, by result.", "result", "ok"),
		cFlushFail:  reg.Counter("freeway_router_stale_flush_total", "No-checkpoint discards of stale sessions on a stream's new owner, by result.", "result", "error"),
		hLatency:    reg.Histogram("freeway_router_request_seconds", "End-to-end routed request latency.", nil),

		bytesIn:  map[string]*obs.Counter{},
		bytesOut: map[string]*obs.Counter{},
		spans:    obs.NewRing[obs.Span](DefaultSpanCap),
	}
	if cfg.Transport == nil {
		// rt.workers is complete before the first request and never changes.
		rt.client.Transport = newHopTransport(func(addr string) { rt.workers[addr].cDials.Inc() })
	}
	const proxyBytesHelp = "Request/response body bytes proxied through the router, by direction and wire proto."
	for _, proto := range []string{protoJSON, protoBinary} {
		rt.bytesIn[proto] = reg.Counter("freeway_router_proxy_bytes_total", proxyBytesHelp, "direction", "in", "proto", proto)
		rt.bytesOut[proto] = reg.Counter("freeway_router_proxy_bytes_total", proxyBytesHelp, "direction", "out", "proto", proto)
	}
	for _, addr := range cfg.Workers {
		if addr == "" {
			return nil, errors.New("dist: empty worker address")
		}
		if _, dup := rt.workers[addr]; dup {
			return nil, fmt.Errorf("dist: duplicate worker %q", addr)
		}
		rt.workers[addr] = &workerState{
			addr:       addr,
			healthy:    true,
			gHealthy:   reg.Gauge("freeway_router_worker_healthy", "1 when the worker is in the ring, 0 when ejected.", "worker", addr),
			gInflight:  reg.Gauge("freeway_router_worker_inflight", "Forward attempts currently outstanding, per worker.", "worker", addr),
			cFailures:  reg.Counter("freeway_router_worker_failures_total", "Failed forward attempts and probes, per worker.", "worker", addr),
			cProbeFail: reg.Counter("freeway_router_probe_failures_total", "Failed health probes, per worker.", "worker", addr),
			cForwards:  reg.Counter("freeway_router_worker_forwards_total", "Forward attempts sent, per worker.", "worker", addr),
			cDials:     reg.Counter("freeway_router_hop_dials_total", "Connections the hop transport dialled, per worker (it reuses pooled ones).", "worker", addr),
			hForward:   reg.Histogram("freeway_router_worker_request_seconds", "Per-attempt forward latency, per worker.", nil, "worker", addr),
		}
		rt.workers[addr].gHealthy.Set(1)
		rt.ring.add(addr)
	}

	rt.mux.HandleFunc("/v1/healthz", rt.handleHealthz)
	rt.mux.HandleFunc("/v1/readyz", rt.handleReadyz)
	rt.mux.HandleFunc("/v1/metrics", rt.handleMetrics)
	rt.mux.HandleFunc("/v1/cluster", rt.handleCluster)
	rt.mux.HandleFunc("/v1/cluster/trace", rt.handleClusterTrace)
	rt.mux.HandleFunc("/v1/streams", rt.handleStreams)
	rt.mux.HandleFunc("/v1/streams/", func(w http.ResponseWriter, r *http.Request) {
		rest := strings.TrimPrefix(r.URL.Path, "/v1/streams/")
		id, _, _ := strings.Cut(rest, "/")
		rt.forward(w, r, id)
	})
	return rt, nil
}

// Registry returns the router's metrics registry.
func (r *Router) Registry() *obs.Registry { return r.reg }

// Start launches the background prober. Close stops it.
func (r *Router) Start() {
	if !r.started.CompareAndSwap(false, true) {
		return
	}
	r.bg.Add(1)
	go func() {
		defer r.bg.Done()
		t := time.NewTicker(r.cfg.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-t.C:
				r.ProbeOnce()
			}
		}
	}()
}

// Close stops the prober. Idempotent.
func (r *Router) Close() error {
	if !r.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(r.stop)
	r.bg.Wait()
	r.client.CloseIdleConnections()
	return nil
}

// ServeHTTP implements http.Handler.
func (r *Router) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	r.mux.ServeHTTP(w, req)
}

// route resolves the current owner of a stream id and its state record
// under one lock acquisition, and records the routing decision so a later
// ring change knows the stream lived there. A stream a rejoin is moving back
// waits for the move to land first.
func (r *Router) route(id string) (owner string, ws *workerState, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		done, moving := r.migrating[id]
		if !moving {
			break
		}
		r.mu.Unlock()
		<-done
		r.mu.Lock()
	}
	owner, ok = r.ring.ownerOf(id)
	if ok {
		r.streams[id] = owner
	}
	return owner, r.workers[owner], ok
}

// forward routes one request for stream id: resolve the owner, forward with
// a per-attempt deadline, and on failure back off and retry against the
// then-current owner — which, after the breaker ejects the original worker,
// is the stream's new home. A 503 from a worker (draining or not ready)
// counts as a failure and is retried elsewhere; every other status is the
// worker's answer and is relayed as-is.
//
// Tracing: the request's trace context comes from its traceparent header
// (client-minted) or is minted here, and every attempt records one
// "router.forward" span whose span id becomes the traceparent sent
// downstream — so the worker's span parents to the exact attempt that
// reached it, and a retried request shows one span per attempt under a
// single trace id.
func (r *Router) forward(w http.ResponseWriter, req *http.Request, id string) {
	r.cRequests.Inc()
	start := time.Now()
	defer func() { r.hLatency.Observe(time.Since(start).Seconds()) }()
	proto := protoOf(req.Header.Get("Content-Type"))

	// A declared length within the cap sizes the buffer once; io.ReadAll
	// starts at 512 bytes and regrows by copying.
	var body []byte
	var err error
	if n := req.ContentLength; n >= 0 && n <= r.cfg.MaxBody {
		body = make([]byte, n)
		_, err = io.ReadFull(req.Body, body)
	} else {
		body, err = io.ReadAll(http.MaxBytesReader(w, req.Body, r.cfg.MaxBody))
	}
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			r.writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return
		}
		r.writeError(w, http.StatusBadRequest, fmt.Sprintf("bad request: %v", err))
		return
	}
	r.bytesIn[proto].Add(int64(len(body)))

	tr := r.beginTrace(req, body, id, proto)
	var lastErr error
	attempts := 0
	for attempt := 0; attempt <= r.cfg.Retries; attempt++ {
		attempts = attempt + 1
		var backoff time.Duration
		if attempt > 0 {
			r.cRetries.Inc()
			backoff = r.backoff(attempt - 1)
			if err := sleepCtx(req.Context(), backoff); err != nil {
				lastErr = err
				break
			}
		}
		owner, ws, ok := r.route(id)
		if !ok {
			lastErr = errors.New("no healthy workers in the ring")
			continue
		}
		hop := tr.beginAttempt(req, owner, attempt, backoff)
		ws.gInflight.Set(float64(ws.inflight.Add(1)))
		ws.cForwards.Inc()
		attemptStart := time.Now()
		resp, reply, err := r.do(req.Context(), r.cfg.RequestTimeout, owner, req.Method,
			req.URL.RequestURI(), req.Header, body)
		ws.gInflight.Set(float64(ws.inflight.Add(-1)))
		ws.hForward.Observe(time.Since(attemptStart).Seconds())
		if err == nil && resp.StatusCode == http.StatusServiceUnavailable {
			err = errors.New("status 503")
		}
		if err != nil {
			lastErr = fmt.Errorf("worker %s: %w", owner, err)
			hop.finish(r.noteFailure(owner), lastErr)
			continue
		}
		r.noteSuccess(ws)
		hop.finish("closed", nil)
		tr.setHeaders(w.Header(), resp.Header, start, attempts)
		copyHeaders(w.Header(), resp.Header)
		w.WriteHeader(resp.StatusCode)
		if _, err := w.Write(reply); err != nil {
			log.Printf("dist: relay body: %v", err)
		}
		r.bytesOut[proto].Add(int64(len(reply)))
		return
	}
	r.cExhausted.Inc()
	tr.setHeaders(w.Header(), nil, start, attempts)
	r.writeError(w, http.StatusBadGateway,
		fmt.Sprintf("stream %q: all %d attempts failed: %v", id, r.cfg.Retries+1, lastErr))
}

// hopByHop lists the RFC 9110 connection-scoped headers a proxy must not
// forward; everything else passes through in both directions, so opaque
// payloads (the binary batch format, future content types) route untouched.
// Expect is among them because the router has already buffered the body: a
// worker's "100 Continue" would be read as its final response.
var hopByHop = map[string]struct{}{
	"Connection": {}, "Expect": {}, "Keep-Alive": {}, "Proxy-Authenticate": {},
	"Proxy-Authorization": {}, "Te": {}, "Trailer": {},
	"Transfer-Encoding": {}, "Upgrade": {},
}

// copyHeaders copies every non-hop-by-hop header from src into dst,
// preserving multi-valued headers.
func copyHeaders(dst, src http.Header) {
	for k, vs := range src {
		if _, skip := hopByHop[http.CanonicalHeaderKey(k)]; skip {
			continue
		}
		for _, v := range vs {
			dst.Add(k, v)
		}
	}
}

// do performs one HTTP round trip to a worker under its own deadline,
// forwarding hdr (nil for the router's own control calls) minus the
// hop-by-hop set, and returns the response with its body read and closed.
func (r *Router) do(parent context.Context, timeout time.Duration, worker, method, uri string, hdr http.Header, body []byte) (*http.Response, []byte, error) {
	ctx, cancel := context.WithTimeout(parent, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, "http://"+worker+uri, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	if hdr != nil {
		copyHeaders(req.Header, hdr)
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, reply, err
}

// backoff returns the delay before retry n (0-based): its ceiling with
// jitter uniform over the upper half, so synchronized retries from
// concurrent clients spread out.
func (r *Router) backoff(n int) time.Duration {
	d := r.cfg.backoffCeiling(n)
	r.rngMu.Lock()
	j := time.Duration(r.rng.Int63n(int64(d)/2 + 1))
	r.rngMu.Unlock()
	return d/2 + j
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// noteSuccess resets a worker's consecutive-failure count.
func (r *Router) noteSuccess(ws *workerState) {
	r.mu.Lock()
	if ws.healthy {
		ws.consecFails = 0
	}
	r.mu.Unlock()
}

// noteFailure records one failed attempt against a worker and, at the
// breaker threshold, ejects it: the worker leaves the ring, and every
// stream last routed to it is migrated (best-effort checkpoint-on-evict on
// the old owner — it may be dead, in which case the new owner restores from
// the shared checkpoint directory instead). It returns the worker's breaker
// as the failure left it — "closed" (in the ring) or "open" (ejected) — the
// per-attempt span annotation.
func (r *Router) noteFailure(addr string) string {
	r.mu.Lock()
	ws, ok := r.workers[addr]
	if !ok || !ws.healthy {
		r.mu.Unlock()
		return "open"
	}
	ws.cFailures.Inc()
	ws.consecFails++
	if ws.consecFails < r.cfg.FailThreshold {
		r.mu.Unlock()
		return "closed"
	}
	ws.healthy = false
	ws.ejectedAt = time.Now()
	ws.gHealthy.Set(0)
	r.ring.remove(addr)
	r.cEjections.Inc()
	moved := r.movedStreamsLocked()
	fails := ws.consecFails // a probe may reset it once the lock is released
	r.mu.Unlock()

	log.Printf("dist: worker %s ejected after %d consecutive failures (%d streams to migrate)", addr, fails, len(moved))
	r.migrate(moved)
	return "open"
}

// movedStream records one stream's migration: the worker it was last
// routed to and the worker the ring maps it to now ("" when the ring is
// empty).
type movedStream struct {
	prev, next string
}

// movedStreamsLocked returns the migration plan for every tracked stream
// whose ring owner changed, and forgets them (the next request re-records
// the new owner). Callers hold r.mu.
func (r *Router) movedStreamsLocked() map[string]movedStream {
	moved := map[string]movedStream{}
	for id, prev := range r.streams {
		now, ok := r.ring.ownerOf(id)
		if !ok || now != prev {
			mv := movedStream{prev: prev}
			if ok {
				mv.next = now
			}
			moved[id] = mv
			delete(r.streams, id)
		}
	}
	return moved
}

// migrate runs the two-step handover for each moved stream. First the
// previous owner is checkpoint-and-evicted — best-effort: an unreachable
// owner (the crash case) fails fast and the stream's state comes from its
// last periodic checkpoint in the shared directory instead. Then any
// session still resident on the NEW owner is discarded without a
// checkpoint: a rejoined worker may hold the stream's pre-ejection state in
// memory, and since restore-from-checkpoint happens only at session
// creation, that stale session would otherwise resume silently — and a
// checkpointing evict there would clobber the fresh envelope just written
// by step one.
func (r *Router) migrate(moved map[string]movedStream) {
	for id, mv := range moved {
		r.cMigrations.Inc()
		if r.evictStream(mv.prev, id, true) {
			r.cEvictOK.Inc()
		} else {
			r.cEvictFail.Inc()
		}
		// The new owner restores the stream at its next session creation:
		// from the fresh evict checkpoint when the evict reached the old
		// owner, else from the last periodic checkpoint.
		if mv.next != "" && mv.next != mv.prev {
			if r.evictStream(mv.next, id, false) {
				r.cFlushOK.Inc()
			} else {
				r.cFlushFail.Inc()
			}
		}
	}
}

// evictStream POSTs one evict call; checkpoint=false asks the worker to
// discard the session without a final snapshot.
func (r *Router) evictStream(addr, id string, checkpoint bool) bool {
	uri := "/v1/streams/" + id + "/evict"
	if !checkpoint {
		uri += "?checkpoint=false"
	}
	resp, _, err := r.do(context.Background(), r.cfg.ProbeTimeout, addr, http.MethodPost, uri, nil, nil)
	return err == nil && resp.StatusCode == http.StatusOK
}

// ProbeOnce probes every worker's /v1/healthz once: failures advance the
// breaker exactly like failed forwards; a success past the cooldown
// readmits an ejected worker (rebalancing the streams that move back, this
// time with the old owner reachable for a clean checkpoint-on-migrate).
// Exported so tests drive the failure model deterministically; Start calls
// it on a ticker.
func (r *Router) ProbeOnce() {
	r.mu.Lock()
	addrs := make([]string, 0, len(r.workers))
	for addr := range r.workers {
		addrs = append(addrs, addr)
	}
	r.mu.Unlock()

	for _, addr := range addrs {
		resp, _, err := r.do(context.Background(), r.cfg.ProbeTimeout, addr,
			http.MethodGet, "/v1/healthz", nil, nil)
		if err != nil || resp.StatusCode != http.StatusOK {
			r.mu.Lock()
			if ws, ok := r.workers[addr]; ok {
				ws.cProbeFail.Inc()
			}
			r.mu.Unlock()
			r.noteFailure(addr)
			continue
		}
		r.noteProbeOK(addr)
	}
}

// noteProbeOK clears failures on a healthy worker and readmits an ejected
// one whose cooldown has passed.
func (r *Router) noteProbeOK(addr string) {
	r.mu.Lock()
	ws, ok := r.workers[addr]
	if !ok {
		r.mu.Unlock()
		return
	}
	if ws.healthy {
		ws.consecFails = 0
		r.mu.Unlock()
		return
	}
	if time.Since(ws.ejectedAt) < r.cfg.Cooldown {
		r.mu.Unlock()
		return
	}
	ws.healthy = true
	ws.consecFails = 0
	ws.gHealthy.Set(1)
	r.ring.add(addr)
	r.cRejoins.Inc()
	moved := r.movedStreamsLocked()
	// The old owners are reachable and still serving these streams: hold
	// their requests until each has been checkpointed and evicted there, or
	// the rejoined worker would restore a checkpoint that the old owner's
	// evict then overwrites with older state.
	done := make(chan struct{})
	for id := range moved {
		r.migrating[id] = done
	}
	r.mu.Unlock()

	log.Printf("dist: worker %s rejoined the ring (%d streams to migrate back)", addr, len(moved))
	r.migrate(moved)
	r.mu.Lock()
	for id := range moved {
		delete(r.migrating, id)
	}
	r.mu.Unlock()
	close(done)
}

// ClusterWorker is one worker's row in the /v1/cluster topology report.
type ClusterWorker struct {
	Addr             string  `json:"addr"`
	Healthy          bool    `json:"healthy"`
	ConsecutiveFails int     `json:"consecutive_fails"`
	EjectedForS      float64 `json:"ejected_for_s,omitempty"`
}

// ClusterResponse is the /v1/cluster body.
type ClusterResponse struct {
	Workers       []ClusterWorker `json:"workers"`
	HealthyCount  int             `json:"healthy_count"`
	TrackedStream int             `json:"tracked_streams"`
}

func (r *Router) handleCluster(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		r.writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	r.mu.Lock()
	out := ClusterResponse{TrackedStream: len(r.streams)}
	for _, addr := range sortedKeys(r.workers) {
		ws := r.workers[addr]
		cw := ClusterWorker{Addr: addr, Healthy: ws.healthy, ConsecutiveFails: ws.consecFails}
		if !ws.healthy {
			cw.EjectedForS = time.Since(ws.ejectedAt).Seconds()
		} else {
			out.HealthyCount++
		}
		out.Workers = append(out.Workers, cw)
	}
	r.mu.Unlock()
	writeJSON(w, out)
}

func sortedKeys(m map[string]*workerState) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, map[string]string{"status": "ok"})
}

// handleReadyz: the router is ready when at least one worker is in the
// ring — with zero, every forward would 502.
func (r *Router) handleReadyz(w http.ResponseWriter, req *http.Request) {
	r.mu.Lock()
	n := len(r.ring.members())
	r.mu.Unlock()
	if n == 0 {
		r.writeError(w, http.StatusServiceUnavailable, "no healthy workers")
		return
	}
	writeJSON(w, map[string]any{"status": "ok", "healthy_workers": n})
}

func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		r.writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := r.reg.WritePrometheus(w); err != nil {
		log.Printf("dist: metrics write failed: %v", err)
	}
}

// handleStreams merges every healthy worker's /v1/streams listing into one
// cluster-wide view: concatenated stream summaries, summed lifecycle
// aggregates. A worker that fails the scrape, or answers anything but 200,
// is skipped and not counted (its streams are simply absent from this
// snapshot).
func (r *Router) handleStreams(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		r.writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	merged := struct {
		Streams  []json.RawMessage `json:"streams"`
		Sessions map[string]int64  `json:"sessions"`
		Workers  int               `json:"workers"`
	}{Streams: []json.RawMessage{}, Sessions: map[string]int64{}}
	for _, addr := range r.ringMembers() {
		body, ok := r.scrapeWorker(req, addr, "/v1/streams")
		if !ok {
			continue
		}
		var one struct {
			Streams  []json.RawMessage `json:"streams"`
			Sessions map[string]int64  `json:"sessions"`
		}
		if json.Unmarshal(body, &one) != nil {
			continue
		}
		merged.Workers++
		merged.Streams = append(merged.Streams, one.Streams...)
		for k, v := range one.Sessions {
			merged.Sessions[k] += v
		}
	}
	writeJSON(w, merged)
}

// writeError sends the same JSON error envelope the serve tier uses, so a
// client sees one contract whether it talks to a worker or the router.
func (r *Router) writeError(w http.ResponseWriter, status int, msg string) {
	var body struct {
		Error struct {
			Code    int    `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	body.Error.Code = status
	body.Error.Message = msg
	data, err := json.Marshal(body)
	if err != nil {
		http.Error(w, msg, status)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)+1))
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
}

func writeJSON(w http.ResponseWriter, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, "response encoding failed", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)+1))
	w.Write(append(data, '\n'))
}
