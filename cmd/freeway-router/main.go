// Command freeway-router is the stateless routing tier in front of N
// freeway-serve workers: it consistent-hashes stream ids onto the worker
// ring and forwards each request, with health probes, per-request
// deadlines, bounded retry with exponential backoff, and a per-worker
// circuit breaker. An unhealthy worker is ejected from the ring and its
// streams migrate — checkpoint-on-evict on the old owner when reachable,
// restore from the shared checkpoint directory on the new owner otherwise —
// so workers must share -checkpoint-dir for failover to preserve state:
//
//	freeway-serve  -addr :9001 -checkpoint-dir /var/lib/freeway -checkpoint-every 8
//	freeway-serve  -addr :9002 -checkpoint-dir /var/lib/freeway -checkpoint-every 8
//	freeway-router -addr :8080 -workers 127.0.0.1:9001,127.0.0.1:9002
//	curl -s localhost:8080/v1/streams/orders/process -d '{"x":[[...]],"y":[0]}'
//	curl -s localhost:8080/v1/cluster
//
// The router exposes /v1/healthz and /v1/readyz (ready = at least one
// healthy worker), /v1/metrics with its own series (retries, ejections,
// rejoins, migrations, per-worker breaker state and latency), /v1/cluster
// with the topology, and a merged /v1/streams listing. Every stream route,
// /v1/streams/{id}/*, is forwarded to the worker owning {id}.
//
// Tracing: every request carries a W3C traceparent (accepted from the client
// or minted here), each forward attempt records a span, and the response
// names its trace in X-Freeway-Trace; /v1/cluster/trace?id= assembles that
// trace across the router and every worker. Worker metrics are scraped from
// each worker's own /v1/metrics.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"freewayml/internal/dist"
)

func main() {
	var (
		addr          = flag.String("addr", ":8080", "listen address (port 0 picks an ephemeral port; the bound address is printed)")
		workers       = flag.String("workers", "", "comma-separated worker addresses (host:port each); required")
		vnodes        = flag.Int("vnodes", dist.DefaultVNodes, "virtual nodes per worker on the hash ring")
		failThreshold = flag.Int("fail-threshold", dist.DefaultFailThreshold, "consecutive failures before a worker is ejected")
		cooldown      = flag.Duration("cooldown", dist.DefaultCooldown, "minimum ejection time before a healthy probe readmits a worker")
		probeInterval = flag.Duration("probe-interval", dist.DefaultProbeInterval, "health-probe period")
		probeTimeout  = flag.Duration("probe-timeout", dist.DefaultProbeTimeout, "per-probe (and per-migration-evict) deadline")
		reqTimeout    = flag.Duration("request-timeout", dist.DefaultRequestTimeout, "per-forward-attempt deadline")
		retries       = flag.Int("retries", dist.DefaultRetries, "retries after a failed forward attempt")
		retryBase     = flag.Duration("retry-base", dist.DefaultRetryBase, "initial retry backoff (doubles per retry, jittered)")
		retryMax      = flag.Duration("retry-max", dist.DefaultRetryMax, "retry backoff cap")
		maxBody       = flag.Int64("max-body", dist.DefaultMaxBodyBytes, "request body cap in bytes")
		seed          = flag.Int64("seed", 1, "retry-jitter seed")
		noTracing     = flag.Bool("disable-tracing", false, "turn off trace spans and per-hop response headers")
	)
	flag.Parse()
	if err := run(*addr, *workers, dist.Config{
		VNodes:         *vnodes,
		FailThreshold:  *failThreshold,
		Cooldown:       *cooldown,
		ProbeInterval:  *probeInterval,
		ProbeTimeout:   *probeTimeout,
		RequestTimeout: *reqTimeout,
		Retries:        *retries,
		RetryBase:      *retryBase,
		RetryMax:       *retryMax,
		MaxBody:        *maxBody,
		Seed:           *seed,
		DisableTracing: *noTracing,
	}); err != nil {
		log.Fatal(err)
	}
}

// newServer serves the router. The write deadline starts when a request's
// headers have been read, so it covers the body read (ReadTimeout), a
// forward that rides out its whole retry budget, and the reply: a shorter one
// drops the connection before the client gets the 502 envelope.
func newServer(router *dist.Router, cfg dist.Config) *http.Server {
	const readTimeout, replyTimeout = 30 * time.Second, 5 * time.Second
	return &http.Server{
		Handler:           router,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       readTimeout,
		WriteTimeout:      readTimeout + cfg.RetryBudget() + replyTimeout,
		IdleTimeout:       2 * time.Minute,
	}
}

func run(addr, workers string, cfg dist.Config) error {
	for _, w := range strings.Split(workers, ",") {
		if w = strings.TrimSpace(w); w != "" {
			cfg.Workers = append(cfg.Workers, w)
		}
	}
	if len(cfg.Workers) == 0 {
		return fmt.Errorf("-workers is required (comma-separated host:port list)")
	}
	router, err := dist.NewRouter(cfg)
	if err != nil {
		return err
	}
	router.Start()
	defer router.Close()

	httpSrv := newServer(router, cfg)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		fmt.Printf("freeway-router: routing %d workers, listening on %s\n",
			len(cfg.Workers), ln.Addr())
		errCh <- httpSrv.Serve(ln)
	}()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	stop()
	log.Print("freeway-router: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("freeway-router: shutdown: %v", err)
	}
	return router.Close()
}
