// Command freeway-serve runs FreewayML as an HTTP JSON service hosting many
// named streams, each with its own learner. Batches are POSTed per stream
// (labeled ones train, unlabeled ones only infer), prequential metrics come
// from the matching stats endpoint:
//
//	freeway-serve -addr :8080 -dim 6 -classes 2 -model mlp
//	curl -s localhost:8080/v1/streams/orders/process -d '{"x":[[0.4,0.5,0.4,0.5,0.4,0.5]],"y":[0]}'
//	curl -s localhost:8080/v1/streams/orders/stats
//	curl -s localhost:8080/v1/streams
//
// Sessions are created on first use, bounded by -max-sessions (LRU
// eviction), and expired by -session-ttl. -checkpoint-dir persists one
// crash-safe snapshot per stream, every -checkpoint-every batches and on
// eviction and shutdown, and restores it when the id reappears — after a
// restart too, on the stream's first request.
//
// The server is hardened for long-lived deployments: request bodies are
// capped, read/write timeouts bound slow clients, and SIGINT/SIGTERM drain
// in-flight requests and write the final checkpoints before exit.
//
// High-throughput ingest: POSTing with Content-Type
// application/x-freeway-batch to the process and infer endpoints sends the
// binary frame format (internal/wire) instead of JSON.
//
// Observability: /v1/metrics serves Prometheus text exposition,
// /v1/streams/{id}/trace serves a stream's per-batch decision trace as JSONL
// (ring capacity set by -trace-cap), and -pprof mounts net/http/pprof under
// /debug/pprof/. The actual bound address is printed on startup, so -addr
// 127.0.0.1:0 works for harnesses that need an ephemeral port.
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
	"syscall"
	"time"

	"freewayml/internal/core"
	"freewayml/internal/guard"
	"freewayml/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address (port 0 picks an ephemeral port; the bound address is printed)")
		dim       = flag.Int("dim", 6, "feature dimensionality of the stream")
		classes   = flag.Int("classes", 2, "number of labels")
		family    = flag.String("model", "mlp", "model family: lr | mlp | cnn3 | cnn5")
		seed      = flag.Int64("seed", 1, "random seed")
		guardPol  = flag.String("guard", "reject", "non-finite input policy: reject | clamp | impute")
		maxBody   = flag.Int64("max-body", serve.DefaultMaxBodyBytes, "request body cap in bytes")
		ckptDir   = flag.String("checkpoint-dir", "", "directory for per-stream checkpoints (one <id>.ckpt per stream, restored on reappearance)")
		ckptEvery = flag.Int("checkpoint-every", 64, "batches between periodic checkpoints")
		maxSess   = flag.Int("max-sessions", 0, "resident stream bound; exceeding it evicts the least-recently-used (0 keeps the default of 64)")
		sessTTL   = flag.Duration("session-ttl", 0, "evict streams idle longer than this (0 disables TTL eviction)")
		warmup    = flag.Int("warmup", 0, "override the shift detector's warmup points (0 keeps the default)")
		traceCap  = flag.Int("trace-cap", 0, "per-stream decision-trace ring capacity (0 keeps the default of 1024)")
		pprofOn   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	)
	flag.Parse()
	opts := serveOptions{
		maxBody: *maxBody, ckptDir: *ckptDir, ckptEvery: *ckptEvery,
		maxSessions: *maxSess, sessionTTL: *sessTTL,
		warmup: *warmup, traceCap: *traceCap, pprof: *pprofOn,
	}
	if err := run(*addr, *dim, *classes, *family, *seed, *guardPol, opts); err != nil {
		log.Fatal(err)
	}
}

// serveOptions bundles the serving knobs main parses from flags.
type serveOptions struct {
	maxBody     int64
	ckptDir     string
	ckptEvery   int
	maxSessions int
	sessionTTL  time.Duration
	warmup      int
	traceCap    int
	pprof       bool
}

func run(addr string, dim, classes int, family string, seed int64, guardPol string, o serveOptions) error {
	cfg := core.DefaultConfig()
	cfg.ModelFamily = family
	cfg.Seed = seed
	cfg.Hyper.Seed = seed
	pol, err := guard.ParsePolicy(guardPol)
	if err != nil {
		return err
	}
	cfg.Guard = pol
	if o.warmup > 0 {
		cfg.Shift.WarmupPoints = o.warmup
	}

	opts := []serve.Option{
		serve.WithMaxBodyBytes(o.maxBody),
		serve.WithTraceCap(o.traceCap),
		serve.WithSessionLimits(o.maxSessions, o.sessionTTL),
	}
	if o.pprof {
		opts = append(opts, serve.WithPprof())
	}
	if o.ckptDir != "" {
		opts = append(opts, serve.WithCheckpointDir(o.ckptDir, o.ckptEvery))
	}
	srv, err := serve.New(cfg, dim, classes, opts...)
	if err != nil {
		return err
	}

	httpSrv := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	// Listen explicitly (rather than ListenAndServe) so :0 resolves to a
	// real port before we announce the address.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		srv.Close()
		return err
	}
	// The bound address names this worker in its trace spans, so the
	// router's /v1/cluster/trace can tell workers apart.
	srv.SetWorkerID(ln.Addr().String())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		fmt.Printf("freeway-serve: %s model, %d features, %d classes, listening on %s\n",
			family, dim, classes, ln.Addr())
		errCh <- httpSrv.Serve(ln)
	}()

	select {
	case err := <-errCh:
		srv.Close()
		return err
	case <-ctx.Done():
	}
	stop()
	log.Print("freeway-serve: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("freeway-serve: shutdown: %v", err)
	}
	// Close tears down every stream and writes the final checkpoints.
	return srv.Close()
}
