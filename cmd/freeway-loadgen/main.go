// Command freeway-loadgen drives a freeway-serve instance with concurrent
// multi-stream training traffic and reports throughput and latency
// quantiles. It is the load driver behind the CI loadgen and cluster
// smokes:
//
//	freeway-loadgen -serve bin/freeway-serve -streams 8 -concurrency 8 -duration 10s
//	freeway-loadgen -addr 127.0.0.1:8080 -mode open -rate 500 -duration 30s
//
// With -serve a server is booted on an ephemeral port (and torn down at
// exit); with -addr an already-running server is targeted and -serve is
// ignored. Two arrival models:
//
//   - closed (default): -concurrency workers each keep exactly one request
//     in flight — measured latency is service time under self-throttling
//     load, the right model for capacity benchmarks.
//   - open: requests are dispatched at a fixed -rate regardless of how the
//     server keeps up; latency is measured from the *intended* dispatch
//     time, so queueing delay is included — the right model for SLO checks
//     (avoids coordinated omission).
//
// Each request POSTs one labeled batch to /v1/streams/{id}/process, cycling
// round-robin over -streams synthetic streams (two separable Gaussian
// classes per stream, shifted per stream so streams are not identical).
// -proto binary switches the payload to the length-prefixed wire frame
// (-dtype picks f64 or f32 features).
// Latency lands in an internal/obs histogram; the summary prints
// throughput, error count, and p50/p95/p99, and -out writes the same as
// JSON. Exit status is nonzero when any request errored.
//
// Cluster mode drives the distributed tier through a kill/restart schedule:
//
//	freeway-loadgen -cluster 2 -kill-after 3s -duration 8s
//
// boots N freeway-serve workers sharing a checkpoint directory plus a
// freeway-router in front, points the load at the router, SIGKILLs one
// worker -kill-after into the run (and optionally restarts it at
// -restart-after, exercising rejoin + migrate-back). The summary then also
// reports the failure-injection view: when the kill happened, the error
// budget actually consumed (error_rate), and recovery_s — how long after
// the kill the last client-visible error occurred. Zero errors means the
// router's retry/backoff budget absorbed the failover completely.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"freewayml/internal/obs"
	"freewayml/internal/serve"
	"freewayml/internal/stream"
	"freewayml/internal/wire"
)

func main() {
	var (
		addr      = flag.String("addr", "", "target an already-running server at host:port (skips booting one)")
		serveBin  = flag.String("serve", "bin/freeway-serve", "freeway-serve binary to boot when -addr is empty")
		streams   = flag.Int("streams", 8, "number of synthetic streams")
		conc      = flag.Int("concurrency", 8, "concurrent workers (in-flight requests in closed mode)")
		batch     = flag.Int("batch", 32, "samples per request")
		dim       = flag.Int("dim", 6, "feature dimensionality")
		classes   = flag.Int("classes", 2, "number of labels")
		model     = flag.String("model", "lr", "model family for the booted server")
		duration  = flag.Duration("duration", 10*time.Second, "load duration")
		mode      = flag.String("mode", "closed", "arrival model: closed | open")
		rate      = flag.Float64("rate", 200, "open mode: total request arrivals per second")
		seed      = flag.Int64("seed", 1, "random seed for synthetic batches")
		out       = flag.String("out", "", "write the JSON summary to this file ('-' for stdout)")
		proto     = flag.String("proto", "json", "request encoding: json | binary (the length-prefixed wire frame)")
		dtype     = flag.String("dtype", "f64", "binary proto feature payload: f64 | f32")
		inferFrac = flag.Float64("infer-frac", 0, "fraction of requests sent label-less to /infer (read/write mix; 0 = pure training load)")

		cluster      = flag.Int("cluster", 0, "boot a freeway-router plus this many workers and load the router (0 keeps single-server mode)")
		routerBin    = flag.String("router", "bin/freeway-router", "freeway-router binary for -cluster mode")
		killAfter    = flag.Duration("kill-after", 0, "cluster mode: SIGKILL one worker this long into the run (0 disables)")
		restartAfter = flag.Duration("restart-after", 0, "cluster mode: restart the killed worker this long into the run (0 disables)")
		ckptEvery    = flag.Int("checkpoint-every", 1, "cluster mode: worker checkpoint period in batches (1 = lossless failover)")
	)
	flag.Parse()
	cfg := config{
		addr: *addr, serveBin: *serveBin, streams: *streams, conc: *conc,
		batch: *batch, dim: *dim, classes: *classes, model: *model,
		duration: *duration, mode: *mode, rate: *rate, seed: *seed, out: *out,
		proto: *proto, dtype: *dtype, inferFrac: *inferFrac,
		cluster: *cluster, routerBin: *routerBin,
		killAfter: *killAfter, restartAfter: *restartAfter, ckptEvery: *ckptEvery,
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "freeway-loadgen:", err)
		os.Exit(1)
	}
}

type config struct {
	addr, serveBin, model, mode, out string
	streams, conc, batch, dim        int
	classes                          int
	duration                         time.Duration
	rate                             float64
	seed                             int64

	proto, dtype string
	wireDtype    byte
	inferFrac    float64

	cluster                 int
	routerBin               string
	killAfter, restartAfter time.Duration
	ckptEvery               int
}

// summary is the JSON report (-out).
type summary struct {
	Mode          string  `json:"mode"`
	Streams       int     `json:"streams"`
	Concurrency   int     `json:"concurrency"`
	Batch         int     `json:"batch"`
	DurationS     float64 `json:"duration_s"`
	Requests      int64   `json:"requests"`
	Errors        int64   `json:"errors"`
	ThroughputRPS float64 `json:"throughput_rps"`
	SamplesPerS   float64 `json:"samples_per_s"`
	P50Ms         float64 `json:"p50_ms"`
	P95Ms         float64 `json:"p95_ms"`
	P99Ms         float64 `json:"p99_ms"`

	// Ingest-path descriptors (omitted in the default JSON configuration, so
	// the summary stays byte-compatible with earlier consumers).
	Proto string `json:"proto,omitempty"`
	Dtype string `json:"dtype,omitempty"`

	// Read/write-mix report: the configured label-less fraction and how
	// many requests actually took the inference plane.
	InferFrac     float64 `json:"infer_frac,omitempty"`
	InferRequests int64   `json:"infer_requests,omitempty"`

	// Cluster-mode failure-injection report. error_rate is the error
	// budget actually consumed; recovery_s is how long after the kill the
	// last client-visible error landed (0 = the router's retry budget
	// absorbed the failover with no errors at all).
	Cluster         int     `json:"cluster,omitempty"`
	KillAfterS      float64 `json:"kill_after_s,omitempty"`
	ErrorRate       float64 `json:"error_rate"`
	ErrorsAfterKill int64   `json:"errors_after_kill"`
	RecoveryS       float64 `json:"recovery_s"`

	// Per-hop latency breakdown, read from the X-Freeway-Worker-Micros and
	// X-Freeway-Router-Micros response headers: how much of the end-to-end
	// latency each tier spent. Omitted when the target never reported a hop
	// time (older server, or tracing disabled on the router).
	WorkerP50Ms float64 `json:"worker_p50_ms,omitempty"`
	WorkerP95Ms float64 `json:"worker_p95_ms,omitempty"`
	WorkerP99Ms float64 `json:"worker_p99_ms,omitempty"`
	RouterP50Ms float64 `json:"router_p50_ms,omitempty"`
	RouterP95Ms float64 `json:"router_p95_ms,omitempty"`
	RouterP99Ms float64 `json:"router_p99_ms,omitempty"`
}

// hopStats accumulates the per-hop wall times the serving tiers stamp on
// their responses. The histograms are concurrency-safe, so every load
// worker observes into the same pair.
type hopStats struct {
	worker *obs.Histogram
	router *obs.Histogram
}

// observe parses one hop-micros header value into its histogram.
func (h *hopStats) observe(hist *obs.Histogram, val string) {
	if val == "" {
		return
	}
	micros, err := strconv.ParseFloat(val, 64)
	if err != nil || micros < 0 {
		return
	}
	hist.Observe(micros / 1e6)
}

func run(cfg config) error {
	switch cfg.mode {
	case "closed", "open":
	default:
		return fmt.Errorf("unknown -mode %q (want closed or open)", cfg.mode)
	}
	switch cfg.proto {
	case "json", "binary":
	default:
		return fmt.Errorf("unknown -proto %q (want json or binary)", cfg.proto)
	}
	switch cfg.dtype {
	case "f64":
		cfg.wireDtype = wire.Float64
	case "f32":
		cfg.wireDtype = wire.Float32
	default:
		return fmt.Errorf("unknown -dtype %q (want f64 or f32)", cfg.dtype)
	}
	if cfg.streams < 1 || cfg.conc < 1 || cfg.batch < 1 || cfg.dim < 1 {
		return fmt.Errorf("-streams, -concurrency, -batch, and -dim must all be >= 1")
	}
	if cfg.inferFrac < 0 || cfg.inferFrac > 1 {
		return fmt.Errorf("-infer-frac must be in [0, 1]")
	}

	base := cfg.addr
	var cl *clusterProcs
	if base == "" {
		if cfg.cluster > 0 {
			var err error
			cl, err = bootCluster(cfg)
			if err != nil {
				return err
			}
			defer cl.stop()
			base = cl.router.addr
		} else {
			addr, stopServer, err := bootServer(cfg)
			if err != nil {
				return err
			}
			defer stopServer()
			base = addr
		}
	}
	if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		base = "http://" + base
	}
	if err := waitHealthy(base, time.Now().Add(10*time.Second)); err != nil {
		return err
	}

	lat := obs.NewHistogram(nil)
	hops := &hopStats{worker: obs.NewHistogram(nil), router: obs.NewHistogram(nil)}
	var requests, errCount, inferReqs atomic.Int64
	client := &http.Client{Timeout: 30 * time.Second}

	// In open mode arrivals carry their intended dispatch time so queueing
	// delay counts against latency; the channel gives a bounded queue.
	var arrivals chan time.Time
	stopArrivals := make(chan struct{})
	if cfg.mode == "open" {
		if cfg.rate <= 0 {
			return fmt.Errorf("-rate must be > 0 in open mode")
		}
		arrivals = make(chan time.Time, 4*cfg.conc)
		go func() {
			interval := time.Duration(float64(time.Second) / cfg.rate)
			tick := time.NewTicker(interval)
			defer tick.Stop()
			next := time.Now()
			for {
				select {
				case <-stopArrivals:
					close(arrivals)
					return
				case <-tick.C:
					next = next.Add(interval)
					select {
					case arrivals <- next:
					default: // queue full: the server is far behind; drop the arrival
					}
				}
			}
		}()
	}

	var pool stream.BatchPool
	start := time.Now()
	deadline := start.Add(cfg.duration)

	// Failure-injection clock: killTime is set when the SIGKILL lands;
	// every request error after that updates lastErrNano, so recovery time
	// is "last client-visible error after the kill".
	var killTime, lastErrNano, errsAfterKill atomic.Int64
	if cl != nil && cfg.killAfter > 0 {
		go func() {
			time.Sleep(cfg.killAfter)
			if err := cl.killWorker(0); err != nil {
				fmt.Fprintf(os.Stderr, "freeway-loadgen: kill worker: %v\n", err)
				return
			}
			killTime.Store(time.Now().UnixNano())
			fmt.Printf("freeway-loadgen: SIGKILLed worker %s %.1fs into the run\n",
				cl.workers[0].addr, time.Since(start).Seconds())
			if cfg.restartAfter > cfg.killAfter {
				time.Sleep(cfg.restartAfter - cfg.killAfter)
				if err := cl.restartWorker(0); err != nil {
					fmt.Fprintf(os.Stderr, "freeway-loadgen: restart worker: %v\n", err)
					return
				}
				fmt.Printf("freeway-loadgen: restarted worker %s %.1fs into the run\n",
					cl.workers[0].addr, time.Since(start).Seconds())
			}
		}()
	}

	var wg sync.WaitGroup
	for w := 0; w < cfg.conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + int64(w)))
			buf := &bytes.Buffer{}
			var bin []byte
			for i := 0; ; i++ {
				var intended time.Time
				if cfg.mode == "open" {
					t, ok := <-arrivals
					if !ok {
						return
					}
					intended = t
				} else {
					if time.Now().After(deadline) {
						return
					}
					intended = time.Now()
				}
				sid := (w + i*cfg.conc) % cfg.streams
				err := postBatch(client, base, sid, cfg, rng, &pool, buf, &bin, hops, &inferReqs)
				lat.Observe(time.Since(intended).Seconds())
				requests.Add(1)
				if err != nil {
					errCount.Add(1)
					if killTime.Load() != 0 {
						errsAfterKill.Add(1)
						now := time.Now().UnixNano()
						for {
							old := lastErrNano.Load()
							if now <= old || lastErrNano.CompareAndSwap(old, now) {
								break
							}
						}
					}
				}
			}
		}(w)
	}
	if cfg.mode == "open" {
		time.Sleep(cfg.duration)
		close(stopArrivals)
	}
	wg.Wait()
	elapsed := time.Since(start)

	s := summary{
		Mode:          cfg.mode,
		Streams:       cfg.streams,
		Concurrency:   cfg.conc,
		Batch:         cfg.batch,
		DurationS:     elapsed.Seconds(),
		Requests:      requests.Load(),
		Errors:        errCount.Load(),
		ThroughputRPS: float64(requests.Load()) / elapsed.Seconds(),
		SamplesPerS:   float64(requests.Load()*int64(cfg.batch)) / elapsed.Seconds(),
		P50Ms:         lat.Quantile(0.50) * 1e3,
		P95Ms:         lat.Quantile(0.95) * 1e3,
		P99Ms:         lat.Quantile(0.99) * 1e3,
		InferFrac:     cfg.inferFrac,
		InferRequests: inferReqs.Load(),
	}
	if cfg.proto != "json" {
		s.Proto, s.Dtype = cfg.proto, cfg.dtype
	}
	if s.Requests > 0 {
		s.ErrorRate = float64(s.Errors) / float64(s.Requests)
	}
	if cfg.cluster > 0 {
		s.Cluster = cfg.cluster
		s.KillAfterS = cfg.killAfter.Seconds()
		s.ErrorsAfterKill = errsAfterKill.Load()
		if kt := killTime.Load(); kt != 0 && s.ErrorsAfterKill > 0 {
			s.RecoveryS = float64(lastErrNano.Load()-kt) / 1e9
		}
	}
	if hops.worker.Count() > 0 {
		s.WorkerP50Ms = hops.worker.Quantile(0.50) * 1e3
		s.WorkerP95Ms = hops.worker.Quantile(0.95) * 1e3
		s.WorkerP99Ms = hops.worker.Quantile(0.99) * 1e3
	}
	if hops.router.Count() > 0 {
		s.RouterP50Ms = hops.router.Quantile(0.50) * 1e3
		s.RouterP95Ms = hops.router.Quantile(0.95) * 1e3
		s.RouterP99Ms = hops.router.Quantile(0.99) * 1e3
	}
	fmt.Printf("freeway-loadgen: %s mode, %d streams × %d workers × batch %d for %.1fs\n",
		s.Mode, s.Streams, s.Concurrency, s.Batch, s.DurationS)
	fmt.Printf("freeway-loadgen: %d requests (%d errors), %.0f req/s, %.0f samples/s\n",
		s.Requests, s.Errors, s.ThroughputRPS, s.SamplesPerS)
	fmt.Printf("freeway-loadgen: latency p50=%.2fms p95=%.2fms p99=%.2fms\n", s.P50Ms, s.P95Ms, s.P99Ms)
	if cfg.inferFrac > 0 {
		fmt.Printf("freeway-loadgen: read/write mix: %d of %d requests were label-less infers (target %.0f%%)\n",
			s.InferRequests, s.Requests, cfg.inferFrac*100)
	}
	if hops.worker.Count() > 0 {
		fmt.Printf("freeway-loadgen: worker hop p50=%.2fms p95=%.2fms p99=%.2fms\n",
			s.WorkerP50Ms, s.WorkerP95Ms, s.WorkerP99Ms)
	}
	if hops.router.Count() > 0 {
		fmt.Printf("freeway-loadgen: router hop p50=%.2fms p95=%.2fms p99=%.2fms\n",
			s.RouterP50Ms, s.RouterP95Ms, s.RouterP99Ms)
	}
	if cfg.cluster > 0 && killTime.Load() != 0 {
		fmt.Printf("freeway-loadgen: failover: %d errors after kill, recovery %.2fs, error rate %.4f\n",
			s.ErrorsAfterKill, s.RecoveryS, s.ErrorRate)
	}

	if cfg.out != "" {
		data, err := json.MarshalIndent(s, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if cfg.out == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(cfg.out, data, 0o644); err != nil {
			return err
		}
	}
	if s.Requests == 0 {
		return fmt.Errorf("no requests completed")
	}
	if s.Errors > 0 {
		return fmt.Errorf("%d of %d requests failed", s.Errors, s.Requests)
	}
	return nil
}

// postBatch builds one synthetic labeled batch through the pool, encodes it
// into the reused buffer (JSON) or scratch slice (binary wire frame), and
// POSTs it to the stream's process endpoint. The pooled batch is released
// before return — the encoding is the copy that leaves the function, so
// recycling is safe (see stream.BatchPool on why the *server* side must not
// pool these). Per-hop wall times stamped on the response are folded into
// hops for the summary breakdown. A cfg.inferFrac coin flip sends the batch
// label-less to the stream's /infer endpoint instead — the read/write mix
// that exercises the inference plane under concurrent training.
func postBatch(client *http.Client, base string, sid int, cfg config, rng *rand.Rand, pool *stream.BatchPool, buf *bytes.Buffer, bin *[]byte, hops *hopStats, inferReqs *atomic.Int64) error {
	infer := cfg.inferFrac > 0 && rng.Float64() < cfg.inferFrac
	b := pool.Get(cfg.batch, cfg.dim)
	defer b.Release()
	// Per-stream class centers: streams differ so cross-stream isolation
	// bugs (e.g. shared session state) would surface as accuracy collapse.
	shift := float64(sid) * 0.5
	for i := range b.Rows {
		c := rng.Intn(cfg.classes)
		row := b.Rows[i]
		row[0] = shift + float64(c)*2 + rng.NormFloat64()*0.3
		for j := 1; j < cfg.dim; j++ {
			row[j] = rng.NormFloat64() * 0.3
		}
		b.Y[i] = c
	}
	y := b.Y
	endpoint := "process"
	if infer {
		y = nil // inference requests are label-less by contract
		endpoint = "infer"
		inferReqs.Add(1)
	}
	var payload []byte
	contentType := "application/json"
	if cfg.proto == "binary" {
		frame, err := wire.AppendFrame((*bin)[:0], "", cfg.wireDtype, b.Rows, y)
		if err != nil {
			return err
		}
		*bin = frame
		payload = frame
		contentType = serve.BinaryContentType
	} else {
		buf.Reset()
		if err := json.NewEncoder(buf).Encode(struct {
			X [][]float64 `json:"x"`
			Y []int       `json:"y,omitempty"`
		}{b.Rows, y}); err != nil {
			return err
		}
		payload = buf.Bytes()
	}
	url := fmt.Sprintf("%s/v1/streams/ld%03d/%s", base, sid, endpoint)
	resp, err := client.Post(url, contentType, bytes.NewReader(payload))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stream ld%03d: status %d", sid, resp.StatusCode)
	}
	hops.observe(hops.worker, resp.Header.Get(obs.WorkerMicrosHeader))
	hops.observe(hops.router, resp.Header.Get(obs.RouterMicrosHeader))
	return nil
}

var listenRe = regexp.MustCompile(`listening on (\S+)`)

// proc is one child process of the harness (a worker or the router): the
// exec handle, the announced address, and the argv needed to restart it in
// place after a SIGKILL.
type proc struct {
	bin  string
	args []string
	addr string
	cmd  *exec.Cmd
}

// startProc launches bin, scans its stdout for the "listening on <addr>"
// announcement (both freeway-serve and freeway-router print it), and
// returns once the address is known.
func startProc(bin string, args ...string) (*proc, error) {
	p := &proc{bin: bin, args: args}
	if err := p.start(); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *proc) start() error {
	cmd := exec.Command(p.bin, p.args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start %s: %w", p.bin, err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if m := listenRe.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		p.addr, p.cmd = addr, cmd
		return nil
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		return fmt.Errorf("%s never announced its address", p.bin)
	}
}

// pinAddr rewrites the argv so a restart rebinds the address the process
// actually got — the router's ring keys workers by address, so a restarted
// worker must come back at the same one.
func (p *proc) pinAddr() {
	for i := range p.args {
		if p.args[i] == "-addr" && i+1 < len(p.args) {
			p.args[i+1] = p.addr
		}
	}
}

// kill delivers SIGKILL — the unclean death: no final checkpoints, no
// connection draining.
func (p *proc) kill() error {
	if p.cmd == nil || p.cmd.Process == nil {
		return fmt.Errorf("%s: not running", p.bin)
	}
	if err := p.cmd.Process.Kill(); err != nil {
		return err
	}
	p.cmd.Wait()
	p.cmd = nil
	return nil
}

// stop SIGTERMs and reaps the process, escalating to SIGKILL after 10s.
func (p *proc) stop() {
	if p.cmd == nil {
		return
	}
	cmd := p.cmd
	p.cmd = nil
	cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		<-done
	}
}

// bootServer starts freeway-serve on an ephemeral port and returns the
// announced address plus a stop function that SIGTERMs and reaps it.
func bootServer(cfg config) (string, func(), error) {
	p, err := startProc(cfg.serveBin,
		"-addr", "127.0.0.1:0",
		"-dim", fmt.Sprint(cfg.dim),
		"-classes", fmt.Sprint(cfg.classes),
		"-model", cfg.model,
		"-seed", fmt.Sprint(cfg.seed),
	)
	if err != nil {
		return "", nil, err
	}
	return p.addr, p.stop, nil
}

// clusterProcs is a booted router-plus-workers topology. The mutex guards
// kill/restart (fired from the schedule goroutine) against the deferred
// teardown.
type clusterProcs struct {
	mu      sync.Mutex
	dir     string // shared checkpoint directory (failover state)
	workers []*proc
	router  *proc
}

// bootCluster starts cfg.cluster freeway-serve workers sharing one
// checkpoint directory, then a freeway-router fronting them. The router
// gets aggressive probe/breaker settings so even a short smoke run sees
// the full eject → failover → rejoin cycle.
func bootCluster(cfg config) (*clusterProcs, error) {
	dir, err := os.MkdirTemp("", "freeway-cluster-")
	if err != nil {
		return nil, err
	}
	cl := &clusterProcs{dir: dir}
	for i := 0; i < cfg.cluster; i++ {
		p, err := startProc(cfg.serveBin,
			"-addr", "127.0.0.1:0",
			"-dim", fmt.Sprint(cfg.dim),
			"-classes", fmt.Sprint(cfg.classes),
			"-model", cfg.model,
			"-seed", fmt.Sprint(cfg.seed+int64(i)),
			"-checkpoint-dir", dir,
			"-checkpoint-every", fmt.Sprint(cfg.ckptEvery),
		)
		if err != nil {
			cl.stop()
			return nil, err
		}
		p.pinAddr()
		cl.workers = append(cl.workers, p)
	}
	addrs := make([]string, len(cl.workers))
	for i, p := range cl.workers {
		addrs[i] = p.addr
	}
	r, err := startProc(cfg.routerBin,
		"-addr", "127.0.0.1:0",
		"-workers", strings.Join(addrs, ","),
		"-probe-interval", "200ms",
		"-probe-timeout", "1s",
		"-fail-threshold", "2",
		"-cooldown", "1s",
		"-retries", "8",
		"-retry-base", "50ms",
		"-retry-max", "1s",
	)
	if err != nil {
		cl.stop()
		return nil, err
	}
	cl.router = r
	return cl, nil
}

func (cl *clusterProcs) killWorker(i int) error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.workers[i].kill()
}

func (cl *clusterProcs) restartWorker(i int) error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.workers[i].start()
}

func (cl *clusterProcs) stop() {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.router != nil {
		cl.router.stop()
	}
	for _, p := range cl.workers {
		p.stop()
	}
	os.RemoveAll(cl.dir)
}

func waitHealthy(base string, deadline time.Time) error {
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("server at %s never became healthy", base)
}
