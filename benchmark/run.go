package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"freewayml/internal/core"
	"freewayml/internal/metrics"
	"freewayml/internal/obs"
	"freewayml/internal/stream"
)

const (
	readyTimeout = 15 * time.Second
	// setupRepeats is how often a run sets up from scratch; setup_s is the
	// median, the last set-up is the one the timed phase then uses.
	setupRepeats = 3
	// numSlices is how many equal slices the timed phase is cut into. Every
	// time-based metric is computed per slice and reported as the favourable
	// quartile of the slices, so a disturbance that hits fewer than three
	// quarters of the run does not move the result.
	numSlices = 10
)

// The host this benchmark runs on shares its CPUs: a vCPU delivers either its
// full speed or about half of it, switching every few milliseconds, and the
// share of time spent slow drifts between about 15 % and 60 % over minutes
// without showing up as steal time. Identical code therefore measures up to
// 1.4× different from one minute to the next. To take that out, every client
// times a small fixed calibration loop every probeEvery of its run, on the
// same thread that does the work; the mean probe time of a slice over
// probeNominalUs is the slice's host slowdown, and the slice's time-based
// metrics are expressed in uncontended-host time by dividing that factor out.
const (
	probeEvery     = 10 * time.Millisecond
	probeLoops     = 300_000
	probeNominalUs = 211.0 // the loop's time on an uncontended vCPU of the defining host
	// A probe slower than this was not slowed by the host (whose slow mode
	// is 1.9×) but descheduled in favour of another thread of this machine —
	// the servers under test, the garbage collector. It is left out, so the
	// factor does not depend on how busy the system under test keeps the CPUs.
	probeMaxUs = 3 * probeNominalUs
)

// probeSink keeps the calibration loop's result alive.
var probeSink atomic.Uint64

// probeSample is one timing of the calibration loop.
type probeSample struct {
	at time.Duration // completion time since the phase began
	us float64
}

// prober is one client's calibration schedule.
type prober struct {
	last    time.Time
	samples []probeSample
}

// tick times the calibration loop when the last probe is probeEvery old, and
// reports whether it did.
func (p *prober) tick(t0 time.Time) bool {
	start := time.Now()
	if start.Sub(p.last) < probeEvery {
		return false
	}
	x := 0.0
	for i := 0; i < probeLoops; i++ {
		x += float64(i&1023) * 1.0000001
	}
	end := time.Now()
	probeSink.Add(uint64(x))
	p.last = end
	p.samples = append(p.samples, probeSample{at: end.Sub(t0), us: float64(end.Sub(start)) / float64(time.Microsecond)})
	return true
}

// slowdown is the host slowdown factor over the probes completed in
// [from, to): mean probe time over the nominal one (1 when there is none).
func slowdown(probes []probeSample, from, to time.Duration) float64 {
	var sum float64
	n := 0
	for _, p := range probes {
		if p.at >= from && p.at < to && p.us <= probeMaxUs {
			sum += p.us
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n) / probeNominalUs
}

// sample is one completed request of a timed phase.
type sample struct {
	end   time.Duration // completion time since the phase began
	ms    float64       // client-observed latency
	rows  int
	infer bool
}

// reqRecord is what a traced phase keeps of one request.
type reqRecord struct {
	traceID  string
	client   int
	stream   int
	infer    bool
	start    time.Duration // since the phase began
	rtt      time.Duration // client-observed round trip
	self     time.Duration // harness time since the previous response
	workerUs float64       // X-Freeway-Worker-Micros (the call itself in-process)
	routerUs float64       // X-Freeway-Router-Micros (0 when not routed)
	attempts float64       // X-Freeway-Attempts (1 when not routed)
	respLen  int           // response bytes, < 0 for a failed operation
}

// reading is the resource usage at one instant of a phase.
type reading struct {
	at                 time.Duration
	sutUse, harnessUse usage
}

// phaseResult is the measurement of one phase.
type phaseResult struct {
	wall              time.Duration
	attempted, failed int
	samples           []sample
	probes            []probeSample
	readings          []reading // phase start, every slice boundary, phase end
	records           []reqRecord
}

// slowdown is the host slowdown factor over the whole phase.
func (p *phaseResult) slowdown() float64 { return slowdown(p.probes, 0, p.wall+1) }

func (p *phaseResult) rows() int {
	n := 0
	for _, s := range p.samples {
		n += s.rows
	}
	return n
}

// latencies returns the phase's latencies of one request class, ascending.
func (p *phaseResult) latencies(infer bool) []float64 {
	var ms []float64
	for _, s := range p.samples {
		if s.infer == infer {
			ms = append(ms, s.ms)
		}
	}
	return sortedCopy(ms)
}

// usageDelta is what the system under test and the harness consumed over
// the whole phase.
func (p *phaseResult) usageDelta() (sutUse, harnessUse usage) {
	first, last := p.readings[0], p.readings[len(p.readings)-1]
	return usageBetween(first.sutUse, last.sutUse), usageBetween(first.harnessUse, last.harnessUse)
}

func usageBetween(before, after usage) usage {
	return usage{
		cpuSec:      after.cpuSec - before.cpuSec,
		ctxSwitches: after.ctxSwitches - before.ctxSwitches,
		peakRSSMB:   after.peakRSSMB,
	}
}

// clientState is one closed-loop client: its position in its cyclic
// schedule and, for served workloads, its single keep-alive connection.
type clientState struct {
	ops  []op
	next int
	hc   *http.Client
	body bytes.Buffer
	pred []int
}

// runner holds one set-up instance of a workload.
type runner struct {
	w       *workload
	inputs  []streamInput
	env     *sut // nil for the in-process workload
	clients [numClients]*clientState
	// preq scores each stream's first scoreLimit labelled batches of the timed
	// phase from the predictions that came back; only the stream's single
	// training client writes its entry.
	preq []metrics.Prequential
	// preds0 keeps stream 0's returned process predictions, in order, when
	// keepPreds is set (traced runs replay them in-process).
	keepPreds bool
	preds0    [][]int
	firstErr  atomic.Pointer[string]
}

func (r *runner) noteErr(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.firstErr.CompareAndSwap(nil, &msg)
}

func (r *runner) err() error {
	if msg := r.firstErr.Load(); msg != nil {
		return fmt.Errorf("%s", *msg)
	}
	return nil
}

// setup generates the inputs, boots the system under test and runs the
// fixed warm-up requests. It also returns the host slowdown factor seen
// during the warm-up, which setup_s is corrected by.
func setup(w *workload, opts options, keepPreds bool) (r *runner, slow float64, err error) {
	inputs, err := generateInputs(w, opts.seed)
	if err != nil {
		return nil, 0, err
	}
	r = &runner{w: w, inputs: inputs, preq: make([]metrics.Prequential, len(inputs)), keepPreds: keepPreds}
	warm := w.warmOps
	if opts.smoke {
		warm = [numClients]int{warm[0] / 10, warm[1] / 10}
	}
	if w.topo == topoInProcess {
		ph := r.learnPhase(0, warm[0], 0, false, false)
		return r, ph.slowdown(), r.err()
	}
	if r.env, err = bootSUT(w, inputs, opts.binDir, filepath.Join(opts.outDir, "tmp"), opts.serveArgs); err != nil {
		return nil, 0, err
	}
	for c := range r.clients {
		r.clients[c] = &clientState{
			ops: buildSchedule(w, c, func(s int) int { return len(inputs[s].batches) }),
			hc: &http.Client{Transport: &http.Transport{
				MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
			}},
		}
	}
	ph := r.servedPhase(0, &warm, 0, false, false)
	if err := r.err(); err != nil {
		r.close()
		return nil, 0, err
	}
	return r, ph.slowdown(), nil
}

// close tears the system under test down and reports an early child exit.
func (r *runner) close() error {
	for _, c := range r.clients {
		if c != nil {
			c.hc.CloseIdleConnections()
		}
	}
	if r.env == nil {
		return nil
	}
	return r.env.stop()
}

// readUsage reads the system under test's and the harness's resources.
func (r *runner) readUsage(at time.Duration) reading {
	harnessUse, err := selfUsage()
	if err != nil {
		r.noteErr("harness usage: %v", err)
	}
	rd := reading{at: at, sutUse: harnessUse, harnessUse: harnessUse}
	if r.env != nil {
		if rd.sutUse, err = r.env.usage(); err != nil {
			r.noteErr("server usage: %v", err)
		}
	}
	return rd
}

// phase runs fn once per client, concurrently, and measures around them.
// With slices > 0 it also reads the resource usage at every slice boundary
// of the duration d.
func (r *runner) phase(d time.Duration, slices int, fn func(c int, res *phaseResult, t0 time.Time)) phaseResult {
	var parts [numClients]phaseResult
	t0 := time.Now()
	total := phaseResult{readings: []reading{r.readUsage(0)}}
	var clients, sampler sync.WaitGroup
	stop := make(chan struct{})
	if slices > 0 {
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			for i := 1; i < slices; i++ {
				select {
				case <-time.After(time.Until(t0.Add(d * time.Duration(i) / time.Duration(slices)))):
					total.readings = append(total.readings, r.readUsage(time.Since(t0)))
				case <-stop:
					return
				}
			}
		}()
	}
	for c := 0; c < numClients; c++ {
		clients.Add(1)
		go func(c int) {
			defer clients.Done()
			fn(c, &parts[c], t0)
		}(c)
	}
	clients.Wait()
	close(stop)
	sampler.Wait()
	total.wall = time.Since(t0)
	total.readings = append(total.readings, r.readUsage(total.wall))
	for _, p := range parts {
		total.attempted += p.attempted
		total.failed += p.failed
		total.samples = append(total.samples, p.samples...)
		total.probes = append(total.probes, p.probes...)
		total.records = append(total.records, p.records...)
	}
	return total
}

// servedPhase drives both clients down their schedules: through counts[c]
// requests each when counts is set (the warm-up), else until d has passed.
func (r *runner) servedPhase(d time.Duration, counts *[numClients]int, slices int, traced, score bool) phaseResult {
	return r.phase(d, slices, func(c int, res *phaseResult, t0 time.Time) {
		cs := r.clients[c]
		prevEnd := t0
		var pr prober
		defer func() { res.probes = pr.samples }()
		for k := 0; ; k++ {
			if counts != nil && k >= counts[c] || counts == nil && time.Since(t0) >= d {
				return
			}
			if pr.tick(t0) {
				prevEnd = pr.last // calibration is not the client's own time
			}
			o := cs.ops[cs.next%len(cs.ops)]
			cs.next++
			rec := r.request(cs, o, traced, score)
			end := time.Now()
			res.attempted++
			if rec.respLen < 0 {
				res.failed++
				continue
			}
			res.samples = append(res.samples, sample{
				end: end.Sub(t0), ms: float64(rec.rtt) / float64(time.Millisecond), rows: r.w.batch, infer: o.infer,
			})
			if traced {
				rec.client = c
				rec.start = end.Add(-rec.rtt).Sub(t0)
				rec.self = end.Sub(prevEnd) - rec.rtt
				prevEnd = end
				res.records = append(res.records, rec)
			}
		}
	})
}

// request sends one scheduled request and checks the answer. A failed
// operation — transport error, non-200 status, missing or short prediction
// vector — is reported as respLen < 0.
func (r *runner) request(cs *clientState, o op, traced, score bool) reqRecord {
	in := &r.inputs[o.stream]
	rec := reqRecord{stream: o.stream, infer: o.infer, respLen: -1, attempts: 1}
	body, endpoint := in.train[o.batch], "/process"
	if o.infer {
		body, endpoint = in.infer[o.batch], "/infer"
	}
	req, err := http.NewRequest(http.MethodPost, r.env.base+"/v1/streams/"+r.env.ids[o.stream]+endpoint, bytes.NewReader(body))
	if err != nil {
		r.noteErr("build request: %v", err)
		return rec
	}
	req.Header.Set("Content-Type", contentType(r.w.json))
	if traced {
		tc := obs.NewTraceContext()
		rec.traceID = tc.TraceID
		req.Header.Set(obs.TraceparentHeader, tc.Traceparent())
	}
	start := time.Now()
	resp, err := cs.hc.Do(req)
	if err != nil {
		r.noteErr("%s %s: %v", r.w.name, endpoint, err)
		return rec
	}
	cs.body.Reset()
	_, err = cs.body.ReadFrom(resp.Body)
	resp.Body.Close()
	rec.rtt = time.Since(start)
	if err != nil || resp.StatusCode != http.StatusOK {
		r.noteErr("%s %s: status %d, read error %v: %.200s", r.w.name, endpoint, resp.StatusCode, err, cs.body.Bytes())
		return rec
	}
	var ok bool
	if cs.pred, ok = parsePredictions(cs.body.Bytes(), cs.pred); !ok || len(cs.pred) != len(in.batches[o.batch].X) {
		r.noteErr("%s %s: want %d predictions: %.200s", r.w.name, endpoint, len(in.batches[o.batch].X), cs.body.Bytes())
		return rec
	}
	rec.respLen = cs.body.Len()
	if traced {
		rec.workerUs, _ = strconv.ParseFloat(resp.Header.Get(obs.WorkerMicrosHeader), 64)
		rec.routerUs, _ = strconv.ParseFloat(resp.Header.Get(obs.RouterMicrosHeader), 64)
		if a, err := strconv.ParseFloat(resp.Header.Get(obs.AttemptsHeader), 64); err == nil {
			rec.attempts = a
		}
	}
	if !o.infer {
		r.scoreBatch(o.stream, cs.pred, in.batches[o.batch], score, r.keepPreds && o.stream == 0)
	}
	return rec
}

// scoreBatch folds one labelled batch's returned predictions into the
// stream's prequential record (the inputs of Eq. 15/16). Only the first
// scoreLimit batches of a stream count, so that g_acc and si cover the same
// batches however many more a run gets through.
func (r *runner) scoreBatch(s int, pred []int, b stream.Batch, score, keep bool) {
	if keep {
		r.preds0 = append(r.preds0, append([]int(nil), pred...))
	}
	if !score || r.preq[s].Batches() >= r.scoreLimit(s) {
		return
	}
	acc, err := metrics.Accuracy(pred, b.Y)
	if err != nil {
		r.noteErr("score: %v", err)
		return
	}
	r.preq[s].Record(acc, b.Truth, len(b.X))
}

// scoreLimit is how many of stream s's labelled batches are scored: w.scored,
// or one full schedule when that is 0.
func (r *runner) scoreLimit(s int) int {
	if r.w.scored == 0 {
		return len(r.inputs[s].batches)
	}
	return r.w.scored
}

// parsePredictions extracts the "predictions" array of a process or infer
// response into dst without allocating. Class indices are non-negative.
func parsePredictions(body []byte, dst []int) ([]int, bool) {
	key := []byte(`"predictions":[`)
	i := bytes.Index(body, key)
	if i < 0 {
		return dst[:0], false
	}
	dst = dst[:0]
	n, digits := 0, false
	for i += len(key); i < len(body); i++ {
		switch c := body[i]; {
		case c >= '0' && c <= '9':
			n, digits = n*10+int(c-'0'), true
		case (c == ',' || c == ']') && digits:
			dst = append(dst, n)
			n, digits = 0, false
			if c == ']' {
				return dst, true
			}
		default:
			return dst, false
		}
	}
	return dst, false
}

// learnPhase is the in-process workload: each client makes passes over its
// streams, every pass on fresh learners, calling Infer(x) then Process(x, y)
// per batch, until d has passed. limit > 0 instead makes it a single pass
// over each stream's first `limit` batches (the warm-up). A traced pass
// attaches a core.Observer to every learner, which is the library's own
// tracing switch.
func (r *runner) learnPhase(d time.Duration, limit, slices int, traced, score bool) phaseResult {
	ctx := context.Background()
	return r.phase(d, slices, func(c int, res *phaseResult, t0 time.Time) {
		own := r.w.owners[c]
		prevEnd := t0
		var pr prober
		defer func() { res.probes = pr.samples }()
		for pass := 0; limit == 0 || pass == 0; pass++ {
			learners := make([]*core.Learner, len(own))
			longest := 0
			for i, s := range own {
				l, err := core.NewLearner(learnerConfig(), r.inputs[s].dim, r.inputs[s].classes)
				if err != nil {
					r.noteErr("new learner: %v", err)
					return
				}
				if traced {
					l.SetObserver(core.NewObserver(obs.NewRegistry(), 0))
				}
				learners[i] = l
				n := len(r.inputs[s].batches)
				if limit > 0 {
					n = min(n, limit)
				}
				longest = max(longest, n)
			}
			expired := false
			for k := 0; k < longest && !expired; k++ {
				for i, s := range own {
					if limit == 0 && time.Since(t0) >= d {
						expired = true
						break
					}
					batches := r.inputs[s].batches
					if k >= len(batches) {
						continue
					}
					b := batches[k]
					if pr.tick(t0) {
						prevEnd = pr.last // calibration is not the client's own time
					}
					for _, infer := range r.w.cycle[c] {
						start := time.Now()
						pred, err := learnCall(ctx, learners[i], infer, b)
						end := time.Now()
						rtt := end.Sub(start)
						res.attempted++
						if err != nil || len(pred) != len(b.X) {
							r.noteErr("learn_drift stream %d batch %d: %d predictions, error %v", s, k, len(pred), err)
							res.failed++
							continue
						}
						res.samples = append(res.samples, sample{
							end: end.Sub(t0), ms: float64(rtt) / float64(time.Millisecond), rows: len(b.X), infer: infer,
						})
						if !infer {
							// Every pass is the same data on a fresh learner,
							// so the first full pass stands for all of them.
							r.scoreBatch(s, pred, b, score, r.keepPreds && s == 0 && pass == 0 && limit == 0)
						}
						if traced {
							res.records = append(res.records, reqRecord{
								client: c, stream: s, infer: infer, rtt: rtt, attempts: 1,
								start: start.Sub(t0), self: end.Sub(prevEnd) - rtt,
								workerUs: float64(rtt) / float64(time.Microsecond),
							})
							prevEnd = end
						}
					}
				}
			}
			for _, l := range learners {
				if err := l.Close(); err != nil {
					r.noteErr("close learner: %v", err)
				}
			}
			if expired {
				return
			}
		}
	})
}

// learnCall is one in-process request: a label-less infer or the labelled
// process call, returning the predictions.
func learnCall(ctx context.Context, l *core.Learner, infer bool, b stream.Batch) ([]int, error) {
	if infer {
		out, err := l.Infer(ctx, b.X)
		return out.Pred, err
	}
	out, err := l.Process(ctx, b)
	return out.Pred, err
}

// sliceQuartiles computes every time-based end-to-end metric per slice of the
// phase — between consecutive usage readings — in uncontended-host time (see
// probeEvery), and returns each metric's favourable quartile over the slices:
// the upper one for throughput, the lower one for latency and CPU time. What
// disturbs a slice on this host (a neighbour's burst, a stalled wake-up) only
// ever slows it down, so the better quarter of the run is the steadier
// estimate of the code's own speed. Latency percentiles are exact order
// statistics of a slice's raw samples. The per-slice values, and the slices'
// host slowdown factors as "host_slowdown", are returned too, for the log.
func sliceQuartiles(p phaseResult) (best map[string]float64, per map[string][]float64) {
	per = map[string][]float64{}
	for i := 1; i < len(p.readings); i++ {
		from, to := p.readings[i-1], p.readings[i]
		var train, infer []float64
		rows := 0
		for _, s := range p.samples {
			if s.end < from.at || s.end >= to.at {
				continue
			}
			rows += s.rows
			if s.infer {
				infer = append(infer, s.ms)
			} else {
				train = append(train, s.ms)
			}
		}
		if rows == 0 {
			continue
		}
		slow := slowdown(p.probes, from.at, to.at)
		per["host_slowdown"] = append(per["host_slowdown"], slow)
		per["samples_per_s"] = append(per["samples_per_s"], slow*float64(rows)/(to.at-from.at).Seconds())
		per["cpu_us_per_sample"] = append(per["cpu_us_per_sample"], (to.sutUse.cpuSec-from.sutUse.cpuSec)*1e6/float64(rows)/slow)
		for class, ms := range map[string][]float64{"train": train, "infer": infer} {
			if len(ms) == 0 {
				continue
			}
			sorted := sortedCopy(ms)
			per[class+"_p50_ms"] = append(per[class+"_p50_ms"], percentile(sorted, 0.50)/slow)
			per[class+"_p95_ms"] = append(per[class+"_p95_ms"], percentile(sorted, 0.95)/slow)
		}
	}
	best = map[string]float64{}
	for name, vs := range per {
		q1, q3 := quartiles(vs)
		if name == "samples_per_s" {
			best[name] = q3
		} else {
			best[name] = q1
		}
	}
	return best, per
}
