package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"freewayml/internal/core"
	"freewayml/internal/obs"
	"freewayml/internal/serve"
	"freewayml/internal/session"
	"freewayml/internal/stream"
)

// replayCap bounds how many labelled batches of stream 0 the in-process
// replays time (the untimed prefix that rebuilds the learner's state is on
// top), which keeps a traced run inside the same time budget as a plain one.
const replayCap = 300

// perLayer lists every per-layer metric, in the order the layers sit on a
// request's path. A traced run reports each of them on every workload; a
// layer the workload does not traverse reads 0 there (dist.* off the routed
// workload) or is measured on the workload's inputs without being on its
// path (serve.* and session.* for learn_drift).
var perLayer = []metricDef{
	{"client.rtt_p50_us", "us"},
	{"client.train_p99_ms", "ms"},
	{"client.infer_p95_ms", "ms"},
	{"client.infer_p99_ms", "ms"},
	{"client.self_us", "us"},
	{"client.transport_us", "us"},
	{"client.cpu_frac", "fraction"},
	{"dist.router_self_us", "us"},
	{"dist.attempts_per_req", "count"},
	{"serve.worker_us", "us"},
	{"serve.handler_binary_us", "us"},
	{"serve.handler_json_us", "us"},
	{"serve.self_us", "us"},
	{"serve.resp_bytes_per_req", "bytes"},
	{"wire.decode_ns_per_row", "ns/row"},
	{"wire.encode_ns_per_row", "ns/row"},
	{"wire.bytes_per_row", "bytes"},
	{"session.process_us", "us"},
	{"session.infer_us", "us"},
	{"session.self_us", "us"},
	{"session.infer_scaling_2c", "ratio"},
	{"session.process_scaling_2c", "ratio"},
	{"session.evict_us", "us"},
	{"session.restore_us", "us"},
	{"core.process_us", "us"},
	{"core.infer_us", "us"},
	{"core.checkpoint_save_us", "us"},
	{"core.checkpoint_load_us", "us"},
	{"core.checkpoint_bytes", "bytes"},
	{"core.heavy_batch_frac", "fraction"},
	{"core.pattern_A", "count"},
	{"core.pattern_B", "count"},
	{"core.pattern_C", "count"},
	{"core.stage.guard_us", "us"},
	{"core.stage.shift_detect_us", "us"},
	{"core.stage.predict_us", "us"},
	{"core.stage.cluster_us", "us"},
	{"core.stage.knowledge_lookup_us", "us"},
	{"core.stage.short_update_us", "us"},
	{"core.stage.window_push_us", "us"},
	{"core.stage.long_update_us", "us"},
	{"shift.observe_us", "us"},
	{"pca.project_us", "us"},
	{"window.push_us", "us"},
	{"cluster.cec_us", "us"},
	{"knowledge.match_us", "us"},
	{"knowledge.preserve_us", "us"},
	{"knowledge.hit_frac", "fraction"},
	{"strategy.snapshot_infer_us", "us"},
	{"strategy.publish_us", "us"},
	{"nn.mlp_forward_us", "us"},
	{"nn.mlp_train_us", "us"},
	{"nn.cnn3_forward_us", "us"},
	{"nn.cnn3_train_us", "us"},
	{"linalg.gemm_gflops", "GFLOP/s"},
	{"linalg.gemm_bytes_per_call", "bytes"},
	{"obs.observer_overhead_frac", "fraction"},
	{"go.allocs_per_row", "count"},
	{"go.alloc_bytes_per_row", "bytes"},
	{"go.num_gc", "count"},
	{"go.gc_pause_total_ms", "ms"},
	{"proc.ctx_switches_per_req", "count"},
	{"trace.overhead_frac", "fraction"},
	{"trace.attributed_frac", "fraction"},
}

// capture is what the traced run keeps of stream 0 for the in-process
// replays: the stream's schedule, how many labelled batches it had consumed
// before the traced phase began, how many the replays time after that, and
// the predictions the live system returned.
type capture struct {
	w         *workload
	in        streamInput
	prefix    int
	timed     int
	livePreds [][]int
}

// learnerConfig is the configuration freeway-serve builds its learners from
// when started with "-model mlp" and otherwise default flags, which is also
// the library default learn_drift uses.
func learnerConfig() core.Config { return core.DefaultConfig() }

// runTraced is the -trace 1 run: one set-up, an untraced phase and a traced
// one of a quarter of --seconds each (their throughput ratio is the tracing
// overhead), then in-process replays of stream 0 against each layer's public
// entry point and micro-probes on the same inputs.
func runTraced(w *workload, opts options) (result, error) {
	quarter := time.Duration(opts.seconds / 4 * float64(time.Second))
	r, _, err := setup(w, opts, true)
	if err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	var untraced, traced phaseResult
	trainedBefore := 0 // stream 0's labelled batches before the traced phase
	if w.topo == topoInProcess {
		untraced = r.learnPhase(quarter, 0, 0, false, false)
		r.keepPreds = false // every pass is the same data on fresh learners
		traced = r.learnPhase(quarter, 0, 0, true, false)
	} else {
		untraced = r.servedPhase(quarter, nil, 0, false, false)
		trainedBefore = len(r.preds0)
		traced = r.servedPhase(quarter, nil, 0, true, false)
	}
	closeErr := r.close()

	cp := &capture{w: w, in: r.inputs[0], prefix: trainedBefore, livePreds: r.preds0}
	cp.timed = min(len(r.preds0)-trainedBefore, replayCap)
	res := result{
		Attempted: untraced.attempted + traced.attempted,
		Failed:    untraced.failed + traced.failed,
		Metrics:   map[string]metricValue{},
	}
	problems := r.problems(res.Attempted, res.Failed, closeErr)

	values := map[string]float64{}
	liveMetrics(w, untraced, traced, values)
	rp, err := cp.replayLayers(values)
	if err != nil {
		return res, fmt.Errorf("replay: %w", err)
	}
	if rp.mismatch != "" {
		problems = append(problems, rp.mismatch)
	}
	if err := cp.probeLayers(values, rp, opts, filepath.Join(opts.outDir, "tmp")); err != nil {
		return res, fmt.Errorf("probe: %w", err)
	}

	fmt.Printf("%s seed=%d traced: %d requests, %d failed; replayed stream 0: %d labelled batches of state, %d timed\n",
		w.name, opts.seed, res.Attempted, res.Failed, cp.prefix, cp.timed)
	attributed := 0.0
	for _, class := range []string{"train", "infer"} {
		rows := layerTable(w, stream0Live(traced.records, cp.timed), rp, class)
		printLayerTable(w.name, class, rows)
		if err := checkLayerTable(rows); err != nil {
			problems = append(problems, fmt.Sprintf("%s layer table: %v", class, err))
		}
		if class == "train" {
			attributed = attributedFrac(rows)
		}
	}
	values["trace.attributed_frac"] = attributed
	for _, m := range perLayer {
		res.Metrics[m.name] = metricValue{Value: values[m.name], Unit: m.unit}
		fmt.Printf("  %-30s %14.6g %s\n", m.name, values[m.name], m.unit)
	}
	if err := writeSpans(filepath.Join(opts.outDir, "trace_"+w.name+".json"), traced.records); err != nil {
		return res, err
	}
	res.judge(w.name, problems)
	return res, nil
}

// liveClass is the mean live timing of one request class on stream 0.
type liveClass struct {
	n                       int
	rttUs, routerUs, workUs float64
}

// liveMetrics fills in the metrics that come straight from the client's
// spans and the servers' response headers.
func liveMetrics(w *workload, untraced, traced phaseResult, values map[string]float64) {
	var rtt, self, transport, worker, routerSelf, attempts, respLen []float64
	for _, rec := range traced.records {
		us := float64(rec.rtt) / float64(time.Microsecond)
		rtt = append(rtt, us)
		self = append(self, float64(rec.self)/float64(time.Microsecond))
		worker = append(worker, rec.workerUs)
		transport = append(transport, us-max(rec.routerUs, rec.workerUs))
		if rec.routerUs > 0 {
			routerSelf = append(routerSelf, rec.routerUs-rec.workerUs)
		}
		attempts = append(attempts, rec.attempts)
		respLen = append(respLen, float64(rec.respLen))
	}
	values["client.rtt_p50_us"] = median(rtt)
	inferMs := traced.latencies(true)
	values["client.train_p99_ms"] = percentile(traced.latencies(false), 0.99)
	values["client.infer_p95_ms"] = percentile(inferMs, 0.95)
	values["client.infer_p99_ms"] = percentile(inferMs, 0.99)
	values["client.self_us"] = median(self)
	values["client.transport_us"] = median(transport)
	sutUse, harnessUse := traced.usageDelta()
	values["client.cpu_frac"] = harnessShare(w, sutUse, harnessUse)
	values["dist.router_self_us"] = median(routerSelf)
	values["dist.attempts_per_req"] = mean(attempts)
	values["serve.worker_us"] = median(worker)
	values["serve.resp_bytes_per_req"] = mean(respLen)
	if w.topo == topoInProcess {
		// No server stamped these; the in-process call is its own worker.
		values["dist.attempts_per_req"], values["serve.worker_us"], values["serve.resp_bytes_per_req"] = 0, 0, 0
	}
	values["proc.ctx_switches_per_req"] = sutUse.ctxSwitches / float64(max(traced.attempted, 1))
	// The two phases run one after the other, so their throughputs are
	// compared in uncontended-host time.
	rate := func(p phaseResult) float64 { return p.slowdown() * float64(p.rows()) / p.wall.Seconds() }
	values["trace.overhead_frac"] = 1 - rate(traced)/rate(untraced)
}

// stream0Live averages the traced phase's live timings of stream 0 per request
// class, over the span of its first `timed` labelled batches — the same
// batches the replays time.
func stream0Live(records []reqRecord, timed int) map[string]liveClass {
	recs := append([]reqRecord(nil), records...)
	sort.Slice(recs, func(i, j int) bool { return recs[i].start < recs[j].start })
	out := map[string]liveClass{}
	trained := 0
	for _, rec := range recs {
		if rec.stream != 0 {
			continue
		}
		if trained >= timed {
			break
		}
		class := "train"
		if rec.infer {
			class = "infer"
		} else {
			trained++
		}
		lc := out[class]
		lc.n++
		lc.rttUs += float64(rec.rtt) / float64(time.Microsecond)
		lc.routerUs += rec.routerUs
		lc.workUs += rec.workerUs
		out[class] = lc
	}
	for class, lc := range out {
		n := float64(lc.n)
		lc.rttUs, lc.routerUs, lc.workUs = lc.rttUs/n, lc.routerUs/n, lc.workUs/n
		out[class] = lc
	}
	return out
}

// classTimes holds the per-call times, in µs, of one replay's timed range.
type classTimes struct {
	train, infer []float64
}

// layerReplay is one layer's public entry point under replay.
type layerReplay struct {
	infer, process func(k int, b stream.Batch) error
	times          classTimes
}

// replays is everything the in-process replays of stream 0 measured.
type replays struct {
	handler, session, core classTimes
	// stageMeanUs is each Process stage's mean self time per timed batch.
	stageMeanUs map[string]float64
	learner     *core.Learner // the replayed learner, in its final state
	mismatch    string        // non-empty when replayed predictions differ from the live ones
}

// replay feeds stream 0's request sequence to every layer in lockstep: per
// labelled batch and layer, an infer of the batch and then the process call
// that consumes it, as the live clients interleave them. Each layer owns its
// learner, so all of them walk through identical states; stepping them
// together (in rotating order) exposes them to the same garbage-collector
// and machine conditions, which is what makes the differences between layers
// meaningful. Calls past the prefix are timed.
func (cp *capture) replay(layers []*layerReplay) error {
	for k := 0; k < cp.prefix+cp.timed; k++ {
		b := cp.in.batches[k%len(cp.in.batches)]
		for i := range layers {
			lr := layers[(i+k)%len(layers)]
			start := time.Now()
			if err := lr.infer(k, b); err != nil {
				return err
			}
			mid := time.Now()
			if err := lr.process(k, b); err != nil {
				return err
			}
			end := time.Now()
			if k >= cp.prefix {
				lr.times.infer = append(lr.times.infer, float64(mid.Sub(start))/float64(time.Microsecond))
				lr.times.train = append(lr.times.train, float64(end.Sub(mid))/float64(time.Microsecond))
			}
		}
	}
	return nil
}

// handlerReplay drives serve.Server.ServeHTTP through httptest — the whole
// handler (decode, session, encode) without TCP. respBytes accumulates the
// response sizes.
func (cp *capture) handlerReplay(srv *serve.Server, asJSON bool, respBytes *float64) (*layerReplay, error) {
	n := len(cp.in.batches)
	train, infer := make([][]byte, n), make([][]byte, n)
	for j, b := range cp.in.batches {
		var err error
		if train[j], err = encodeBody(asJSON, b.X, b.Y); err != nil {
			return nil, err
		}
		if infer[j], err = encodeBody(asJSON, b.X, nil); err != nil {
			return nil, err
		}
	}
	call := func(endpoint string, body []byte) error {
		req := httptest.NewRequest(http.MethodPost, "/v1/streams/s0/"+endpoint, bytes.NewReader(body))
		req.Header.Set("Content-Type", contentType(asJSON))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("handler %s: status %d: %.200s", endpoint, rec.Code, rec.Body.Bytes())
		}
		*respBytes += float64(rec.Body.Len())
		return nil
	}
	return &layerReplay{
		infer:   func(k int, _ stream.Batch) error { return call("infer", infer[k%n]) },
		process: func(k int, _ stream.Batch) error { return call("process", train[k%n]) },
	}, nil
}

// allocProbePairs is how many further request pairs the handler replay runs
// between two runtime.MemStats readings for the go.* metrics.
const allocProbePairs = 100

// replayLayers replays stream 0 against the serve handler (both encodings),
// the session manager and the core learner (with and without an Observer),
// checks the learner's predictions against the live ones, and derives the
// serve/session/core metrics.
func (cp *capture) replayLayers(values map[string]float64) (*replays, error) {
	ctx := context.Background()
	rp := &replays{stageMeanUs: map[string]float64{}}
	cfg, dim, classes := learnerConfig(), cp.in.dim, cp.in.classes

	coreLayer := func(l *core.Learner, check bool) *layerReplay {
		return &layerReplay{
			infer: func(_ int, b stream.Batch) error {
				_, err := l.Infer(ctx, b.X)
				return err
			},
			process: func(k int, b stream.Batch) error {
				out, err := l.Process(ctx, b)
				if check && err == nil && rp.mismatch == "" && k < len(cp.livePreds) && !equalInts(out.Pred, cp.livePreds[k]) {
					rp.mismatch = fmt.Sprintf("in-process learner and live system disagree on stream 0, labelled batch %d", k)
				}
				return err
			},
		}
	}
	// The learner with an Observer supplies the stage timings; the bare one
	// shows what observing costs.
	withObs, err := core.NewLearner(cfg, dim, classes)
	if err != nil {
		return nil, err
	}
	withObs.SetObserver(core.NewObserver(obs.NewRegistry(), cp.prefix+cp.timed+1))
	rp.learner = withObs
	bare, err := core.NewLearner(cfg, dim, classes)
	if err != nil {
		return nil, err
	}
	defer bare.Close()
	mgr, err := session.NewManager(session.Config{Learner: cfg, Dim: dim, Classes: classes})
	if err != nil {
		return nil, err
	}
	defer mgr.Close()
	var handlers [2]*layerReplay // binary, JSON
	var respBytes [2]float64
	for i, asJSON := range []bool{false, true} {
		srv, err := serve.New(cfg, dim, classes)
		if err != nil {
			return nil, err
		}
		defer srv.Close()
		if handlers[i], err = cp.handlerReplay(srv, asJSON, &respBytes[i]); err != nil {
			return nil, err
		}
	}
	observed, unobserved := coreLayer(withObs, true), coreLayer(bare, false)
	sess := &layerReplay{
		infer: func(_ int, b stream.Batch) error {
			_, err := mgr.Infer(ctx, "s0", b.X)
			return err
		},
		process: func(_ int, b stream.Batch) error {
			_, err := mgr.ProcessBatch(ctx, "s0", stream.Batch{X: b.X, Y: b.Y})
			return err
		},
	}
	if err := cp.replay([]*layerReplay{handlers[0], handlers[1], sess, observed, unobserved}); err != nil {
		return nil, err
	}
	own := handlers[0]
	if cp.w.json {
		own = handlers[1]
	}
	rp.handler, rp.session, rp.core = own.times, sess.times, observed.times

	// Pattern counts and the knowledge hit rate cover the stream's first full
	// schedule, which every run replays, so they repeat exactly; the stage
	// timings cover the timed range.
	all := withObs.Observer().Trace().Last(0)
	patterns := map[byte]float64{}
	var checked, hits float64
	for _, ev := range all[:min(len(all), len(cp.in.batches))] {
		if ev.Pattern != "" {
			patterns[ev.Pattern[0]]++
		}
		if ev.KnowledgeChecked {
			checked++
			if ev.KnowledgeHit {
				hits++
			}
		}
	}
	events := all[max(0, len(all)-cp.timed):]
	for _, ev := range events {
		for _, st := range ev.Stages {
			rp.stageMeanUs[st.Stage] += st.Micros / float64(len(events))
		}
	}
	// predict wraps the cluster and knowledge-lookup stages; keep its self time.
	rp.stageMeanUs["predict"] -= rp.stageMeanUs["cluster"] + rp.stageMeanUs["knowledge_lookup"]
	var staged float64
	for stage, us := range rp.stageMeanUs {
		values["core.stage."+stage+"_us"] = us
		staged += us
	}
	values["core.pattern_A"], values["core.pattern_B"], values["core.pattern_C"] = patterns['A'], patterns['B'], patterns['C']
	values["knowledge.hit_frac"] = hits / max(checked, 1)
	values["core.process_us"], values["core.infer_us"] = median(rp.core.train), median(rp.core.infer)
	heavy := 0.0
	for _, us := range rp.core.train {
		if us > 3*values["core.process_us"] {
			heavy++
		}
	}
	values["core.heavy_batch_frac"] = heavy / float64(max(len(rp.core.train), 1))
	// Whatever Process does outside its stages is, by construction of the
	// learner, the snapshot publication plus per-batch bookkeeping.
	values["strategy.publish_us"] = mean(rp.core.train) - staged
	values["obs.observer_overhead_frac"] = mean(observed.times.train)/mean(unobserved.times.train) - 1
	values["session.process_us"], values["session.infer_us"] = median(rp.session.train), median(rp.session.infer)
	values["session.self_us"] = mean(rp.session.train) - mean(rp.core.train)
	values["serve.handler_binary_us"] = median(handlers[0].times.train)
	values["serve.handler_json_us"] = median(handlers[1].times.train)
	values["serve.self_us"] = mean(rp.handler.train) - mean(rp.session.train)
	if cp.w.topo == topoInProcess {
		values["serve.resp_bytes_per_req"] = respBytes[0] / float64(2*(cp.prefix+cp.timed))
	}

	// Allocation counters: the handler of the workload's own encoding alone,
	// continuing its stream, between two MemStats readings.
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	for k := cp.prefix + cp.timed; k < cp.prefix+cp.timed+allocProbePairs; k++ {
		b := cp.in.batches[k%len(cp.in.batches)]
		if err := own.infer(k, b); err != nil {
			return nil, err
		}
		if err := own.process(k, b); err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&ms1)
	rows := float64(2 * allocProbePairs * len(cp.in.batches[0].X))
	values["go.allocs_per_row"] = float64(ms1.Mallocs-ms0.Mallocs) / rows
	values["go.alloc_bytes_per_row"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / rows
	values["go.num_gc"] = float64(ms1.NumGC - ms0.NumGC)
	values["go.gc_pause_total_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	return rp, nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// tableRow is one self-time row of a layer table.
type tableRow struct {
	layer  string
	source string // where the number comes from
	us     float64
}

// layerTable decomposes the mean client round trip of one request class on
// stream 0 into self times, outermost layer first. Live rows come from the
// client's spans and the servers' response headers; the split below the
// worker's reported time comes from the sequential in-process replays of the
// same batches, so whatever the live worker spent beyond the replay — lock
// and CPU contention between the two clients, GC, scheduling — is shown as
// its own unattributed row rather than spread over the layers. The first row
// is the total; the others sum to it.
func layerTable(w *workload, live map[string]liveClass, rp *replays, class string) []tableRow {
	lc := live[class]
	handler, sess, cor := mean(rp.handler.train), mean(rp.session.train), mean(rp.core.train)
	if class == "infer" {
		handler, sess, cor = mean(rp.handler.infer), mean(rp.session.infer), mean(rp.core.infer)
	}
	serveSelf, sessionSelf := handler-sess, sess-cor
	entry := sess // what the worker's reported time spans
	rows := []tableRow{{"client.rtt", "live", lc.rttUs}}
	switch w.topo {
	case topoInProcess:
		// The call goes straight into core: no transport, serve or session.
		serveSelf, sessionSelf, entry = 0, 0, cor
		rows = append(rows, tableRow{"unattributed.transport", "live", lc.rttUs - lc.workUs})
	case topoServe:
		rows = append(rows, tableRow{"unattributed.transport", "live - replay", lc.rttUs - lc.workUs - serveSelf})
	case topoRouted:
		rows = append(rows,
			tableRow{"unattributed.transport", "live", lc.rttUs - lc.routerUs},
			tableRow{"dist.self", "live - replay", lc.routerUs - lc.workUs - serveSelf})
	}
	rows = append(rows,
		tableRow{"serve.self", "replay", serveSelf},
		tableRow{"session.self", "replay", sessionSelf})
	if class == "infer" {
		rows = append(rows, tableRow{"core.infer", "replay", cor})
	} else {
		var staged float64
		for _, stage := range []string{"guard", "shift_detect", "predict", "cluster", "knowledge_lookup", "short_update", "window_push", "long_update"} {
			rows = append(rows, tableRow{"core.stage." + stage, "replay", rp.stageMeanUs[stage]})
			staged += rp.stageMeanUs[stage]
		}
		rows = append(rows, tableRow{"core.publish+bookkeeping", "replay", cor - staged})
	}
	return append(rows, tableRow{"unattributed.worker", "live - replay", lc.workUs - entry})
}

// checkLayerTable verifies the reconciliation: the self-time rows must sum to
// the client round trip within 5 %.
func checkLayerTable(rows []tableRow) error {
	var sum float64
	for _, r := range rows[1:] {
		sum += r.us
	}
	if total := rows[0].us; total <= 0 || sum < 0.95*total || sum > 1.05*total {
		return fmt.Errorf("self times sum to %.1f us, client.rtt is %.1f us", sum, total)
	}
	return nil
}

// attributedFrac is the share of the round trip the table explains, i.e.
// everything outside the unattributed rows.
func attributedFrac(rows []tableRow) float64 {
	var un float64
	for _, r := range rows[1:] {
		if strings.HasPrefix(r.layer, "unattributed.") {
			un += r.us
		}
	}
	if rows[0].us <= 0 {
		return 0
	}
	return 1 - un/rows[0].us
}

func printLayerTable(name, class string, rows []tableRow) {
	fmt.Printf("layer table: %s / %s (mean us per request on stream 0)\n", name, class)
	for _, r := range rows {
		fmt.Printf("  %-28s %10.1f  %5.1f%%  %s\n", r.layer, r.us, 100*r.us/rows[0].us, r.source)
	}
}

// spanJSON is one span of the trace file. Times are µs since the traced
// phase began. The client span is measured; the server spans are durations
// the servers reported in response headers, so their start is not known and
// they are centred inside their parent.
type spanJSON struct {
	Name    string  `json:"name"`
	Request string  `json:"request"`
	Parent  string  `json:"parent,omitempty"`
	Stream  int     `json:"stream"`
	Class   string  `json:"class"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
}

// writeSpans writes the traced phase's spans, kept in memory until now.
func writeSpans(path string, records []reqRecord) error {
	spans := make([]spanJSON, 0, 3*len(records))
	for i, rec := range records {
		id := rec.traceID
		if id == "" {
			id = fmt.Sprintf("c%d-%d", rec.client, i)
		}
		class := "train"
		if rec.infer {
			class = "infer"
		}
		start := float64(rec.start) / float64(time.Microsecond)
		end := start + float64(rec.rtt)/float64(time.Microsecond)
		spans = append(spans, spanJSON{"client.request", id, "", rec.stream, class, start, end})
		parent := "client.request"
		for _, child := range []struct {
			name string
			us   float64
		}{{"dist.forward", rec.routerUs}, {"serve.worker", rec.workerUs}} {
			if child.us <= 0 {
				continue
			}
			mid := (start + end) / 2
			spans = append(spans, spanJSON{child.name, id, parent, rec.stream, class, mid - child.us/2, mid + child.us/2})
			parent = child.name
		}
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
