package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"freewayml/internal/core"
	"freewayml/internal/obs"
)

// exposition lines: either a comment or `name{labels} value`.
var (
	serveCommentRe = regexp.MustCompile(`^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+$`)
	serveSampleRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$`)
)

func TestMetricsEndpoint(t *testing.T) {
	_, ts := testServer(t)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 12; i++ {
		resp, _ := postProcess(t, ts.URL, batchReq(rng, 32, true))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("process status %d", resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != MetricsContentType {
		t.Errorf("Content-Type = %q, want %q", ct, MetricsContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	series := map[string]bool{}
	for i, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			if !serveCommentRe.MatchString(line) {
				t.Fatalf("line %d: malformed comment %q", i+1, line)
			}
			continue
		}
		if !serveSampleRe.MatchString(line) {
			t.Fatalf("line %d: malformed sample %q", i+1, line)
		}
		series[line[:strings.IndexByte(line, ' ')]] = true
	}
	if len(series) < 12 {
		t.Errorf("exposition has %d distinct series, want >= 12", len(series))
	}
	for _, want := range []string{
		`freeway_batches_total{stream="default"}`,
		`freeway_process_seconds_count{stream="default"}`,
		`freeway_stage_seconds_count{stage="shift_detect",stream="default"}`,
		`freeway_http_requests_total{path="/v1/streams/:id/process"}`,
		"freeway_sessions_active",
	} {
		if !series[want] {
			t.Errorf("exposition missing series %s", want)
		}
	}
}

func TestTraceEndpoint(t *testing.T) {
	_, ts := testServer(t)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 8; i++ {
		postProcess(t, ts.URL, batchReq(rng, 32, true))
	}

	resp, err := http.Get(ts.URL + defaultRoute + "/trace?n=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != TraceContentType {
		t.Errorf("Content-Type = %q, want %q", ct, TraceContentType)
	}
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	var ev obs.TraceEvent
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d not JSON: %v", lines+1, err)
		}
		if ev.Strategy == "" || len(ev.Stages) == 0 {
			t.Fatalf("event missing strategy or stages: %s", sc.Text())
		}
		lines++
	}
	if lines != 5 {
		t.Fatalf("trace returned %d events, want 5", lines)
	}
	if ev.Batch != 7 {
		t.Errorf("last event batch = %d, want 7", ev.Batch)
	}

	// Bad n is rejected with the JSON envelope.
	resp2, err := http.Get(ts.URL + defaultRoute + "/trace?n=-1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad n status %d", resp2.StatusCode)
	}
	assertErrorEnvelope(t, resp2, http.StatusBadRequest)
}

// assertErrorEnvelope checks a response carries the shared JSON error body.
func assertErrorEnvelope(t *testing.T, resp *http.Response, code int) {
	t.Helper()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("error Content-Type = %q, want application/json", ct)
	}
	var env errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("error body not an envelope: %v", err)
	}
	if env.Error.Code != code || env.Error.Message == "" {
		t.Errorf("envelope = %+v, want code %d with message", env, code)
	}
}

func TestErrorEnvelopeOnAllEndpoints(t *testing.T) {
	_, ts := testServer(t)
	for _, tc := range []struct {
		method, path string
		code         int
	}{
		{http.MethodGet, defaultRoute + "/process", http.StatusMethodNotAllowed},
		{http.MethodPost, defaultRoute + "/stats", http.StatusMethodNotAllowed},
		{http.MethodPost, "/v1/metrics", http.StatusMethodNotAllowed},
		{http.MethodPost, defaultRoute + "/trace", http.StatusMethodNotAllowed},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.code {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.code)
		}
		assertErrorEnvelope(t, resp, tc.code)
		resp.Body.Close()
	}
}

func TestHTTPCountersInStats(t *testing.T) {
	_, ts := testServer(t)
	rng := rand.New(rand.NewSource(4))
	postProcess(t, ts.URL, batchReq(rng, 8, true))
	// One reject: wrong method.
	resp, err := http.Get(ts.URL + defaultRoute + "/process")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	statsResp, err := http.Get(ts.URL + defaultRoute + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(statsResp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	// process + bad GET + this stats request.
	if stats.HTTPRequests != 3 {
		t.Errorf("http_requests = %d, want 3", stats.HTTPRequests)
	}
	if stats.HTTPRejects != 1 {
		t.Errorf("http_rejects = %d, want 1", stats.HTTPRejects)
	}
	if stats.BodyCapHits != 0 {
		t.Errorf("body_cap_hits = %d, want 0", stats.BodyCapHits)
	}
}

func TestPprofOptIn(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Shift.WarmupPoints = 64

	off, err := New(cfg, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close()
	rec := httptest.NewRecorder()
	off.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("pprof without opt-in: status %d, want 404", rec.Code)
	}

	on, err := New(cfg, 3, 2, WithPprof())
	if err != nil {
		t.Fatal(err)
	}
	defer on.Close()
	rec = httptest.NewRecorder()
	on.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("pprof with opt-in: status %d, want 200", rec.Code)
	}
}

// obsDriftBatch is two separable Gaussian classes centred at (cx, cy) in a
// 3-feature space: the core tests' drifting stream.
func obsDriftBatch(rng *rand.Rand, n int, cx, cy float64) ProcessRequest {
	req := ProcessRequest{X: make([][]float64, n), Y: make([]int, n)}
	for i := range req.X {
		c := rng.Intn(2)
		req.X[i] = []float64{cx + float64(c)*2 + rng.NormFloat64()*0.3, cy + rng.NormFloat64()*0.3, rng.NormFloat64() * 0.3}
		req.Y[i] = c
	}
	return req
}

// TestDriftScheduleObservability drives a schedule built to hit every shift
// pattern — 30 home batches (slight A1/A2, window closes that preserve
// knowledge), one half-blended batch and 12 far-away ones (sudden B), one
// return home (reoccurring C) — into the default stream, then 6 batches into
// stream "alt", and requires the metrics and the decision trace to have seen
// exactly that: every pattern family counted, per-stream batch counts, both
// sessions live, and one traced decision per default-stream batch.
func TestDriftScheduleObservability(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Shift.WarmupPoints = 128
	s, err := New(cfg, 3, 2, WithTraceCap(256))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	send := func(path string, req ProcessRequest) {
		t.Helper()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, resp.StatusCode, msg)
		}
	}

	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 30; i++ {
		send(defaultRoute+"/process", obsDriftBatch(rng, 64, 0, 0))
	}
	blended, away := obsDriftBatch(rng, 64, 0, 0), obsDriftBatch(rng, 64, 50, 40)
	copy(blended.X[44:], away.X[44:])
	copy(blended.Y[44:], away.Y[44:])
	send(defaultRoute+"/process", blended)
	for i := 0; i < 12; i++ {
		send(defaultRoute+"/process", obsDriftBatch(rng, 64, 50, 40))
	}
	send(defaultRoute+"/process", obsDriftBatch(rng, 64, 0, 0))
	for i := 0; i < 6; i++ {
		send("/v1/streams/alt/process", obsDriftBatch(rng, 64, 0, 0))
	}

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	series := map[string]string{}
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		if name, value, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			series[name] = value
		}
	}
	pattern := func(p string) string { return series[`freeway_pattern_total{pattern="`+p+`",stream="default"}`] }
	for _, p := range [][]string{{"A1", "A2"}, {"B"}, {"C"}} {
		counted := false
		for _, sub := range p {
			if v := pattern(sub); v != "" && v != "0" {
				counted = true
			}
		}
		if !counted {
			t.Errorf("no %v pattern counted for the default stream", p)
		}
	}
	t.Logf("patterns counted: A1 %s, A2 %s, B %s, C %s", pattern("A1"), pattern("A2"), pattern("B"), pattern("C"))
	for name, want := range map[string]string{
		`freeway_batches_total{stream="default"}`: "44",
		`freeway_batches_total{stream="alt"}`:     "6",
		"freeway_sessions_active":                 "2",
	} {
		if got := series[name]; got != want {
			t.Errorf("%s = %q, want %s", name, got, want)
		}
	}

	resp, err = http.Get(ts.URL + defaultRoute + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	families := map[string]bool{}
	events := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev obs.TraceEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("trace line %d: %v", events+1, err)
		}
		if ev.Strategy == "" || len(ev.Stages) == 0 {
			t.Fatalf("trace event %d has no strategy or no stage timings: %s", ev.Batch, sc.Text())
		}
		families[ev.Pattern[:1]] = true
		events++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if events != 44 {
		t.Errorf("trace has %d events, want 44", events)
	}
	for _, f := range []string{"A", "B", "C"} {
		if !families[f] {
			t.Errorf("trace never shows a %s-family pattern (saw %v)", f, families)
		}
	}
}

// TestTraceReadersBesideProcess: trace readers render a stream's trace
// while its batches are processed and its ring wraps; under -race every
// render is ordered against every add.
func TestTraceReadersBesideProcess(t *testing.T) {
	_, ts := testServerOpts(t, WithTraceCap(8))
	rng := rand.New(rand.NewSource(11))
	bodies := make([][]byte, 40)
	for i := range bodies {
		b, err := json.Marshal(batchReq(rng, 32, true))
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = b
	}
	post := func(b []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+defaultRoute+"/process", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("process status %d", resp.StatusCode)
		}
	}
	// The first batch creates the stream, so every read finds its trace.
	post(bodies[0])
	done := make(chan struct{})
	read := make(chan struct{})
	go func() {
		defer close(read)
		for {
			select {
			case <-done:
				return
			default:
			}
			resp, err := http.Get(ts.URL + defaultRoute + "/trace")
			if err != nil {
				t.Error(err)
				return
			}
			sc := bufio.NewScanner(resp.Body)
			for sc.Scan() {
				var ev obs.TraceEvent
				if err := json.Unmarshal(sc.Bytes(), &ev); err != nil || ev.Strategy == "" || len(ev.TraceID) != 32 {
					t.Errorf("trace line %s (%v)", sc.Bytes(), err)
				}
			}
			resp.Body.Close()
		}
	}()
	for _, b := range bodies[1:] {
		post(b)
	}
	close(done)
	<-read
	if lines := traceLines(t, ts.URL); len(lines) != 8 {
		t.Errorf("trace holds %d events, want 8", len(lines))
	}
}
