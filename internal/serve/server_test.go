package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"freewayml/internal/core"
)

// defaultRoute is the stream the single-stream tests drive: an ordinary id,
// created by its first batch like any other.
const defaultRoute = "/v1/streams/default"

func testServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Shift.WarmupPoints = 64
	s, err := New(cfg, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		if err := s.Close(); err != nil {
			t.Error(err)
		}
	})
	return s, ts
}

func postProcess(t *testing.T, url string, req ProcessRequest) (*http.Response, ProcessResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+defaultRoute+"/process", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out ProcessResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	resp.Body.Close()
	return resp, out
}

func batchReq(rng *rand.Rand, n int, labeled bool) ProcessRequest {
	req := ProcessRequest{X: make([][]float64, n)}
	if labeled {
		req.Y = make([]int, n)
	}
	for i := range req.X {
		c := rng.Intn(2)
		req.X[i] = []float64{float64(c)*2 + rng.NormFloat64()*0.3, rng.NormFloat64() * 0.3, 0}
		if labeled {
			req.Y[i] = c
		}
	}
	return req
}

func TestProcessAndStatsEndToEnd(t *testing.T) {
	_, ts := testServer(t)
	rng := rand.New(rand.NewSource(1))
	var last ProcessResponse
	for i := 0; i < 20; i++ {
		resp, out := postProcess(t, ts.URL, batchReq(rng, 32, true))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if len(out.Predictions) != 32 {
			t.Fatalf("predictions = %d", len(out.Predictions))
		}
		last = out
	}
	if last.Accuracy < 0.8 {
		t.Errorf("service accuracy = %v", last.Accuracy)
	}
	if last.Pattern == "" || last.Strategy == "" {
		t.Error("missing pattern/strategy")
	}

	resp, err := http.Get(ts.URL + defaultRoute + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Batches != 20 || stats.Samples != 640 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.GAcc <= 0 || stats.SI <= 0 {
		t.Errorf("degenerate stats: %+v", stats)
	}
}

func TestUnlabeledBatchInfersOnly(t *testing.T) {
	_, ts := testServer(t)
	rng := rand.New(rand.NewSource(2))
	resp, out := postProcess(t, ts.URL, batchReq(rng, 8, false))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.Accuracy != -1 {
		t.Errorf("unlabeled accuracy = %v", out.Accuracy)
	}
	statsResp, err := http.Get(ts.URL + defaultRoute + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(statsResp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Batches != 0 {
		t.Errorf("unlabeled batch counted in metrics: %+v", stats)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := testServer(t)
	cases := []ProcessRequest{
		{},                       // empty
		{X: [][]float64{{1, 2}}}, // wrong width
		{X: [][]float64{{1, 2, 3}}, Y: []int{0, 1}}, // label count
		{X: [][]float64{{1, 2, 3}}, Y: []int{7}},    // label range
	}
	for i, req := range cases {
		resp, _ := postProcess(t, ts.URL, req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400", i, resp.StatusCode)
		}
	}
	// Malformed JSON.
	resp, err := http.Post(ts.URL+defaultRoute+"/process", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d", resp.StatusCode)
	}
}

func TestMethodsEnforced(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Get(ts.URL + defaultRoute + "/process")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET process: %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+defaultRoute+"/stats", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST stats: %d", resp.StatusCode)
	}
}

// unknownCount reads the request counter of the catch-all route.
func unknownCount(t *testing.T, url string) string {
	t.Helper()
	const series = `freeway_http_requests_total{path="/v1/*"} `
	resp, err := http.Get(url + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, series); ok {
			return v
		}
	}
	t.Fatalf("exposition has no %s series", series)
	return ""
}

// TestStreamRouteUnknownEndpoint404: anything under /v1/streams/ that names
// no stream action — a removed one, a made-up one, or none at all — gets the
// JSON 404 envelope, counts under the catch-all route, and never creates a
// session for the id it names.
func TestStreamRouteUnknownEndpoint404(t *testing.T) {
	s, ts := testServer(t)
	for i, path := range []string{"/v1/streams/s/graph", "/v1/streams/s/bogus", "/v1/streams/s"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
		assertErrorEnvelope(t, resp, http.StatusNotFound)
		resp.Body.Close()
		if got, want := unknownCount(t, ts.URL), strconv.Itoa(i+1); got != want {
			t.Errorf("after GET %s: catch-all count %s, want %s", path, got, want)
		}
		if _, ok := s.Sessions().Get("s"); ok {
			t.Fatalf("GET %s created a session for stream s", path)
		}
	}
}

// TestUnknownV1PathsAnswer404Envelope: a /v1 path that names no endpoint —
// a made-up one, the bare prefix, or one of the removed single-stream
// aliases — answers 404 with the JSON envelope, whatever the method, and
// counts under the catch-all route. The removed aliases create no stream.
func TestUnknownV1PathsAnswer404Envelope(t *testing.T) {
	s, ts := testServer(t)
	body, err := json.Marshal(ProcessRequest{X: [][]float64{{0, 0, 0}}, Y: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, path := range []string{"/v1/nope", "/v1", "/v1/process", "/v1/stats", "/v1/trace", "/v1/health"} {
		for _, method := range []string{http.MethodGet, http.MethodPost} {
			req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("%s %s: status %d, want 404", method, path, resp.StatusCode)
			}
			assertErrorEnvelope(t, resp, http.StatusNotFound)
			resp.Body.Close()
			n++
		}
	}
	if got, want := unknownCount(t, ts.URL), strconv.Itoa(n); got != want {
		t.Errorf("catch-all count %s, want %s", got, want)
	}
	if ids := s.Sessions().List(); len(ids) != 0 {
		t.Errorf("unknown paths created streams %v", ids)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := testServer(t)
	var body map[string]string
	if code := getJSON(t, ts.URL+"/v1/healthz", &body); code != http.StatusOK {
		t.Errorf("healthz: %d", code)
	}
	if body["status"] != "ok" {
		t.Errorf("healthz body = %v", body)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(core.Config{}, 3, 2); err == nil {
		t.Error("zero config should error")
	}
}
