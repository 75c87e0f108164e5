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
	resp, err := http.Post(url+"/v1/process", "application/json", bytes.NewReader(body))
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

	resp, err := http.Get(ts.URL + "/v1/stats")
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
	statsResp, err := http.Get(ts.URL + "/v1/stats")
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
	resp, err := http.Post(ts.URL+"/v1/process", "application/json", bytes.NewReader([]byte("{nope")))
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
	resp, err := http.Get(ts.URL + "/v1/process")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/process: %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/stats", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/stats: %d", resp.StatusCode)
	}
}

// TestStreamRouteUnknownEndpoint404: anything under /v1/streams/ that names
// no stream action — a removed one, a made-up one, or none at all — gets the
// JSON 404 envelope, counts under the catch-all route, and never creates a
// session for the id it names.
func TestStreamRouteUnknownEndpoint404(t *testing.T) {
	s, ts := testServer(t)
	const series = `freeway_http_requests_total{path="/v1/streams/:id/other"} `
	other := func() string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/metrics")
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
		if got, want := other(), strconv.Itoa(i+1); got != want {
			t.Errorf("after GET %s: %s= %s, want %s", path, series, got, want)
		}
		if _, ok := s.Sessions().Get("s"); ok {
			t.Fatalf("GET %s created a session for stream s", path)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d", resp.StatusCode)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(core.Config{}, 3, 2); err == nil {
		t.Error("zero config should error")
	}
}
