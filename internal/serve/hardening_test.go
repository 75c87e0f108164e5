package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"freewayml/internal/core"
	"freewayml/internal/stream"
)

func testServerOpts(t *testing.T, opts ...Option) (*Server, *httptest.Server) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Shift.WarmupPoints = 64
	s, err := New(cfg, 3, 2, opts...)
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

func getStats(t *testing.T, url string) StatsResponse {
	t.Helper()
	resp, err := http.Get(url + defaultRoute + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d", resp.StatusCode)
	}
	var stats StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	return stats
}

// TestOversizeBodyRejected: every body-reading endpoint answers an over-cap
// body with 413 and counts it in body_cap_hits.
func TestOversizeBodyRejected(t *testing.T) {
	_, ts := testServerOpts(t, WithMaxBodyBytes(1024))
	rng := rand.New(rand.NewSource(3))
	// ~100 rows of 3 floats serializes well past 1 KiB.
	big, err := json.Marshal(batchReq(rng, 100, false))
	if err != nil {
		t.Fatal(err)
	}
	// The stream the counters are read from exists before the first refusal.
	if resp, _ := postProcess(t, ts.URL, batchReq(rng, 4, true)); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed batch: status %d", resp.StatusCode)
	}
	for i, path := range []string{defaultRoute + "/process", "/v1/streams/s1/infer"} {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(big))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s oversize body: status %d, want 413", path, resp.StatusCode)
		}
		if hits := getStats(t, ts.URL).BodyCapHits; hits != int64(i+1) {
			t.Errorf("%s: body_cap_hits = %d, want %d", path, hits, i+1)
		}
	}
	// A batch under the cap still works.
	resp, out := postProcess(t, ts.URL, batchReq(rng, 4, true))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("small batch after oversize: status %d", resp.StatusCode)
	}
	if len(out.Predictions) != 4 {
		t.Errorf("predictions = %d", len(out.Predictions))
	}
}

func TestDirtyBatchRejectedWithoutPoisoningState(t *testing.T) {
	s, ts := testServerOpts(t) // DefaultConfig guards with Reject
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 10; i++ {
		resp, _ := postProcess(t, ts.URL, batchReq(rng, 32, true))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("clean batch %d: status %d", i, resp.StatusCode)
		}
	}

	// JSON cannot encode NaN, so a dirty batch can only reach the learner
	// through the library path — exercise the decoded-request seam directly.
	dirty := batchReq(rng, 8, true)
	dirty.X[3][1] = math.NaN()
	_, status, err := s.process(context.Background(), "default", stream.Batch{X: dirty.X, Y: dirty.Y})
	if err == nil || status != http.StatusUnprocessableEntity {
		t.Errorf("NaN batch: status %d (err %v), want 422", status, err)
	}

	stats := getStats(t, ts.URL)
	if stats.RejectedBatches != 1 {
		t.Errorf("rejected_batches = %d, want 1", stats.RejectedBatches)
	}
	if stats.Batches != 10 {
		t.Errorf("rejected batch leaked into metrics: %d batches", stats.Batches)
	}

	// Serving continues normally after the rejection.
	resp, out := postProcess(t, ts.URL, batchReq(rng, 32, true))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clean batch after rejection: status %d", resp.StatusCode)
	}
	if out.Accuracy < 0.8 {
		t.Errorf("accuracy after rejection = %v", out.Accuracy)
	}
}

func TestPeriodicCheckpointAndResume(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "default.ckpt")
	s, ts := testServerOpts(t, WithCheckpointDir(dir, 2))
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 6; i++ {
		resp, _ := postProcess(t, ts.URL, batchReq(rng, 32, true))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d: status %d", i, resp.StatusCode)
		}
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}
	sess, ok := s.Sessions().Get("default")
	if !ok {
		t.Fatal("default session missing")
	}
	saves := sess.Snapshot().CheckpointSaves
	if saves != 3 {
		t.Errorf("checkpoint saves = %d, want 3 (every 2nd of 6 batches)", saves)
	}
	stats := getStats(t, ts.URL)
	if stats.CheckpointSaves != 3 || stats.CheckpointErrors != 0 {
		t.Errorf("stats checkpoints = %d saves / %d errors", stats.CheckpointSaves, stats.CheckpointErrors)
	}

	// Restart: a fresh server on the same directory restores the stream on
	// its first request and picks up where it left off.
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, ts2 := testServerOpts(t, WithCheckpointDir(dir, 2))
	var out ProcessResponse
	for i := 0; i < 3; i++ {
		var resp *http.Response
		resp, out = postProcess(t, ts2.URL, batchReq(rng, 32, true))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-resume batch %d: status %d", i, resp.StatusCode)
		}
	}
	stats2 := getStats(t, ts2.URL)
	if !stats2.Restored || stats2.Batches != stats.Batches+3 || stats2.Samples != stats.Samples+3*32 {
		t.Errorf("after 3 post-restart batches: restored=%v, %d batches / %d samples, want true, %d / %d",
			stats2.Restored, stats2.Batches, stats2.Samples, stats.Batches+3, stats.Samples+3*32)
	}
	if out.Accuracy < 0.8 {
		t.Errorf("post-resume accuracy = %v (restored model should be warm)", out.Accuracy)
	}
}

func TestCloseWritesFinalCheckpoint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "default.ckpt")
	cfg := core.DefaultConfig()
	cfg.Shift.WarmupPoints = 64
	// every=1000 never triggers mid-run; only Close should write the file.
	s, err := New(cfg, 3, 2, WithCheckpointDir(dir, 1000))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	rng := rand.New(rand.NewSource(6))
	resp, _ := postProcess(t, ts.URL, batchReq(rng, 16, true))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	ts.Close()
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("checkpoint written before Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no final checkpoint after Close: %v", err)
	}
}

func TestUnknownFieldsRejected(t *testing.T) {
	_, ts := testServerOpts(t)
	body := []byte(`{"x": [[1,2,3]], "bogus": true}`)
	resp, err := http.Post(ts.URL+defaultRoute+"/process", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", resp.StatusCode)
	}
}
