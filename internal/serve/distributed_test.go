package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"freewayml/internal/core"
)

func optServer(t *testing.T, opts ...Option) (*Server, *httptest.Server) {
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
		s.Close()
	})
	return s, ts
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestReadyzChecks(t *testing.T) {
	t.Run("ready", func(t *testing.T) {
		_, ts := optServer(t, WithCheckpointDir(t.TempDir(), 4))
		var body ReadyResponse
		if code := getJSON(t, ts.URL+"/v1/readyz", &body); code != http.StatusOK {
			t.Fatalf("readyz = %d, want 200 (checks %v)", code, body.Checks)
		}
		if body.Status != "ok" {
			t.Errorf("status = %q, want ok", body.Status)
		}
	})

	t.Run("sessions at cap", func(t *testing.T) {
		// Limit 1: the first stream fills the cap.
		_, ts := optServer(t, WithSessionLimits(1, 0))
		if code := getJSON(t, ts.URL+"/v1/readyz", nil); code != http.StatusOK {
			t.Fatalf("readyz = %d below the session cap, want 200", code)
		}
		if resp, _ := postProcess(t, ts.URL, batchReq(rand.New(rand.NewSource(1)), 4, true)); resp.StatusCode != http.StatusOK {
			t.Fatalf("first batch: status %d", resp.StatusCode)
		}
		var body ReadyResponse
		if code := getJSON(t, ts.URL+"/v1/readyz", &body); code != http.StatusServiceUnavailable {
			t.Fatalf("readyz = %d, want 503 at the session cap", code)
		}
		if body.Checks["sessions"] == "ok" {
			t.Errorf("sessions check = ok, want the cap named; checks %v", body.Checks)
		}
		// Liveness is unaffected: the process is healthy, just not ready.
		if code := getJSON(t, ts.URL+"/v1/healthz", nil); code != http.StatusOK {
			t.Errorf("healthz = %d while not ready, want 200", code)
		}
	})

	t.Run("checkpoint dir unavailable", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "ckpts")
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		_, ts := optServer(t, WithCheckpointDir(dir, 4))
		if code := getJSON(t, ts.URL+"/v1/readyz", nil); code != http.StatusOK {
			t.Fatalf("readyz = %d with a writable dir, want 200", code)
		}
		// The directory disappearing (unmounted volume, wiped tmpfs) must
		// flip readiness: evictions and failover would lose state.
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		var body ReadyResponse
		if code := getJSON(t, ts.URL+"/v1/readyz", &body); code != http.StatusServiceUnavailable {
			t.Fatalf("readyz = %d with the checkpoint dir gone, want 503", code)
		}
		if body.Checks["checkpoint_dir"] == "ok" {
			t.Errorf("checkpoint_dir check = ok, want failure named; checks %v", body.Checks)
		}
	})
}

func TestCancelledRequestCounts499(t *testing.T) {
	s, ts := optServer(t)
	req := ProcessRequest{X: [][]float64{{0, 0, 0}}, Y: []int{0}}
	body, _ := json.Marshal(req)

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client is gone before the batch starts
	hr := httptest.NewRequest(http.MethodPost, defaultRoute+"/process", bytes.NewReader(body)).WithContext(ctx)
	hr.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, hr)
	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("cancelled request = %d, want %d", rec.Code, StatusClientClosedRequest)
	}

	var stats StatsResponse
	if code := getJSON(t, ts.URL+defaultRoute+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	if stats.CancelledRequests != 1 {
		t.Errorf("cancelled_requests = %d, want 1", stats.CancelledRequests)
	}
	// A normal request afterwards still works: cancellation must not
	// poison the session.
	resp, err := http.Post(ts.URL+defaultRoute+"/process", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-cancel request = %d, want 200", resp.StatusCode)
	}
}

func TestEvictEndpoint(t *testing.T) {
	dir := t.TempDir()
	// CheckpointEvery 0: snapshots only on eviction, so file existence
	// distinguishes Evict from Discard.
	s, ts := optServer(t, WithCheckpointDir(dir, 0))
	rng := rand.New(rand.NewSource(3))
	for _, id := range []string{"ev1", "ev2"} {
		req := batchReq(rng, 8, true)
		body, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/v1/streams/"+id+"/process", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %s: %d", id, resp.StatusCode)
		}
	}

	post := func(path string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		json.NewDecoder(resp.Body).Decode(&body)
		return resp.StatusCode, body
	}

	code, body := post("/v1/streams/ev1/evict")
	if code != http.StatusOK || body["evicted"] != true {
		t.Fatalf("evict = %d %v, want 200 evicted=true", code, body)
	}
	if _, err := os.Stat(filepath.Join(dir, "ev1.ckpt")); err != nil {
		t.Errorf("checkpointing evict left no envelope: %v", err)
	}
	if _, ok := s.Sessions().Get("ev1"); ok {
		t.Error("ev1 still resident after evict")
	}
	// Idempotent: evicting a non-resident stream is 200/evicted=false.
	if code, body := post("/v1/streams/ev1/evict"); code != http.StatusOK || body["evicted"] != false {
		t.Errorf("second evict = %d %v, want 200 evicted=false", code, body)
	}

	// Discard path: no envelope is written.
	if code, _ := post("/v1/streams/ev2/evict?checkpoint=false"); code != http.StatusOK {
		t.Fatalf("discard evict = %d", code)
	}
	if _, err := os.Stat(filepath.Join(dir, "ev2.ckpt")); !os.IsNotExist(err) {
		t.Errorf("discard wrote a checkpoint (err=%v), want none", err)
	}

	// Method enforcement.
	resp, err := http.Get(ts.URL + "/v1/streams/ev1/evict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET evict = %d, want 405", resp.StatusCode)
	}

	// The evicted stream resumes from its checkpoint on the next request.
	req := batchReq(rng, 8, true)
	rb, _ := json.Marshal(req)
	resp, err = http.Post(ts.URL+"/v1/streams/ev1/process", "application/json", bytes.NewReader(rb))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var stats StatsResponse
	if code := getJSON(t, ts.URL+"/v1/streams/ev1/stats", &stats); code != http.StatusOK {
		t.Fatal(code)
	}
	if !stats.Restored || stats.Batches != 2 {
		t.Errorf("post-evict stream: restored=%v batches=%d, want true/2", stats.Restored, stats.Batches)
	}
}
