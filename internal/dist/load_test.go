package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestKillAndRestartUnderLoad is the failover cycle under concurrent load:
// two real workers share one checkpoint directory behind a probing router,
// four clients each drive six streams of their own (one caller per stream, as
// a stream's labelled batches must be ordered), worker 0 dies mid-run (its
// listener closes; the server is never shut down, so nothing is checkpointed
// on the way out) and a fresh server comes back on the same address. The
// router's retries must absorb the whole eject → failover → rejoin →
// migrate-back cycle — not one client sees an error — and every stream must
// have trained each batch it was sent exactly once.
func TestKillAndRestartUnderLoad(t *testing.T) {
	const (
		clients, streams, rows = 4, 6, 16
		killAt, restartAt, end = 500 * time.Millisecond, 1000 * time.Millisecond, 1500 * time.Millisecond
	)
	dir := t.TempDir()
	w0 := newTestWorker(t, dir)
	w1 := newTestWorker(t, dir)
	addr0 := w0.addr()
	rt, err := NewRouter(Config{
		Workers:        []string{addr0, w1.addr()},
		FailThreshold:  2,
		Cooldown:       0, // rejoin on the first healthy probe
		ProbeInterval:  50 * time.Millisecond,
		ProbeTimeout:   time.Second,
		RequestTimeout: 5 * time.Second,
		Retries:        8,
		RetryBase:      10 * time.Millisecond,
		RetryMax:       200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	rt.Start()
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)

	var sent [clients * streams]atomic.Int64
	var failures atomic.Int64
	var firstFailure atomic.Value
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{Timeout: 30 * time.Second}
			rng := rand.New(rand.NewSource(int64(c + 1)))
			for i := 0; time.Since(start) < end; i++ {
				sid := c*streams + i%streams
				status, err := postLoadBatch(client, front.URL, sid, rng, rows)
				if err == nil && status == http.StatusOK {
					sent[sid].Add(1)
					continue
				}
				failures.Add(1)
				firstFailure.CompareAndSwap(nil, fmt.Sprintf("stream %d: status %d, err %v", sid, status, err))
				if err != nil {
					return // the request's fate is unknown: stop before the count drifts
				}
			}
		}(c)
	}

	time.Sleep(time.Until(start.Add(killAt)))
	w0.kill()
	time.Sleep(time.Until(start.Add(restartAt)))
	restartWorker(t, dir, addr0)
	wg.Wait()

	if n := failures.Load(); n != 0 {
		t.Fatalf("%d requests failed through the kill/restart cycle; first: %v", n, firstFailure.Load())
	}
	if got := counterValue(rt, "freeway_router_ejections_total"); got < 1 {
		t.Errorf("ejections_total = %d, want >= 1: the kill went unnoticed", got)
	}
	deadline := time.Now().Add(5 * time.Second)
	for counterValue(rt, "freeway_router_rejoins_total") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("the restarted worker never rejoined the ring")
		}
		time.Sleep(10 * time.Millisecond)
	}
	total := int64(0)
	for sid := range sent {
		want := int(sent[sid].Load())
		total += int64(want)
		if got := statsVia(t, rt, loadStreamID(sid)).Batches; got != want {
			t.Errorf("stream %s trained %d batches, was sent %d", loadStreamID(sid), got, want)
		}
	}
	t.Logf("%d requests in %v, ejections %d, rejoins %d", total, time.Since(start).Round(time.Millisecond),
		counterValue(rt, "freeway_router_ejections_total"), counterValue(rt, "freeway_router_rejoins_total"))
}

func loadStreamID(sid int) string { return fmt.Sprintf("load-%d", sid) }

// postLoadBatch sends one labeled JSON batch of two separable classes for
// stream sid and returns the status.
func postLoadBatch(client *http.Client, base string, sid int, rng *rand.Rand, rows int) (int, error) {
	var req struct {
		X [][]float64 `json:"x"`
		Y []int       `json:"y"`
	}
	for i := 0; i < rows; i++ {
		c := rng.Intn(2)
		req.X = append(req.X, []float64{float64(sid) + float64(c)*2 + rng.NormFloat64()*0.3, rng.NormFloat64() * 0.3, 0})
		req.Y = append(req.Y, c)
	}
	body, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	resp, err := client.Post(base+"/v1/streams/"+loadStreamID(sid)+"/process", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

// restartWorker boots a fresh worker over the shared checkpoint directory on
// the address a killed one held — what a process supervisor's restart looks
// like to the router.
func restartWorker(t *testing.T, dir, addr string) {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	startTestWorker(t, dir, ln)
}
