package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// ownerFor is the test-side view of route: the stream's current owner.
func (r *Router) ownerFor(id string) (string, bool) {
	owner, _, ok := r.route(id)
	return owner, ok
}

// countingListener counts accepted connections — what a re-dialling hop
// costs the worker.
type countingListener struct {
	net.Listener
	accepts atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return c, err
}

// TestRouterHopDoesNotRedialUnderConcurrency: 8 concurrent callers × 200
// forwards to one worker. net/http's default transport kept 2 idle
// connections per host and cost the worker 477 accepts for these 1 600
// requests; the pool needs one connection per concurrent caller, once.
func TestRouterHopDoesNotRedialUnderConcurrency(t *testing.T) {
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		fmt.Fprintln(w, `{"ok":true}`)
	}))
	ln := &countingListener{Listener: ts.Listener}
	ts.Listener = ln
	ts.Start()
	defer ts.Close()
	addr := strings.TrimPrefix(ts.URL, "http://")
	rt, err := NewRouter(Config{Workers: []string{addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	const callers, each = 8, 200
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if rec := routerProcess(t, rt, "orders"); rec.Code != http.StatusOK {
					t.Errorf("status %d: %s", rec.Code, rec.Body)
					return
				}
			}
		}()
	}
	wg.Wait()
	accepts := ln.accepts.Load()
	if accepts > callers {
		t.Errorf("%d requests cost the worker %d accepts, want <= %d", callers*each, accepts, callers)
	}
	if got := counterValue(rt, "freeway_router_hop_dials_total", "worker", addr); got != accepts {
		t.Errorf("hop_dials_total = %d, the listener accepted %d", got, accepts)
	}
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	if want := fmt.Sprintf("freeway_router_hop_dials_total{worker=%q} %d", addr, accepts); !strings.Contains(rec.Body.String(), want) {
		t.Errorf("/v1/metrics lacks %s", want)
	}
}

// hopWorker is an httptest worker for driving hopTransport directly: it
// counts the requests its handler saw and the hop's dials.
type hopWorker struct {
	ts    *httptest.Server
	addr  string
	hits  atomic.Int64
	dials atomic.Int64
	tr    *hopTransport
}

func newHopWorker(t *testing.T, h func(w http.ResponseWriter, r *http.Request)) *hopWorker {
	t.Helper()
	hw := &hopWorker{}
	hw.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hw.hits.Add(1)
		h(w, r)
	}))
	t.Cleanup(hw.ts.Close)
	hw.addr = strings.TrimPrefix(hw.ts.URL, "http://")
	hw.tr = newHopTransport(func(string) { hw.dials.Add(1) })
	t.Cleanup(hw.tr.CloseIdleConnections)
	return hw
}

// post runs one POST through the hop and returns status and body.
func (hw *hopWorker) post(ctx context.Context, path, body string) (int, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+hw.addr+path, strings.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	resp, err := hw.tr.RoundTrip(req)
	if err != nil {
		return 0, "", err
	}
	got, err := io.ReadAll(resp.Body)
	return resp.StatusCode, string(got), err
}

func (hw *hopWorker) idle() int {
	hw.tr.mu.Lock()
	defer hw.tr.mu.Unlock()
	return len(hw.tr.idle[hw.addr])
}

// hangUp answers with the given raw bytes (possibly none) and closes.
func hangUp(w http.ResponseWriter, raw string) {
	conn, _, err := w.(http.Hijacker).Hijack()
	if err != nil {
		panic(err)
	}
	io.WriteString(conn, raw)
	conn.Close()
}

func echo(w http.ResponseWriter, r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	fmt.Fprintf(w, "%s %s", r.URL.Path, body)
}

func TestHopReplaysOnceWhenWorkerClosedIdleConnection(t *testing.T) {
	hw := newHopWorker(t, echo)
	bg := context.Background()
	if code, _, err := hw.post(bg, "/a", "one"); err != nil || code != 200 {
		t.Fatalf("warm request: %d %v", code, err)
	}
	if hw.idle() != 1 {
		t.Fatalf("idle = %d, want the connection pooled", hw.idle())
	}
	hw.ts.CloseClientConnections() // the worker's idle timeout, in effect
	code, body, err := hw.post(bg, "/b", "two")
	if err != nil || code != 200 || body != "/b two" {
		t.Fatalf("after idle close: %d %q %v, want the replay to succeed with the body re-sent", code, body, err)
	}
	if hits, dials := hw.hits.Load(), hw.dials.Load(); hits != 2 || dials != 2 {
		t.Fatalf("hits %d dials %d, want 2 and 2: each request served once, one re-dial", hits, dials)
	}
}

// TestHopAgesOutIdleConnections: against a worker that closes connections
// idle for 20 ms, a pooled connection younger than hopMaxIdleAge is still
// tried and costs the replay (the body is fetched again); once it is older the
// pool closes and drops it on the next touch, and the request goes out once,
// on a fresh dial.
func TestHopAgesOutIdleConnections(t *testing.T) {
	closed := make(chan struct{}, 8) // one token per connection the worker closed; 3 connections at most
	ts := httptest.NewUnstartedServer(http.HandlerFunc(echo))
	ts.Config.IdleTimeout = 20 * time.Millisecond
	ts.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateClosed {
			closed <- struct{}{}
		}
	}
	ts.Start()
	defer ts.Close()
	addr := strings.TrimPrefix(ts.URL, "http://")
	var dials, bodies int
	tr := newHopTransport(func(string) { dials++ })
	defer tr.CloseIdleConnections()
	post := func(body string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, "http://"+addr+"/p", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		getBody := req.GetBody
		req.GetBody = func() (io.ReadCloser, error) { bodies++; return getBody() }
		resp, err := tr.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := io.ReadAll(resp.Body); resp.StatusCode != 200 || string(got) != "/p "+body {
			t.Fatalf("%d %q, want 200 and the body echoed", resp.StatusCode, got)
		}
	}

	post("one")
	<-closed // the worker's idle timeout fired on the pooled connection
	post("two")
	if dials != 2 || bodies != 1 {
		t.Fatalf("young stale connection: dials %d, bodies re-fetched %d, want 2 and 1 (the replay)", dials, bodies)
	}
	<-closed
	tr.mu.Lock()
	if len(tr.idle[addr]) != 1 {
		t.Fatalf("idle = %d, want the second connection pooled", len(tr.idle[addr]))
	}
	tr.idle[addr][0].idleSince = time.Now().Add(-hopMaxIdleAge - time.Second)
	tr.mu.Unlock()
	post("three")
	if dials != 3 || bodies != 1 {
		t.Fatalf("aged-out connection: dials %d, bodies re-fetched %d, want 3 and 1 (no replay)", dials, bodies)
	}
}

func TestHopDoesNotReplayOtherFailures(t *testing.T) {
	bg := context.Background()
	t.Run("after the first response byte on a reused connection", func(t *testing.T) {
		hw := newHopWorker(t, func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/torn" {
				hangUp(w, "HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\npartial")
				return
			}
			echo(w, r)
		})
		if _, _, err := hw.post(bg, "/warm", ""); err != nil {
			t.Fatal(err)
		}
		if _, _, err := hw.post(bg, "/torn", "x"); err == nil {
			t.Fatal("torn response: no error")
		}
		if hits, dials, idle := hw.hits.Load(), hw.dials.Load(), hw.idle(); hits != 2 || dials != 1 || idle != 0 {
			t.Fatalf("hits %d dials %d idle %d, want 2, 1, 0: no replay, connection dropped", hits, dials, idle)
		}
	})
	t.Run("before any response byte on a fresh dial", func(t *testing.T) {
		hw := newHopWorker(t, func(w http.ResponseWriter, r *http.Request) { hangUp(w, "") })
		if _, _, err := hw.post(bg, "/x", "x"); err == nil {
			t.Fatal("hang-up: no error")
		}
		if hits, dials := hw.hits.Load(), hw.dials.Load(); hits != 1 || dials != 1 {
			t.Fatalf("hits %d dials %d, want 1 and 1", hits, dials)
		}
	})
	t.Run("nobody listening", func(t *testing.T) {
		hw := newHopWorker(t, echo)
		hw.ts.Close()
		if _, _, err := hw.post(bg, "/x", "x"); err == nil || hw.dials.Load() != 0 {
			t.Fatalf("err %v dials %d, want a dial error", err, hw.dials.Load())
		}
	})
}

// TestHopContextEndsAStalledResponse: a worker that stalls after its
// response headers must not hold the caller past its context, and the
// connection it stalled on must never serve another request.
func TestHopContextEndsAStalledResponse(t *testing.T) {
	for _, mode := range []string{"deadline", "cancel"} {
		t.Run(mode, func(t *testing.T) {
			started, release := make(chan struct{}, 1), make(chan struct{})
			hw := newHopWorker(t, func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != "/stall" {
					echo(w, r)
					return
				}
				w.Header().Set("Content-Length", "10")
				w.(http.Flusher).Flush()
				started <- struct{}{}
				<-release
			})
			defer close(release)
			bg := context.Background()
			if _, _, err := hw.post(bg, "/warm", ""); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(bg, time.Minute)
			want := context.Canceled
			if mode == "deadline" {
				cancel()
				ctx, cancel = context.WithTimeout(bg, 100*time.Millisecond)
				want = context.DeadlineExceeded
			} else {
				go func() { <-started; cancel() }()
			}
			defer cancel()
			begin := time.Now()
			_, _, err := hw.post(ctx, "/stall", "")
			if !errors.Is(err, want) || time.Since(begin) > 10*time.Second {
				t.Fatalf("err %v after %v, want %v promptly", err, time.Since(begin), want)
			}
			if hw.idle() != 0 {
				t.Fatal("the stalled connection went back to the pool")
			}
			if code, body, err := hw.post(bg, "/next", "ok"); err != nil || code != 200 || body != "/next ok" {
				t.Fatalf("next request: %d %q %v", code, body, err)
			}
			if hw.dials.Load() != 2 {
				t.Fatalf("dials = %d, want 2: the next request must dial afresh", hw.dials.Load())
			}
		})
	}
}

func TestHopResponseShapes(t *testing.T) {
	big := bytes.Repeat([]byte("0123456789abcdef"), 1<<16) // 1 MiB
	hw := newHopWorker(t, func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/close":
			w.Header().Set("Connection", "close")
			fmt.Fprint(w, "bye")
		case "/big":
			w.Write(big)
		case "/chunked":
			for i := 0; i < 3; i++ {
				fmt.Fprintf(w, "part%d;", i)
				w.(http.Flusher).Flush()
			}
		case "/empty":
			w.WriteHeader(http.StatusNoContent)
		}
	})
	for _, tc := range []struct {
		path, want string
		code, idle int
	}{
		{"/big", string(big), 200, 1},
		{"/chunked", "part0;part1;part2;", 200, 1},
		{"/empty", "", 204, 1},
		{"/close", "bye", 200, 0},
		{"/empty", "", 204, 1},
	} {
		code, body, err := hw.post(context.Background(), tc.path, "payload")
		if err != nil || code != tc.code || body != tc.want {
			t.Fatalf("%s: %d, %d body bytes, %v; want %d, %d bytes", tc.path, code, len(body), err, tc.code, len(tc.want))
		}
		if hw.idle() != tc.idle {
			t.Fatalf("%s: %d idle connections, want %d", tc.path, hw.idle(), tc.idle)
		}
	}
	if hw.dials.Load() != 2 {
		t.Fatalf("dials = %d, want 2: only Connection: close costs a re-dial", hw.dials.Load())
	}
}

// TestRouterStripsExpectContinue: the router's own server answers a client's
// Expect: 100-continue and buffers the body, so the header must not reach
// the worker — its "100 Continue" would be read as the final response.
func TestRouterStripsExpectContinue(t *testing.T) {
	var sawExpect atomic.Bool
	fw := newFakeWorker(t)
	fw.handler = func(w http.ResponseWriter, r *http.Request) bool {
		if r.Header.Get("Expect") != "" {
			sawExpect.Store(true)
		}
		return false
	}
	front := httptest.NewServer(testRouter(t, nil, fw))
	defer front.Close()
	req, err := http.NewRequest(http.MethodPost, front.URL+"/v1/streams/orders/process",
		strings.NewReader(`{"x":[[0,0,0]],"y":[0]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Expect", "100-continue")
	client := &http.Client{Transport: &http.Transport{ExpectContinueTimeout: 5 * time.Second}}
	defer client.CloseIdleConnections()
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"worker"`) {
		t.Fatalf("status %d body %s, want the worker's 200", resp.StatusCode, body)
	}
	if sawExpect.Load() {
		t.Fatal("Expect reached the worker")
	}
}
