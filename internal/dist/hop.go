package dist

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"
)

// hopMaxIdlePerWorker bounds the idle connections the hop keeps per worker.
// A forward holds one connection for one round trip, so the bound is the
// client concurrency one worker can absorb without re-dialling; a burst
// above it dials, and the surplus is closed when it comes back.
const hopMaxIdlePerWorker = 64

// hopMaxIdleAge is how long a connection may sit in the pool. The workers'
// http.Server closes a connection idle for two minutes (IdleTimeout in
// cmd/freeway-serve), and a request written to one it has closed costs the
// replay on a fresh dial; the pool gives connections up before the worker does.
const hopMaxIdleAge = 90 * time.Second

// hopWriteBuffer holds a whole routed batch request (a 32×12 JSON batch is
// 4.5 KB plus headers), so it leaves in one write: against bufio's 4 KB
// default the worker's p50 round trip read 187 µs instead of 197.
const hopWriteBuffer = 8 << 10

// hopTransport is the router's default http.RoundTripper: plain HTTP/1.1 to
// a worker's listener over pooled persistent connections, one whole round
// trip on the calling goroutine — write the request, read the response and
// its (small) body, put the connection back. net/http's Transport runs a
// write-loop and a read-loop goroutine per connection and hands the request
// across both; on this hop those hand-offs were half the latency.
type hopTransport struct {
	onDial func(addr string) // observes every fresh dial; may be nil

	mu   sync.Mutex
	idle map[string][]*hopConn
}

// hopConn is one persistent connection with its buffers.
type hopConn struct {
	net.Conn
	br        *bufio.Reader
	bw        *bufio.Writer
	idleSince time.Time // when put pooled it
}

func newHopTransport(onDial func(addr string)) *hopTransport {
	return &hopTransport{onDial: onDial, idle: map[string][]*hopConn{}}
}

// RoundTrip implements http.RoundTripper. The response body is fully read
// before it returns. A request is replayed, once and on a fresh dial, only
// when a reused connection failed before the first response byte — the
// worker closed it while it sat idle, so the request was never read. Every
// other failure is the caller's: the router's retry loop owns it.
func (t *hopTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		defer req.Body.Close()
	}
	addr := req.URL.Host
	if c := t.get(addr); c != nil {
		resp, replay, err := t.exchange(addr, c, req)
		if !replay {
			return resp, err
		}
		if req.Body != nil {
			if req.GetBody == nil {
				return nil, err
			}
			body, gerr := req.GetBody()
			if gerr != nil {
				return nil, err
			}
			defer body.Close()
			again := *req
			again.Body = body
			req = &again
		}
	}
	conn, err := (&net.Dialer{}).DialContext(req.Context(), "tcp", addr)
	if err != nil {
		return nil, err
	}
	if t.onDial != nil {
		t.onDial(addr)
	}
	c := &hopConn{Conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriterSize(conn, hopWriteBuffer)}
	resp, _, err := t.exchange(addr, c, req)
	return resp, err
}

// exchange writes req on c and reads the whole response under the request
// context: its deadline becomes the connection's, and cancellation forces
// that deadline into the past so blocked I/O returns at once. Afterwards c
// is pooled only if the exchange completed, the worker did not ask to close
// and the context never fired; otherwise it is closed. replay reports a
// failure before the first response byte that was not the context's doing —
// on a reused connection, the worker's idle close. An error after the
// context fired is reported as the context's.
func (t *hopTransport) exchange(addr string, c *hopConn, req *http.Request) (resp *http.Response, replay bool, err error) {
	ctx := req.Context()
	answered := false
	// The deadline goes on first: set after AfterFunc, it could overwrite a
	// cancellation that had already fired. The zero time clears the last trip's.
	deadline, _ := ctx.Deadline()
	err = c.SetDeadline(deadline)
	stop := context.AfterFunc(ctx, func() { c.SetDeadline(time.Unix(1, 0)) })
	defer func() {
		if stop() && err == nil && !resp.Close && c.br.Buffered() == 0 {
			t.put(addr, c)
		} else {
			c.Close()
		}
		if err == nil {
			return
		}
		resp = nil
		switch ctxErr := ctx.Err(); {
		case ctxErr != nil:
			err = ctxErr
		case errors.Is(err, os.ErrDeadlineExceeded):
			// The connection's only deadline is the context's, and it can
			// fire a moment before the context's own timer.
			err = context.DeadlineExceeded
		default:
			replay = !answered
		}
	}()

	if err == nil {
		err = req.Write(c.bw)
	}
	if err == nil {
		err = c.bw.Flush()
	}
	if err == nil {
		_, err = c.br.Peek(1)
	}
	if err != nil {
		return nil, false, err
	}
	answered = true
	if resp, err = http.ReadResponse(c.br, req); err != nil {
		return nil, false, err
	}
	var body []byte
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, false, err
}

func (t *hopTransport) get(addr string) *hopConn {
	t.mu.Lock()
	defer t.mu.Unlock()
	pool := t.dropStale(addr)
	if len(pool) == 0 {
		return nil
	}
	c := pool[len(pool)-1]
	t.idle[addr] = pool[:len(pool)-1]
	return c
}

func (t *hopTransport) put(addr string, c *hopConn) {
	c.idleSince = time.Now()
	t.mu.Lock()
	pool := t.dropStale(addr)
	full := len(pool) >= hopMaxIdlePerWorker
	if !full {
		t.idle[addr] = append(pool, c)
	}
	t.mu.Unlock()
	if full {
		c.Close()
	}
}

// dropStale closes the connections idle longer than hopMaxIdleAge, takes them
// out of addr's pool and returns what is left. put appends and get takes from
// the end, so a pool is ordered oldest first. The caller holds t.mu.
func (t *hopTransport) dropStale(addr string) []*hopConn {
	pool := t.idle[addr]
	n := 0
	for ; n < len(pool) && time.Since(pool[n].idleSince) > hopMaxIdleAge; n++ {
		pool[n].Close()
	}
	if n > 0 {
		pool = pool[:copy(pool, pool[n:])]
		clear(pool[len(pool):][:n]) // the closed connections, for the collector
		t.idle[addr] = pool
	}
	return pool
}

// CloseIdleConnections closes the connections idle right now; http.Client
// finds it by this name.
func (t *hopTransport) CloseIdleConnections() {
	t.mu.Lock()
	idle := t.idle
	t.idle = map[string][]*hopConn{}
	t.mu.Unlock()
	for _, pool := range idle {
		for _, c := range pool {
			c.Close()
		}
	}
}
