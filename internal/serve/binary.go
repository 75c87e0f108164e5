package serve

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"log"
	"net"
	"net/http"
	"sync"
	"time"

	"freewayml/internal/wire"
)

// BinaryContentType selects the length-prefixed binary batch frame
// (internal/wire) on POST /v1/streams/{id}/process and /v1/process. JSON
// remains the default and the compatibility path.
const BinaryContentType = "application/x-freeway-batch"

// DefaultBinaryReadTimeout is the per-frame read deadline of persistent
// binary connections — the same 30s the HTTP server applies per request.
const DefaultBinaryReadTimeout = 30 * time.Second

// framePool recycles decoded-frame storage across requests: a warm frame
// re-decodes a same-shaped batch with zero allocations. A frame whose slab
// was detached (handed to the learner, which retains labeled rows) allocates
// a fresh one on its next decode.
var framePool = sync.Pool{New: func() any { return new(wire.Frame) }}

func getFrame() *wire.Frame { return framePool.Get().(*wire.Frame) }

func putFrame(f *wire.Frame) { framePool.Put(f) }

// processDecodedFrame validates and processes a decoded frame. The learner
// retains rows (windows, replay buffers), so the frame's storage is
// detached — the frame allocates a fresh slab on its next decode.
func (s *Server) processDecodedFrame(ctx context.Context, id, traceID string, f *wire.Frame) (ProcessResponse, int, error) {
	if err := validateRows(f.X, f.Y, s.dim, s.classes); err != nil {
		return ProcessResponse{}, http.StatusBadRequest, err
	}
	x, y := f.Detach()
	return s.process(ctx, id, traceID, x, y)
}

// ServeBinary accepts persistent binary connections on ln and serves
// length-prefixed wire frames until the listener fails or the server
// closes. Each connection carries a sequence of uint32-length-prefixed
// frames; every frame is answered with a uint32-length-prefixed JSON body —
// a ProcessResponse, or the standard error envelope. Framing errors (bad
// magic, truncation, a frame over the body cap) are answered and then the
// connection is closed, since the byte stream cannot be resynchronized.
// Blocks; run it on its own goroutine alongside the HTTP listener.
func (s *Server) ServeBinary(ln net.Listener) error {
	s.binMu.Lock()
	if s.binLns == nil {
		s.binLns = make(map[net.Listener]struct{})
	}
	s.binLns[ln] = struct{}{}
	s.binMu.Unlock()
	defer func() {
		s.binMu.Lock()
		delete(s.binLns, ln)
		s.binMu.Unlock()
	}()

	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.closing.Load() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.serveBinaryConn(conn)
		}()
	}
}

// serveBinaryConn drives one persistent binary connection: a reusable frame
// and scratch buffer give warm decodes zero allocations; each read runs
// under the binary read deadline; responses are written through one
// buffered writer with a single flush per frame.
func (s *Server) serveBinaryConn(conn net.Conn) {
	s.binMu.Lock()
	if s.binConns == nil {
		s.binConns = make(map[net.Conn]struct{})
	}
	s.binConns[conn] = struct{}{}
	s.binMu.Unlock()
	defer func() {
		s.binMu.Lock()
		delete(s.binConns, conn)
		s.binMu.Unlock()
		conn.Close()
	}()

	f := getFrame()
	defer putFrame(f)
	var scratch []byte
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	for {
		if err := conn.SetReadDeadline(time.Now().Add(s.binTimeout)); err != nil {
			return
		}
		var err error
		scratch, err = wire.ReadFrame(br, f, scratch, int(s.maxBody))
		if err != nil {
			// Only a started frame is the client's error. Between frames an
			// EOF, a reset or the read deadline of an idle connection just
			// ends it: nothing to answer, nothing to count.
			if !errors.Is(err, wire.ErrMalformed) && !errors.Is(err, wire.ErrTooLarge) || s.closing.Load() {
				return
			}
			status := http.StatusBadRequest
			if errors.Is(err, wire.ErrTooLarge) {
				s.bodyCap.Add(1)
				status = http.StatusRequestEntityTooLarge
			}
			s.writeBinaryError(bw, status, err.Error())
			bw.Flush()
			return
		}
		s.reqs.Add(1)
		s.routeCounters["binary"].Inc()
		s.cBinFrames.Inc()
		if f.Grew {
			s.cBinGrew.Inc()
		}

		var out any
		status := http.StatusBadRequest
		perr := error(nil)
		if f.ID == "" {
			perr = errors.New("stream frames must embed a stream id")
		} else if f.Y == nil {
			// A label-less frame on the persistent listener is an inference
			// request: it routes to the read plane and never touches training
			// state. (The HTTP /v1/process endpoint keeps its historical
			// label-less-means-train-unsupervised contract; the split applies
			// only here and on /infer, where the intent is unambiguous.)
			rec := s.beginInferSpan(f.ID, "binary", "", f.Traceparent, len(f.X))
			out, status, perr = s.inferDecodedFrame(context.Background(), f.ID, f)
			rec.finish(perr)
		} else {
			// No per-request context exists on a raw connection; the pass
			// runs to completion (the deadline governs reads, not compute).
			// Trace context, if any, rides inside the frame (version 2).
			rec := s.beginSpan(f.ID, "binary", "", f.Traceparent, len(f.X))
			out, status, perr = s.processDecodedFrame(context.Background(), f.ID, rec.traceID(), f)
			rec.finish(perr)
		}
		if perr != nil {
			if !s.writeBinaryError(bw, status, perr.Error()) {
				return
			}
		} else if !s.writeBinaryJSON(bw, out) {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// writeBinaryJSON frames v as uint32-length-prefixed JSON. Reports whether
// the connection is still usable.
func (s *Server) writeBinaryJSON(bw *bufio.Writer, v any) bool {
	buf := getBuf()
	defer putBuf(buf)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		log.Printf("serve: binary response encode failed: %v", err)
		return s.writeBinaryError(bw, http.StatusInternalServerError, "response encoding failed")
	}
	var pfx [4]byte
	binary.LittleEndian.PutUint32(pfx[:], uint32(buf.Len()))
	if _, err := bw.Write(pfx[:]); err != nil {
		return false
	}
	_, err := bw.Write(buf.Bytes())
	return err == nil
}

// writeBinaryError frames the standard JSON error envelope (the same body
// the HTTP endpoints send) and counts the reject.
func (s *Server) writeBinaryError(bw *bufio.Writer, status int, msg string) bool {
	s.rejects.Add(1)
	var body errorEnvelope
	body.Error.Code = status
	body.Error.Message = msg
	buf := getBuf()
	defer putBuf(buf)
	if err := json.NewEncoder(buf).Encode(body); err != nil {
		log.Printf("serve: binary error envelope encode failed: %v", err)
		return false
	}
	var pfx [4]byte
	binary.LittleEndian.PutUint32(pfx[:], uint32(buf.Len()))
	if _, err := bw.Write(pfx[:]); err != nil {
		return false
	}
	_, err := bw.Write(buf.Bytes())
	return err == nil
}
