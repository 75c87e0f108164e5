package obs

import (
	"encoding/json"
	"errors"
	"io"
	"strconv"
	"sync"
)

// Ring is a bounded FIFO of the newest records: a learner's decision trace
// (TraceEvent) or a node's spans (Span). Memory is fixed by the capacity
// given at construction: the ring never grows, and once full each Add
// overwrites the oldest record and counts it as dropped. Safe for concurrent
// writers and readers.
type Ring[T any] struct {
	mu      sync.Mutex
	buf     []T
	next    int // index the next Add writes to
	n       int // records currently held
	dropped int64
}

// NewRing returns a ring holding at most capacity records (capacity < 1 is
// raised to 1).
func NewRing[T any](capacity int) *Ring[T] {
	return &Ring[T]{buf: make([]T, max(capacity, 1))}
}

// Add appends v, evicting the oldest record when full.
func (r *Ring[T]) Add(v T) {
	r.mu.Lock()
	if r.n == len(r.buf) {
		r.dropped++
	} else {
		r.n++
	}
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
	r.mu.Unlock()
}

// Len returns the number of retained records.
func (r *Ring[T]) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Dropped returns how many records have been evicted.
func (r *Ring[T]) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Last returns a copy of the newest n retained records in insertion order
// (oldest first, newest last). n <= 0, or more than are retained, returns
// every retained record.
func (r *Ring[T]) Last(n int) []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n <= 0 || n > r.n {
		n = r.n
	}
	out := make([]T, n)
	start := r.next - n
	if start < 0 {
		start += len(r.buf)
	}
	for i := range out {
		out[i] = r.buf[(start+i)%len(r.buf)]
	}
	return out
}

// WriteJSONL encodes vs as one JSON object per line — the
// /v1/streams/{id}/trace and `freeway -trace` format. A record that fails to encode is skipped and the
// first such error returned.
func WriteJSONL[T any](w io.Writer, vs []T) error {
	enc := json.NewEncoder(w)
	var firstErr error
	for _, v := range vs {
		if err := enc.Encode(v); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

var errLastN = errors.New("n must be a non-negative integer")

// ParseLastN reads the ?n=K parameter of a ring endpoint, the K for Last: an
// absent parameter ("") is 0, every retained record. Anything but a
// non-negative integer is an error whose text is the 400 message.
func ParseLastN(q string) (int, error) {
	if q == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(q)
	if err != nil || n < 0 {
		return 0, errLastN
	}
	return n, nil
}
