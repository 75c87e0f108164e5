package obs

import (
	"sort"
	"sync"
)

// Exemplar is one slow-request record: enough to find the full trace
// (TraceID → /v1/cluster/trace?id=) and to see at a glance why the request
// was slow (attempts, owner, stream).
type Exemplar struct {
	TraceID        string  `json:"trace_id"`
	Stream         string  `json:"stream,omitempty"`
	Owner          string  `json:"owner,omitempty"`
	Proto          string  `json:"proto,omitempty"`
	Attempts       int     `json:"attempts"`
	StartUnixNano  int64   `json:"start_unix_nano"`
	DurationMicros float64 `json:"duration_micros"`
}

// ExemplarRing keeps the top-K slowest requests seen so far by end-to-end
// latency. Offer is O(K) on the rare admit path and O(1) (one comparison
// under the lock) for the common fast request, so it can sit on the
// per-request path of a router.
type ExemplarRing struct {
	mu     sync.Mutex
	buf    []Exemplar // unordered
	minIdx int        // the fastest retained exemplar (the first, among ties)
	k      int
}

// NewExemplarRing returns a ring keeping the k slowest requests
// (k < 1 is raised to 1).
func NewExemplarRing(k int) *ExemplarRing {
	if k < 1 {
		k = 1
	}
	return &ExemplarRing{k: k}
}

// Offer records the request if it ranks among the K slowest so far.
func (r *ExemplarRing) Offer(e Exemplar) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buf) < r.k {
		r.buf = append(r.buf, e)
		if e.DurationMicros < r.buf[r.minIdx].DurationMicros {
			r.minIdx = len(r.buf) - 1
		}
		return
	}
	if e.DurationMicros <= r.buf[r.minIdx].DurationMicros {
		return
	}
	r.buf[r.minIdx] = e
	r.minIdx = 0
	for i := 1; i < len(r.buf); i++ {
		if r.buf[i].DurationMicros < r.buf[r.minIdx].DurationMicros {
			r.minIdx = i
		}
	}
}

// TopK returns the retained exemplars, slowest first.
func (r *ExemplarRing) TopK() []Exemplar {
	r.mu.Lock()
	out := make([]Exemplar, len(r.buf))
	copy(out, r.buf)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		return out[i].DurationMicros > out[j].DurationMicros
	})
	return out
}

// Len returns the number of retained exemplars.
func (r *ExemplarRing) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}
