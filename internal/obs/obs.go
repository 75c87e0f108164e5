// Package obs is FreewayML's dependency-free observability core: atomic
// counters and gauges, fixed-bucket latency histograms with quantile
// estimation, a process-wide named registry with Prometheus text
// exposition, W3C-style trace context, and the records a node keeps of its
// recent past — per-batch decision traces and request spans, each in one
// generic bounded ring (Ring).
//
// The package uses only the standard library and is safe for concurrent
// use: the hot path (Counter.Inc, Gauge.Set, Histogram.Observe) is a
// handful of atomic operations, cheap enough to leave enabled in
// production serving — the overhead gate in internal/core's
// BenchmarkLearnerInstrumented holds the instrumented pipeline within
// noise of the uninstrumented one.
package obs

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing value (Prometheus counter).
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored — counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down (Prometheus gauge).
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram accumulates observations into fixed cumulative-style buckets
// (stored as per-bucket counts; exposition emits cumulative counts per the
// Prometheus text format) plus a running sum and count. The bucket bounds
// are upper-inclusive like Prometheus `le`.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; an implicit +Inf bucket follows
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 sum maintained by CAS
}

// DefLatencyBuckets spans 10µs to ~10s in roughly ×2.5 steps — wide enough
// for both the µs-scale kernel stages and second-scale window closes.
var DefLatencyBuckets = []float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	1e-1, 2.5e-1, 5e-1, 1, 2.5, 5, 10,
}

// NewHistogram builds a standalone (unregistered) histogram over the given
// ascending upper bounds; nil selects DefLatencyBuckets. Non-ascending
// bounds panic: bucket layout is a programming decision, not input.
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefLatencyBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	b := append([]float64(nil), bounds...)
	return &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value. NaN observations are dropped.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// snapshot returns per-bucket counts (len(bounds)+1 entries, last = +Inf
// overflow) and the total, read bucket-by-bucket without a global lock —
// exposition tolerates the skew of concurrent observers.
func (h *Histogram) snapshot() ([]int64, int64) {
	counts := make([]int64, len(h.buckets))
	var total int64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	return counts, total
}

// Quantile estimates the q-th quantile (0 < q < 1) by linear interpolation
// within the bucket that spans the target rank, the same estimate a
// Prometheus histogram_quantile produces. Values in the +Inf overflow
// bucket clamp to the highest finite bound. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	counts, total := h.snapshot()
	if total == 0 || math.IsNaN(q) {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range counts {
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i == len(h.bounds) { // +Inf bucket: clamp
			if len(h.bounds) == 0 {
				return 0
			}
			return h.bounds[len(h.bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.bounds[i]
		if c == 0 {
			return hi
		}
		prev := float64(cum - c)
		return lo + (hi-lo)*(rank-prev)/float64(c)
	}
	return h.bounds[len(h.bounds)-1]
}
