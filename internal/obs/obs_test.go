package obs

import (
	"math"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatalf("zero counter = %d", c.Value())
	}
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters only go up
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
}

func TestGaugeBasics(t *testing.T) {
	var g Gauge
	if g.Value() != 0 {
		t.Fatalf("zero gauge = %v", g.Value())
	}
	g.Set(3.5)
	if g.Value() != 3.5 {
		t.Errorf("gauge = %v", g.Value())
	}
	g.Set(-1)
	if g.Value() != -1 {
		t.Errorf("gauge = %v", g.Value())
	}
}

func TestHistogramCountsAndSum(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 50, 500, math.NaN()} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Errorf("count = %d, want 4 (NaN dropped)", h.Count())
	}
	if got := h.Sum(); math.Abs(got-555.5) > 1e-9 {
		t.Errorf("sum = %v, want 555.5", got)
	}
	counts, total := h.snapshot()
	want := []int64{1, 1, 1, 1}
	if total != 4 {
		t.Errorf("total = %d", total)
	}
	for i, w := range want {
		if counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, counts[i], w)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram([]float64{10, 20, 30, 40})
	// 100 uniform observations over (0, 40]: quantiles interpolate to ~40q.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * 0.4)
	}
	for _, tc := range []struct{ q, want, tol float64 }{
		{0.5, 20, 1},
		{0.95, 38, 1},
		{0.99, 39.6, 1},
	} {
		if got := h.Quantile(tc.q); math.Abs(got-tc.want) > tc.tol {
			t.Errorf("Quantile(%v) = %v, want ~%v", tc.q, got, tc.want)
		}
	}
	if NewHistogram(nil).Quantile(0.5) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
	// Overflow observations clamp to the top finite bound.
	h2 := NewHistogram([]float64{1, 2})
	h2.Observe(1000)
	if got := h2.Quantile(0.5); got != 2 {
		t.Errorf("overflow quantile = %v, want clamp to 2", got)
	}
}

func TestHistogramBadBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-ascending bounds should panic")
		}
	}()
	NewHistogram([]float64{1, 1})
}

func TestRegistryIdempotentAndTyped(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x_total", "help", "k", "v")
	c2 := r.Counter("x_total", "other help", "k", "v")
	if c1 != c2 {
		t.Error("same name+labels should return the same counter")
	}
	c3 := r.Counter("x_total", "", "k", "w")
	if c1 == c3 {
		t.Error("different labels should return a different series")
	}
	if n := r.NumSeries(); n != 2 {
		t.Errorf("NumSeries = %d, want 2", n)
	}
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge should panic")
		}
	}()
	r.Gauge("x_total", "")
}

func TestConcurrentMetricUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h_seconds", "", nil)
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Errorf("counter = %d, want %d", c.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*per)
	}
	if s := h.Sum(); math.Abs(s-workers*per*0.001) > 1e-6 {
		t.Errorf("histogram sum = %v", s)
	}
}
