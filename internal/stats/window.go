package stats

// SlidingWindow keeps the most recent capacity float64 observations in
// arrival order. It backs the shift detector's history of recent shift
// distances (the k batches compared in Eq. 8-10).
type SlidingWindow struct {
	buf   []float64
	head  int // index of the oldest element
	count int
}

// NewSlidingWindow returns a window holding at most capacity observations.
// It panics if capacity is not positive.
func NewSlidingWindow(capacity int) *SlidingWindow {
	if capacity <= 0 {
		panic("stats: SlidingWindow capacity must be positive")
	}
	return &SlidingWindow{buf: make([]float64, capacity)}
}

// Push appends x, evicting the oldest observation when full.
func (w *SlidingWindow) Push(x float64) {
	if w.count < len(w.buf) {
		w.buf[(w.head+w.count)%len(w.buf)] = x
		w.count++
		return
	}
	w.buf[w.head] = x
	w.head = (w.head + 1) % len(w.buf)
}

// Len returns the number of stored observations.
func (w *SlidingWindow) Len() int { return w.count }

// Cap returns the window capacity.
func (w *SlidingWindow) Cap() int { return len(w.buf) }

// NewestFirst returns the observations ordered newest to oldest, matching
// the indexing of Eq. 8 (d_{t-1}, d_{t-2}, …).
func (w *SlidingWindow) NewestFirst() []float64 {
	return w.AppendNewestFirst(make([]float64, 0, w.count))
}

// AppendNewestFirst appends the observations, newest to oldest, to dst and
// returns the extended slice: NewestFirst into storage the caller reuses.
func (w *SlidingWindow) AppendNewestFirst(dst []float64) []float64 {
	for i := 0; i < w.count; i++ {
		dst = append(dst, w.buf[(w.head+w.count-1-i)%len(w.buf)])
	}
	return dst
}

// OldestFirst returns the observations in arrival order.
func (w *SlidingWindow) OldestFirst() []float64 {
	out := make([]float64, w.count)
	for i := 0; i < w.count; i++ {
		out[i] = w.buf[(w.head+i)%len(w.buf)]
	}
	return out
}

// Reset discards all observations.
func (w *SlidingWindow) Reset() {
	w.head, w.count = 0, 0
}
