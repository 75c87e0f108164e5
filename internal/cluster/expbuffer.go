package cluster

import "errors"

// ExpBuffer is the coherent-experience buffer of paper Sec. V-A2: it holds
// the most recent labeled points for CEC, bounded by a capacity (the
// ExpBuffer interface parameter) and an expiration age measured in batches,
// after which stale experience is discarded.
type ExpBuffer struct {
	capacity int
	maxAge   int // in batches; 0 disables expiration

	x     [][]float64
	y     []int
	birth []int // batch index at which each point was added
	now   int
}

// NewExpBuffer returns a buffer holding at most capacity labeled points,
// expiring points older than maxAge batches (maxAge 0 disables expiration).
func NewExpBuffer(capacity, maxAge int) (*ExpBuffer, error) {
	if capacity < 1 {
		return nil, errors.New("cluster: ExpBuffer capacity must be >= 1")
	}
	if maxAge < 0 {
		return nil, errors.New("cluster: ExpBuffer maxAge must be >= 0")
	}
	return &ExpBuffer{capacity: capacity, maxAge: maxAge}, nil
}

// AddBatch appends a labeled batch (advancing the buffer clock by one
// batch), evicting expired then oldest points to stay within capacity.
func (b *ExpBuffer) AddBatch(x [][]float64, y []int) error {
	if len(x) != len(y) {
		return errors.New("cluster: ExpBuffer batch size mismatch")
	}
	b.now++
	// Of a batch larger than the buffer only the newest capacity rows outlive
	// the eviction below: the others are not appended in the first place.
	if over := len(x) - b.capacity; over > 0 {
		x, y = x[over:], y[over:]
	}
	b.x = append(b.x, x...)
	b.y = append(b.y, y...)
	for range x {
		b.birth = append(b.birth, b.now)
	}
	b.evict()
	return nil
}

// evict drops expired points, then trims from the front to capacity. The
// survivors are copied down in place — a warm buffer at capacity allocates
// nothing — and the vacated row headers are cleared so evicted rows are not
// pinned.
func (b *ExpBuffer) evict() {
	start := 0
	if b.maxAge > 0 {
		// A point is valid for maxAge batches after the batch it arrived in.
		for start < len(b.x) && b.now-b.birth[start] >= b.maxAge {
			start++
		}
	}
	if over := len(b.x) - start - b.capacity; over > 0 {
		start += over
	}
	if start > 0 {
		n := copy(b.x, b.x[start:])
		clear(b.x[n:])
		b.x = b.x[:n]
		b.y = b.y[:copy(b.y, b.y[start:])]
		b.birth = b.birth[:copy(b.birth, b.birth[start:])]
	}
}

// Len returns the number of stored points.
func (b *ExpBuffer) Len() int { return len(b.x) }

// Experience returns the stored labeled points, oldest first. The slices
// are the buffer's own: callers must not mutate them, and they are valid only
// until the next AddBatch or Tick, which moves the survivors down in place.
func (b *ExpBuffer) Experience() ([][]float64, []int) { return b.x, b.y }

// Tick advances the buffer clock without adding points (an unlabeled batch
// passed by), so expiration reflects stream time rather than label arrivals.
func (b *ExpBuffer) Tick() {
	b.now++
	b.evict()
}

// ExpBufferState is the serializable form of an ExpBuffer.
type ExpBufferState struct {
	X     [][]float64
	Y     []int
	Birth []int
	Now   int
}

// Export returns the buffer contents for checkpointing.
func (b *ExpBuffer) Export() ExpBufferState {
	s := ExpBufferState{Now: b.now}
	s.X = make([][]float64, len(b.x))
	for i, row := range b.x {
		s.X[i] = append([]float64(nil), row...)
	}
	s.Y = append([]int(nil), b.y...)
	s.Birth = append([]int(nil), b.birth...)
	return s
}

// Import replaces the buffer contents with an exported state.
func (b *ExpBuffer) Import(s ExpBufferState) error {
	if len(s.X) != len(s.Y) || len(s.X) != len(s.Birth) {
		return errors.New("cluster: ExpBuffer import length mismatch")
	}
	b.x = make([][]float64, len(s.X))
	for i, row := range s.X {
		b.x[i] = append([]float64(nil), row...)
	}
	b.y = append([]int(nil), s.Y...)
	b.birth = append([]int(nil), s.Birth...)
	b.now = s.Now
	b.evict()
	return nil
}
