package cluster

import (
	"errors"
	"fmt"

	"freewayml/internal/linalg"
)

// ExpBuffer is the coherent-experience buffer of paper Sec. V-A2: it holds
// the most recent labeled points for CEC, bounded by a capacity (the
// ExpBuffer interface parameter) and an expiration age measured in batches,
// after which stale experience is discarded.
type ExpBuffer struct {
	capacity int
	maxAge   int // in batches; 0 disables expiration

	// slab is the buffer's own copy of the points, capacity rows as wide as
	// the first point, oldest first, of which the points held are the first
	// len(y); view is Experience's window on them.
	slab  linalg.Tensor
	view  linalg.Tensor
	loose linalg.Tensor // AddBatch's rows, staged
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

// Add copies a labeled batch, rows × width, in (advancing the buffer clock
// by one batch), evicting expired then oldest points to stay within capacity:
// one contiguous copy of the rows that stay. The caller may reuse x and y once
// it returns.
func (b *ExpBuffer) Add(x *linalg.Tensor, y []int) error {
	if x.Rows != len(y) {
		return errors.New("cluster: ExpBuffer batch size mismatch")
	}
	// Of a batch larger than the buffer only the newest capacity rows would
	// outlive the eviction: the others are not copied in the first place.
	over := max(x.Rows-b.capacity, 0)
	if x.Rows > 0 {
		if err := b.reserve(x.Cols); err != nil {
			return err
		}
	}
	b.now++
	b.evict(x.Rows - over)
	copy(b.slab.Data[len(b.y)*b.slab.Cols:], x.Data[over*x.Cols:])
	for range x.Rows - over {
		b.birth = append(b.birth, b.now)
	}
	b.y = append(b.y, y[over:]...)
	return nil
}

// AddBatch is Add for a batch held as loose rows, all as wide as the first.
func (b *ExpBuffer) AddBatch(x [][]float64, y []int) error {
	cols := 0
	if len(x) > 0 {
		cols = len(x[0])
	}
	for _, row := range x {
		if len(row) != cols {
			return fmt.Errorf("cluster: ExpBuffer row width %d, want %d", len(row), cols)
		}
	}
	b.loose.FromRows(x, cols)
	return b.Add(&b.loose, y)
}

// reserve checks that incoming rows are as wide as the slab's, which takes
// their width while the buffer holds no point.
func (b *ExpBuffer) reserve(cols int) error {
	if len(b.y) == 0 && (b.slab.Data == nil || cols != b.slab.Cols) {
		linalg.EnsureTensor(&b.slab, b.capacity, cols)
	}
	if cols != b.slab.Cols {
		return fmt.Errorf("cluster: ExpBuffer row width %d, want %d", cols, b.slab.Cols)
	}
	return nil
}

// evict makes room for incoming new points: it drops the expired points, then
// the oldest until the rest and the incoming fit the capacity, and moves the
// survivors down the slab in place — a warm buffer allocates nothing.
func (b *ExpBuffer) evict(incoming int) {
	start := 0
	if b.maxAge > 0 {
		// A point is valid for maxAge batches after the batch it arrived in.
		for start < len(b.y) && b.now-b.birth[start] >= b.maxAge {
			start++
		}
	}
	if over := len(b.y) - start + incoming - b.capacity; over > 0 {
		start += over
	}
	if start > 0 {
		copy(b.slab.Data, b.slab.Data[start*b.slab.Cols:len(b.y)*b.slab.Cols])
		b.y = b.y[:copy(b.y, b.y[start:])]
		b.birth = b.birth[:copy(b.birth, b.birth[start:])]
	}
}

// Len returns the number of stored points.
func (b *ExpBuffer) Len() int { return len(b.y) }

// Experience returns the stored labeled points, oldest first: a view of the
// buffer's slab, one row per label. Both are the buffer's own: callers must
// not mutate them, and they are valid only until the next Add or Tick, which
// moves the survivors down in place.
func (b *ExpBuffer) Experience() (*linalg.Tensor, []int) {
	n := len(b.y)
	b.view = linalg.Tensor{Rows: n, Cols: b.slab.Cols, Data: b.slab.Data[: n*b.slab.Cols : n*b.slab.Cols]}
	return &b.view, b.y
}

// Tick advances the buffer clock without adding points (an unlabeled batch
// passed by), so expiration reflects stream time rather than label arrivals.
func (b *ExpBuffer) Tick() {
	b.now++
	b.evict(0)
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
	s.X = make([][]float64, len(b.y))
	for i := range s.X {
		s.X[i] = append([]float64(nil), b.slab.Row(i)...)
	}
	s.Y = append([]int(nil), b.y...)
	s.Birth = append([]int(nil), b.birth...)
	return s
}

// Check reports why Import would refuse s, or nil.
func (s ExpBufferState) Check() error {
	if len(s.X) != len(s.Y) || len(s.X) != len(s.Birth) {
		return errors.New("cluster: ExpBuffer import length mismatch")
	}
	for _, row := range s.X {
		if len(row) != len(s.X[0]) {
			return fmt.Errorf("cluster: ExpBuffer row width %d, want %d", len(row), len(s.X[0]))
		}
	}
	return nil
}

// Import replaces the buffer contents with an exported state. It checks s
// first (Check): a refused state leaves the buffer as it was.
func (b *ExpBuffer) Import(s ExpBufferState) error {
	if err := s.Check(); err != nil {
		return err
	}
	x, over := s.X, max(len(s.X)-b.capacity, 0)
	b.y, b.birth = b.y[:0], b.birth[:0]
	if len(x) > over {
		if err := b.reserve(len(x[0])); err != nil {
			return err
		}
	}
	for i, row := range x[over:] {
		copy(b.slab.Row(i), row)
	}
	b.y, b.birth = append(b.y, s.Y[over:]...), append(b.birth, s.Birth[over:]...)
	b.now = s.Now
	b.evict(0)
	return nil
}
