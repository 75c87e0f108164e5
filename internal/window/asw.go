// Package window implements FreewayML's adaptive streaming window (ASW,
// paper Sec. IV-B and Algorithm 1): the training-data structure behind the
// long-time-granularity model. Each stored batch carries a decay weight;
// when a new batch arrives, existing batches are decayed according to their
// shift-distance rank (closer distributions decay less) modulated by the
// window's disorder (Eq. 11), so the window tracks the live distribution at
// minimal cost.
package window

import (
	"errors"
	"math"
	"slices"

	"freewayml/internal/linalg"
	"freewayml/internal/stats"
)

// Config parametrizes an ASW.
type Config struct {
	// MaxBatches triggers a long-model update when the window holds this
	// many batches.
	MaxBatches int
	// MaxItems triggers an update when the window holds this many samples.
	MaxItems int
	// BaseDecay is the per-push weight multiplier for the closest batch at
	// zero disorder; farther batches and higher disorder decay faster.
	// Must be in (0, 1).
	BaseDecay float64
	// DisorderBoost scales how strongly normalized disorder accelerates
	// decay (decay exponent is (1+rankFrac)·(1+DisorderBoost·disorder)).
	DisorderBoost float64
	// MinWeight evicts batches whose weight decays below it.
	MinWeight float64
}

// DefaultConfig returns the window parameters used in the evaluation.
func DefaultConfig() Config {
	return Config{MaxBatches: 8, MaxItems: 16384, BaseDecay: 0.95, DisorderBoost: 1.0, MinWeight: 0.05}
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	switch {
	case c.MaxBatches < 1:
		return errors.New("window: MaxBatches must be >= 1")
	case c.MaxItems < 1:
		return errors.New("window: MaxItems must be >= 1")
	case c.BaseDecay <= 0 || c.BaseDecay >= 1:
		return errors.New("window: BaseDecay must be in (0, 1)")
	case c.DisorderBoost < 0:
		return errors.New("window: DisorderBoost must be >= 0")
	case c.MinWeight < 0 || c.MinWeight >= 1:
		return errors.New("window: MinWeight must be in [0, 1)")
	}
	return nil
}

// Entry is one batch held by the window: its rows are the tensor the window
// took (Take), its labels and centroid the window's own copies.
type Entry struct {
	X        *linalg.Tensor // the rows, back to back
	Y        []int          // one label per row
	Centroid linalg.Vector  // the batch's distribution representation (ȳ)
	Weight   float64        // decay weight in (0, 1]
	Seq      int            // arrival sequence number
}

// ASW is the adaptive streaming window. Not safe for concurrent use.
type ASW struct {
	cfg       Config
	entries   []Entry
	seq       int
	items     int
	disorder  float64 // normalized disorder from the last Push
	evictions int     // cumulative batches evicted by weight decay

	// Take's scratch, reused across pushes, and the storage of the entries
	// evicted or reset since, which the next pushes hand back in exchange for
	// their batches and copy their labels and centroids into.
	rs          []ranked
	rankOf, tau []int
	free        []Entry
	spare       *linalg.Tensor // what the last Push got back, for the next Push's rows
}

// ranked is one stored batch with its distance to the incoming batch.
type ranked struct {
	idx  int
	dist float64
}

// New returns an empty window.
func New(cfg Config) (*ASW, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &ASW{cfg: cfg}, nil
}

// Len returns the number of stored batches.
func (w *ASW) Len() int { return len(w.entries) }

// Items returns the total number of stored samples.
func (w *ASW) Items() int { return w.items }

// Disorder returns the normalized disorder (Eq. 11, scaled to [0, 1])
// computed during the most recent Push: the degree to which the
// shift-distance ranking of the stored batches disagrees with their time
// order. Low disorder indicates a directional drift (Pattern A1); high
// disorder indicates localized fluctuation (Pattern A2).
func (w *ASW) Disorder() float64 { return w.disorder }

// Evictions returns the cumulative count of batches evicted because their
// decay weight fell below MinWeight (not reset by Reset — it is a lifetime
// counter for observability).
func (w *ASW) Evictions() int { return w.evictions }

// Full reports whether the window has reached MaxBatches or MaxItems and a
// long-model update should run (Algorithm 1, line 3).
func (w *ASW) Full() bool {
	return len(w.entries) >= w.cfg.MaxBatches || w.items >= w.cfg.MaxItems
}

// Push is Take for a batch held as loose rows, all as wide as the first:
// they are copied into storage the window recycles, so the caller may reuse
// x, y and centroid once Push returns. Returns whether the window is full.
func (w *ASW) Push(x [][]float64, y []int, centroid linalg.Vector) (bool, error) {
	if len(x) == 0 {
		return false, errEmptyBatch
	}
	t := linalg.EnsureTensor(w.spare, len(x), len(x[0]))
	t.FromRows(x, len(x[0]))
	spare, full, err := w.Take(t, y, centroid)
	w.spare = spare
	return full, err
}

var errEmptyBatch = errors.New("window: batch must be non-empty with matching labels")

// Take ingests a batch with its distribution centroid, decaying existing
// entries per Algorithm 1: rank the stored batches by shift distance to the
// new batch, compute the ranking's disorder, then decay each batch by a
// rate that grows with its distance rank and with the disorder.
//
// The window keeps x itself, rows × width, with copies of y and centroid: x
// is the window's from now on, and nobody may write it again. In exchange the
// caller gets spare, the rows tensor of an entry the window no longer holds
// (nil when it has none), to use in x's place — so a window fed the batches a
// caller stages copies none of their rows. A refused batch is not kept: spare
// is x then. full reports whether the window is full after the push.
func (w *ASW) Take(x *linalg.Tensor, y []int, centroid linalg.Vector) (spare *linalg.Tensor, full bool, err error) {
	if x.Rows == 0 || x.Rows != len(y) {
		return x, false, errEmptyBatch
	}
	if centroid == nil {
		return x, false, errors.New("window: nil centroid")
	}
	if n := len(w.entries); n > 0 {
		// Rank stored batches by distance to the incoming batch.
		rs := w.rs[:0]
		for i, e := range w.entries {
			rs = append(rs, ranked{idx: i, dist: centroid.Distance(e.Centroid)})
		}
		// slices.SortFunc is sort.Slice's pdqsort without the boxed slice and
		// the reflect swapper sort.Slice allocates per call: given the same
		// "less", it makes the same comparisons and swaps, so ties (and NaN
		// distances) land where they always did.
		slices.SortFunc(rs, func(a, b ranked) int {
			switch {
			case a.dist < b.dist:
				return -1
			case b.dist < a.dist:
				return 1
			}
			return 0
		})

		// rankOf[i] is entry i's distance rank (0 = closest).
		rankOf := slices.Grow(w.rankOf[:0], n)[:n]
		for r, v := range rs {
			rankOf[v.idx] = r
		}

		// Disorder: compare the distance ranking against recency. τ (Eq. 11)
		// reads the ranks newest-first: under a directional drift the most
		// recent batch is the closest (rank 0), the next most recent rank 1,
		// and so on — an ascending sequence with zero inversions — while a
		// localized stream scrambles the ranks (Fig. 7).
		tau := w.tau[:0]
		for i := 0; i < n; i++ {
			tau = append(tau, rankOf[n-1-i])
		}
		w.disorder = stats.NormalizedDisorder(tau)
		w.rs, w.rankOf, w.tau = rs, rankOf, tau

		// Decay every entry: closer (low rank) → less decay; higher
		// disorder → more decay (localized data, update less urgent).
		kept := w.entries[:0]
		items := 0
		for i := range w.entries {
			e := w.entries[i]
			rankFrac := float64(rankOf[i]) / float64(n)
			exponent := (1 + rankFrac) * (1 + w.cfg.DisorderBoost*w.disorder)
			e.Weight *= math.Pow(w.cfg.BaseDecay, exponent)
			if e.Weight < w.cfg.MinWeight {
				w.evictions++
				w.free = append(w.free, e)
				continue // evicted
			}
			kept = append(kept, e)
			items += e.X.Rows
		}
		w.entries = kept
		w.items = items
	} else {
		w.disorder = 0
	}

	var e Entry
	if n := len(w.free); n > 0 {
		e, w.free = w.free[n-1], w.free[:n-1]
	}
	spare, e.X = e.X, x
	e.Y = append(e.Y[:0], y...)
	e.Centroid = append(e.Centroid[:0], centroid...)
	e.Weight, e.Seq = 1, w.seq
	w.entries = append(w.entries, e)
	w.seq++
	w.items += x.Rows
	return spare, w.Full(), nil
}

// Entries returns the stored batches, oldest first. The slice is shared;
// callers must not mutate it.
func (w *ASW) Entries() []Entry { return w.entries }

// TrainingSet gathers the window's weighted training set into x (samples ×
// width, its buffer reused) and the labels into y[:0], which it returns: each
// batch, oldest first, contributes its first ceil(weight·len) samples, so
// heavily decayed batches contribute proportionally less signal.
func (w *ASW) TrainingSet(x *linalg.Tensor, y []int) []int {
	take := func(e Entry) int { return min(int(math.Ceil(e.Weight*float64(e.X.Rows))), e.X.Rows) }
	total, width := 0, x.Cols
	for _, e := range w.entries {
		total, width = total+take(e), e.X.Cols
	}
	linalg.EnsureTensor(x, total, width)
	y = y[:0]
	for _, e := range w.entries {
		n := take(e)
		copy(x.Data[len(y)*width:], e.X.Data[:n*width])
		y = append(y, e.Y[:n]...)
	}
	return y
}

// Distribution returns the weight-averaged centroid of the window — the d_i
// stored with a preserved long-model snapshot. Returns nil for an empty
// window.
func (w *ASW) Distribution() linalg.Vector {
	if len(w.entries) == 0 {
		return nil
	}
	sum := linalg.NewVector(len(w.entries[0].Centroid))
	var total float64
	for _, e := range w.entries {
		// float64() keeps the product's own rounding: Scale then AddInPlace.
		for j, c := range e.Centroid {
			sum[j] += float64(c * e.Weight)
		}
		total += e.Weight
	}
	if total == 0 {
		return nil
	}
	sum.ScaleInPlace(1 / total)
	return sum
}

// Reset empties the window after a long-model update, preserving the
// sequence counter and the entries' array, cleared; the entries' storage goes
// to the next pushes.
func (w *ASW) Reset() {
	w.free = append(w.free, w.entries...)
	clear(w.entries[:cap(w.entries)])
	w.entries = w.entries[:0]
	w.items = 0
	w.disorder = 0
}
