package shift

import (
	"errors"
	"fmt"
	"math"

	"freewayml/internal/linalg"
	"freewayml/internal/pca"
	"freewayml/internal/stats"
)

// Config parametrizes the shift Detector. The zero value is not usable; use
// DefaultConfig as a starting point.
type Config struct {
	// WarmupPoints is n in Eq. 2-5: how many raw points to accumulate before
	// fitting the PCA model. Until then every batch classifies as warmup.
	WarmupPoints int
	// ProjectionDim is d, the number of PCA components (2 in the paper's
	// shift-graph study).
	ProjectionDim int
	// HistoryK is k in Eq. 8-10: how many recent shift distances the
	// severity statistics are computed over.
	HistoryK int
	// Alpha is the severity threshold α (1.96 in the paper): a batch with
	// |M| > α is a severe shift.
	Alpha float64
	// WeightDecay is the per-step geometric decay of the recency weights wᵢ
	// in Eq. 8 (1 gives uniform weights).
	WeightDecay float64
	// CentroidHistory bounds how many past batch centroids are retained for
	// the nearest-history distance d_h.
	CentroidHistory int
	// RecentExclusion excludes the most recent batches from the d_h search:
	// the "previously occurred" distribution of Pattern C must be an older
	// one, not the batch we just shifted away from.
	RecentExclusion int
	// MinSeverityHistory is the minimum number of recorded shift distances
	// before severity classification starts; with fewer, batches classify
	// as PatternA (no evidence of a severe shift yet).
	MinSeverityHistory int
	// MinSevereRatio requires a severe shift to also be material: d_t must
	// exceed MinSevereRatio × μ_d. The paper's pure z-score test (Eq. 10)
	// flags statistically significant but physically tiny fluctuations on
	// near-stationary streams where σ_d is minuscule; this guard suppresses
	// them. Set to 0 to recover the paper's exact rule.
	MinSevereRatio float64
	// ReoccurRatio strengthens the Pattern C condition: the paper requires
	// d_h < d_t, which degenerates when the stream jumps to novel territory
	// equidistant from everything (d_h ≈ d_t, with ties broken by noise).
	// Here Pattern C requires d_h < ReoccurRatio × d_t, i.e. the matched
	// historical distribution must be meaningfully closer than the batch we
	// just left. Set to 1 to recover the paper's exact rule.
	ReoccurRatio float64
}

// DefaultConfig mirrors the paper's experimental setup: α = 1.96, severity
// judged against the last 20 shifts with mild recency weighting. The
// projection keeps 3 components: the paper's shift graph uses 2 for
// visualization, but detection benefits from one more — a shift orthogonal
// to the top warm-up components is otherwise invisible — while additional
// noise-dominated components dilute the distance signal.
func DefaultConfig() Config {
	return Config{
		WarmupPoints:       2048,
		ProjectionDim:      3,
		HistoryK:           20,
		Alpha:              1.96,
		WeightDecay:        0.95,
		CentroidHistory:    512,
		RecentExclusion:    5,
		MinSeverityHistory: 5,
		MinSevereRatio:     2.5,
		ReoccurRatio:       0.5,
	}
}

// Validate reports the first invalid field of the config.
func (c Config) Validate() error {
	switch {
	case c.WarmupPoints < 1:
		return errors.New("shift: WarmupPoints must be >= 1")
	case c.ProjectionDim < 1:
		return errors.New("shift: ProjectionDim must be >= 1")
	case c.HistoryK < 1:
		return errors.New("shift: HistoryK must be >= 1")
	case c.Alpha <= 0:
		return errors.New("shift: Alpha must be > 0")
	case c.WeightDecay <= 0 || c.WeightDecay > 1:
		return errors.New("shift: WeightDecay must be in (0, 1]")
	case c.CentroidHistory < 1:
		return errors.New("shift: CentroidHistory must be >= 1")
	case c.RecentExclusion < 0:
		return errors.New("shift: RecentExclusion must be >= 0")
	case c.MinSeverityHistory < 1:
		return errors.New("shift: MinSeverityHistory must be >= 1")
	case c.MinSevereRatio < 0:
		return errors.New("shift: MinSevereRatio must be >= 0")
	case c.ReoccurRatio <= 0 || c.ReoccurRatio > 1:
		return errors.New("shift: ReoccurRatio must be in (0, 1]")
	}
	return nil
}

// Observation is the detector's verdict for one batch.
type Observation struct {
	// Batch is the 0-based index of the batch within the stream.
	Batch int
	// YBar is ȳ_t, the PCA projection of the batch mean (nil during warmup).
	YBar linalg.Vector
	// Distance is d_t (Eq. 7), the shift distance from the previous batch.
	Distance float64
	// Severity is M (Eq. 10), the weighted z-score of Distance.
	Severity float64
	// HistoryMean is μ_d (Eq. 8), the weighted mean of recent shift
	// distances the severity was judged against (0 during early batches).
	HistoryMean float64
	// NearestHistory is d_h: the distance from ȳ_t to the nearest retained
	// older centroid (+Inf when no eligible history exists).
	NearestHistory float64
	// NearestHistoryIndex is the batch index of that nearest older centroid
	// (-1 when none exists).
	NearestHistoryIndex int
	// Pattern is the classification: Warmup, A, B, or C. A1/A2 refinement
	// happens later with the ASW's disorder (SubClassifyA).
	Pattern Pattern
}

// Detector ingests one batch mean at a time and classifies the stream's
// shift pattern. It is not safe for concurrent use; FreewayML's pipeline
// owns one detector per stream.
type Detector struct {
	cfg Config

	warmup    linalg.Tensor // the warm-up batches' rows, the detector's own copy
	model     *pca.Model
	prev      linalg.Vector // ȳ_{t-1}
	distances *stats.SlidingWindow
	weights   []float64

	centroids []centroid // ring buffer of past ȳ: oldest first from head, wrapping
	head      int        // the oldest centroid's index
	batch     int

	// Per-batch scratch: Observe's batch mean and staged points, and the
	// history of recent distances, newest first, that the severity
	// statistics read.
	mean   linalg.Vector
	staged linalg.Tensor
	hist   []float64
}

type centroid struct {
	y     linalg.Vector
	batch int
}

// NewDetector returns a detector with the given config.
func NewDetector(cfg Config) (*Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Detector{
		cfg:       cfg,
		distances: stats.NewSlidingWindow(cfg.HistoryK),
		weights:   stats.RecencyWeights(cfg.HistoryK, cfg.WeightDecay),
	}, nil
}

// Ready reports whether the PCA warm-up has completed.
func (d *Detector) Ready() bool { return d.model != nil }

// PCA returns the fitted PCA model, or nil during warm-up. The coherent
// experience clustering path reuses it to cluster in the reduced space.
func (d *Detector) PCA() *pca.Model { return d.model }

// Observe ingests the raw points of the next batch and returns the shift
// observation for it: ObserveMean over the points staged in the detector's
// scratch, with their linalg.Mean.
func (d *Detector) Observe(points []linalg.Vector) (Observation, error) {
	mean, _ := linalg.MeanInto(d.mean, points)
	if mean == nil { // empty or ragged points, which ObserveMean refuses
		return d.ObserveMean(&linalg.Tensor{}, nil)
	}
	d.mean = mean
	x := &d.staged
	x.Rows, x.Cols, x.Data = len(points), len(mean), x.Data[:0]
	for _, p := range points {
		x.Data = append(x.Data, p...)
	}
	return d.ObserveMean(x, mean)
}

// ObserveMean ingests the next batch — x, its rows staged as one slab, and
// their column mean, which the caller has taken with linalg.Mean's bits (the
// learner: linalg.Tensor.MeanRowsInto) — and returns the shift observation
// for it. During warm-up it copies the rows into its own warm-up set, which
// the PCA fit reads, and returns a PatternWarmup observation; once the
// projection exists only the mean is read. The detector keeps neither
// argument.
func (d *Detector) ObserveMean(x *linalg.Tensor, mean linalg.Vector) (Observation, error) {
	obs := Observation{Batch: d.batch, Pattern: PatternWarmup, NearestHistory: math.Inf(1), NearestHistoryIndex: -1}
	defer func() { d.batch++ }()

	if x.Rows == 0 {
		return obs, errors.New("shift: empty batch")
	}
	if len(mean) != x.Cols {
		return obs, fmt.Errorf("shift: batch mean has %d features, rows %d: %w", len(mean), x.Cols, linalg.ErrDimensionMismatch)
	}
	if d.model == nil {
		w := &d.warmup
		if w.Data == nil {
			w.Data = make([]float64, 0, max(d.cfg.WarmupPoints, x.Rows)*x.Cols)
		}
		w.Data = append(w.Data, x.Data...)
		w.Rows, w.Cols = w.Rows+x.Rows, x.Cols
		if w.Rows < d.cfg.WarmupPoints {
			return obs, nil
		}
		points := make([]linalg.Vector, w.Rows)
		for i := range points {
			points[i] = w.Row(i)
		}
		m, err := pca.Fit(points, min(d.cfg.ProjectionDim, w.Cols))
		if err != nil {
			return obs, fmt.Errorf("shift: PCA warm-up fit: %w", err)
		}
		d.model = m
		d.warmup = linalg.Tensor{}
		// The warm-up block itself becomes the first reference centroid.
	}

	y, err := d.model.ProjectMean(mean)
	if err != nil {
		return obs, err
	}
	obs.YBar = y

	if d.prev == nil {
		// First projected batch: no previous centroid, no distance yet.
		d.prev = y
		d.pushCentroid(y)
		obs.Pattern = PatternA
		return obs, nil
	}

	dt := y.Distance(d.prev) // Eq. 7
	obs.Distance = dt

	d.hist = d.distances.AppendNewestFirst(d.hist[:0])
	hist := d.hist
	material := true
	if len(hist) >= d.cfg.MinSeverityHistory {
		mu, err := stats.WeightedMean(hist, d.weights[:len(hist)])
		if err != nil {
			return obs, err
		}
		sigma, err := stats.StdDevAround(hist, mu)
		if err != nil {
			return obs, err
		}
		obs.Severity = stats.ZScore(dt, mu, sigma)
		obs.HistoryMean = mu
		material = dt > d.cfg.MinSevereRatio*mu
	}

	dh, hIdx := d.nearestHistory(y)
	obs.NearestHistory = dh
	obs.NearestHistoryIndex = hIdx

	severe := obs.Severity > d.cfg.Alpha && material
	switch {
	case severe && dh < d.cfg.ReoccurRatio*dt:
		obs.Pattern = PatternC
	case severe:
		obs.Pattern = PatternB
	default:
		obs.Pattern = PatternA
	}

	d.distances.Push(dt)
	d.prev = y
	d.pushCentroid(y)
	return obs, nil
}

// nearestHistory returns the distance to — and the batch index of — the
// nearest retained centroid, oldest first, excluding the cfg.RecentExclusion
// most recent ones (the current neighborhood, which would make every severe
// shift look reoccurring). A centroid wins on the strict < of its rooted
// distance, the first of equals; it is rooted only if its squared distance is
// below the best one's square, since a square at or above that cannot root
// to less (a correctly rounded square root is monotone).
func (d *Detector) nearestHistory(y linalg.Vector) (float64, int) {
	best, bestSq, bestIdx := math.Inf(1), math.Inf(1), -1
	eligible := len(d.centroids) - d.cfg.RecentExclusion
	for _, seg := range [2][]centroid{d.centroids[d.head:], d.centroids[:d.head]} {
		seg = seg[:max(0, min(eligible, len(seg)))]
		eligible -= len(seg)
		for i := range seg {
			// linalg.Vector.Distance's sum, before its root: every retained
			// centroid is y's width.
			var sq float64
			for j, v := range seg[i].y[:len(y)] {
				d := y[j] - v
				sq += d * d
			}
			if sq < bestSq {
				if dist := math.Sqrt(sq); dist < best {
					best, bestSq, bestIdx = dist, sq, seg[i].batch
				}
			}
		}
	}
	return best, bestIdx
}

// pushCentroid retains a copy of y as the newest centroid. Once the history
// is full it takes the oldest one's place and reuses its vector.
func (d *Detector) pushCentroid(y linalg.Vector) {
	if len(d.centroids) < d.cfg.CentroidHistory {
		d.centroids = append(d.centroids, centroid{y: y.Clone(), batch: d.batch})
		return
	}
	c := &d.centroids[d.head]
	c.y, c.batch = append(c.y[:0], y...), d.batch
	d.head = (d.head + 1) % len(d.centroids)
}

// history returns the retained centroids, oldest first.
func (d *Detector) history() []centroid {
	return append(d.centroids[d.head:len(d.centroids):len(d.centroids)], d.centroids[:d.head]...)
}

// HistoryDistances returns a copy of the recent shift distances, newest
// first (the dᵢ of Eq. 8).
func (d *Detector) HistoryDistances() []float64 { return d.distances.NewestFirst() }
