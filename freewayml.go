// Package freewayml is an adaptive and stable streaming machine-learning
// framework — a from-scratch Go reproduction of "FreewayML: An Adaptive and
// Stable Streaming Learning Framework for Dynamic Data Streams" (ICDE 2025).
//
// FreewayML classifies every incoming mini-batch into one of three data
// distribution shift patterns and dispatches one adaptive mechanism per
// batch:
//
//   - slight shifts   → multi-time-granularity models fused by a
//     Gaussian-kernel distance ensemble,
//   - sudden shifts   → coherent experience clustering (k-means guided by
//     the most recent labeled points),
//   - reoccurring shifts → historical knowledge reuse (a store of
//     (distribution, model-snapshot) pairs matched by distance).
//
// Quick start:
//
//	learner, err := freewayml.New(freewayml.DefaultConfig(), dim, classes)
//	if err != nil { ... }
//	defer learner.Close()
//	for batch := range batches {
//	    res, err := learner.ProcessBatch(batch.X, batch.Y)
//	    // res.Predictions, res.Pattern, res.Strategy, res.Accuracy
//	}
//
// The package also ships the paper's dataset simulators (OpenDataset) and
// the prequential metrics (Stats) used throughout its evaluation. A learner
// keeps those metrics as a fixed-size summary — counts, G_acc's running sum
// and SI's running variance — so its memory and its checkpoint do not grow
// with the stream's age; each batch's own accuracy is in its Result, for a
// caller that wants the series.
package freewayml

import (
	"context"
	"fmt"
	"io"

	"freewayml/internal/core"
	"freewayml/internal/datasets"
	"freewayml/internal/guard"
	"freewayml/internal/stream"
)

// Config configures a Learner. It mirrors the paper's published interface:
// Learner(Model=model, ModelNum=2, MiniBatch=1024, KdgBuffer=20,
// ExpBuffer=10, α=1.96).
type Config struct {
	// Model selects the streaming model family: "lr", "mlp", "cnn3", "cnn5".
	Model string
	// ModelNum is the number of time-granularity models (>= 2).
	ModelNum int
	// KdgBuffer bounds the historical knowledge store (entries).
	KdgBuffer int
	// ExpBuffer bounds the coherent-experience buffer (labeled points).
	ExpBuffer int
	// Alpha is the shift-severity threshold α (1.96 in the paper).
	Alpha float64
	// Beta is the disorder threshold β of the knowledge-preservation policy.
	Beta float64
	// LearningRate, Momentum and HiddenUnits set the SGD hyperparameters.
	LearningRate float64
	Momentum     float64
	HiddenUnits  int
	// Seed drives every stochastic component for reproducibility.
	Seed int64
	// SpillDir, when set, receives knowledge snapshots spilled from memory.
	SpillDir string
	// GuardPolicy picks what happens to NaN/Inf feature values: "reject"
	// (refuse the batch, the default), "clamp" (replace with finite bounds),
	// or "impute" (replace with running per-feature means).
	GuardPolicy string
	// DisableWatchdog turns off the divergence watchdog that rolls a model
	// back to its last healthy snapshot when training diverges.
	DisableWatchdog bool
}

// DefaultConfig returns the paper's defaults.
func DefaultConfig() Config {
	c := core.DefaultConfig()
	return Config{
		Model:        c.ModelFamily,
		ModelNum:     c.ModelNum,
		KdgBuffer:    c.KdgBuffer,
		ExpBuffer:    c.ExpBufferPoints,
		Alpha:        c.Alpha,
		Beta:         c.Beta,
		LearningRate: c.Hyper.LR,
		Momentum:     c.Hyper.Momentum,
		HiddenUnits:  c.Hyper.Hidden,
		Seed:         c.Seed,
		GuardPolicy:  c.Guard.String(),
	}
}

func (c Config) toCore() (core.Config, error) {
	cc := core.DefaultConfig()
	cc.ModelFamily = c.Model
	cc.ModelNum = c.ModelNum
	cc.KdgBuffer = c.KdgBuffer
	cc.ExpBufferPoints = c.ExpBuffer
	cc.Alpha = c.Alpha
	cc.Beta = c.Beta
	cc.Hyper.LR = c.LearningRate
	cc.Hyper.Momentum = c.Momentum
	cc.Hyper.Hidden = c.HiddenUnits
	cc.Hyper.Seed = c.Seed
	cc.Seed = c.Seed
	cc.SpillDir = c.SpillDir
	pol, err := guard.ParsePolicy(c.GuardPolicy)
	if err != nil {
		return core.Config{}, err
	}
	cc.Guard = pol
	cc.Watchdog.Disabled = c.DisableWatchdog
	return cc, nil
}

// Result reports what the learner decided about one batch.
type Result struct {
	// Predictions holds the predicted class per sample.
	Predictions []int
	// Pattern names the detected shift pattern ("warmup", "A(slight)",
	// "A1(directional)", "A2(localized)", "B(sudden)", "C(reoccurring)").
	Pattern string
	// Strategy names the mechanism used ("warmup", "multi-granularity",
	// "coherent-experience-clustering", "knowledge-reuse").
	Strategy string
	// ShiftDistance is d_t, the distance from the previous batch's
	// distribution; Severity is the weighted z-score M.
	ShiftDistance float64
	Severity      float64
	// Accuracy is the batch's real-time accuracy when labels were given,
	// else -1.
	Accuracy float64
}

// Learner is a FreewayML instance bound to a fixed feature dimensionality
// and class count.
type Learner struct {
	inner *core.Learner
	seq   int
}

// New builds a Learner for streams with dim features and the given number
// of classes.
func New(cfg Config, dim, classes int) (*Learner, error) {
	if dim < 1 || classes < 2 {
		return nil, fmt.Errorf("freewayml: need dim >= 1 and classes >= 2, got %d/%d", dim, classes)
	}
	cc, err := cfg.toCore()
	if err != nil {
		return nil, err
	}
	inner, err := core.NewLearner(cc, dim, classes)
	if err != nil {
		return nil, err
	}
	return &Learner{inner: inner}, nil
}

// ProcessBatch runs the prequential step on one mini-batch: predict first,
// then (when y is non-nil) incrementally train. x is row-major samples; y,
// when given, must have one label per row. The learner copies what it keeps,
// so x and y may be reused once ProcessBatch returns.
func (l *Learner) ProcessBatch(x [][]float64, y []int) (Result, error) {
	return l.ProcessBatchContext(context.Background(), x, y)
}

// ProcessBatchContext is ProcessBatch with a cancellation context: a batch
// whose context is already done is refused before any model state changes.
func (l *Learner) ProcessBatchContext(ctx context.Context, x [][]float64, y []int) (Result, error) {
	b := stream.Batch{Seq: l.seq, X: x, Y: y}
	l.seq++
	res, err := l.inner.Process(ctx, b)
	if err != nil {
		return Result{}, err
	}
	pattern := res.Pattern
	if res.Pattern.IsSlight() {
		pattern = res.SubPattern
	}
	return Result{
		Predictions:   res.Pred,
		Pattern:       pattern.String(),
		Strategy:      res.Strategy.String(),
		ShiftDistance: res.Observation.Distance,
		Severity:      res.Observation.Severity,
		Accuracy:      res.Accuracy,
	}, nil
}

// Stats summarizes the learner's prequential performance so far.
type Stats struct {
	// Batches and Samples evaluated with labels.
	Batches, Samples int
	// GAcc is the global average accuracy (Eq. 15).
	GAcc float64
	// SI is the stability index (Eq. 16), in (0, 1], higher is more stable.
	SI float64
	// KnowledgeEntries and KnowledgeBytes describe the historical store.
	KnowledgeEntries int
	KnowledgeBytes   int

	// Robustness counters from the fault-tolerance layer.
	//
	// SanitizedValues counts NaN/Inf feature values repaired by the guard,
	// RejectedBatches counts batches refused under the "reject" policy,
	// Divergences counts watchdog-detected training divergences and
	// Recoveries the rollbacks that fixed them, KnowledgeSkipped counts
	// corrupt knowledge entries dropped during a restore, and SpillFailures
	// counts knowledge-store disk operations that failed (degraded, never
	// fatal).
	SanitizedValues  int
	RejectedBatches  int
	Divergences      int
	Recoveries       int
	KnowledgeSkipped int
	SpillFailures    int
}

// Stats returns the accumulated prequential metrics.
func (l *Learner) Stats() Stats {
	m := l.inner.Metrics()
	h := l.inner.Stats()
	return Stats{
		Batches:          m.Batches(),
		Samples:          m.Samples(),
		GAcc:             m.GAcc(),
		SI:               m.SI(),
		KnowledgeEntries: l.inner.KnowledgeStore().Len(),
		KnowledgeBytes:   l.inner.KnowledgeStore().MemoryBytes(),

		SanitizedValues:  h.SanitizedValues,
		RejectedBatches:  h.RejectedBatches,
		Divergences:      h.Divergences,
		Recoveries:       h.Recoveries,
		KnowledgeSkipped: h.KnowledgeSkipped,
		SpillFailures:    h.SpillFailures + h.SpillLoadFailures,
	}
}

// Close ends the stream: later ProcessBatch calls fail. Every update ran
// inside the ProcessBatch call that triggered it, so there is nothing to
// flush and Close returns nil. Calling it again is harmless.
func (l *Learner) Close() error { return l.inner.Close() }

// Save writes the learner's durable state — model parameters, the shift
// detector's PCA space and history, the knowledge store, and the coherent
// experience — so a deployed stream can stop and later resume with
// identical behaviour via Load.
func (l *Learner) Save(w io.Writer) error { return l.inner.SaveCheckpoint(w) }

// Load restores state written by Save into a learner built with the same
// configuration and stream shape. Corrupt input (truncated, bit-flipped,
// or not a checkpoint) is detected before any state is touched, so a failed
// Load leaves the learner exactly as it was.
func (l *Learner) Load(r io.Reader) error { return l.inner.LoadCheckpoint(r) }

// SaveFile atomically checkpoints the learner to path (temp file + fsync +
// rename): a crash mid-save leaves either the previous checkpoint or the
// new one, never a torn file.
func (l *Learner) SaveFile(path string) error { return l.inner.SaveCheckpointFile(path) }

// LoadFile restores a checkpoint written by SaveFile.
func (l *Learner) LoadFile(path string) error { return l.inner.LoadCheckpointFile(path) }

// Batch is one mini-batch from a Stream.
type Batch struct {
	X     [][]float64
	Y     []int
	Drift string // ground-truth drift kind: "none", "slight", "sudden", "reoccurring"
}

// Stream is a dataset source opened with OpenDataset.
type Stream struct {
	src stream.Source
}

// OpenDataset opens one of the built-in dataset simulators by name
// (Datasets lists them) with the given batch size and random seed.
func OpenDataset(name string, batchSize int, seed int64) (*Stream, error) {
	src, err := datasets.Build(name, batchSize, seed)
	if err != nil {
		return nil, err
	}
	return &Stream{src: src}, nil
}

// Datasets lists the available dataset names.
func Datasets() []string { return datasets.Names() }

// Name returns the dataset name; Dim and Classes its shape.
func (s *Stream) Name() string { return s.src.Name() }

// Dim returns the feature dimensionality.
func (s *Stream) Dim() int { return s.src.Dim() }

// Classes returns the number of labels.
func (s *Stream) Classes() int { return s.src.Classes() }

// Next returns the next batch, or ok=false at end of stream.
func (s *Stream) Next() (Batch, bool) {
	b, ok := s.src.Next()
	if !ok {
		return Batch{}, false
	}
	return Batch{X: b.X, Y: b.Y, Drift: b.Truth.String()}, true
}
