// Package core implements the FreewayML learner itself (paper Sec. IV-V):
// the strategy selector that classifies every batch's shift pattern and
// dispatches exactly one of the three adaptive mechanisms for inference —
// multi-time-granularity ensemble (slight shifts), coherent experience
// clustering (sudden shifts), or historical knowledge reuse (reoccurring
// shifts) — while the training path always updates every granularity model
// per its own schedule.
package core

import (
	"errors"

	"freewayml/internal/guard"
	"freewayml/internal/model"
	"freewayml/internal/shift"
	"freewayml/internal/strategy"
	"freewayml/internal/window"
)

// Config mirrors the paper's Learner interface
// (Model, ModelNum, MiniBatch, KdgBuffer, ExpBuffer, α) plus the knobs of
// the underlying substrates.
type Config struct {
	// ModelFamily selects the streaming model: "lr", "mlp", "cnn3", "cnn5".
	ModelFamily string
	// Hyper sets the SGD hyperparameters of every granularity model.
	Hyper model.Hyper
	// ModelNum is the number of time-granularity models (>= 2): model 0
	// updates every batch, models 1..N-2 at geometrically longer fixed
	// frequencies, and model N-1 over the adaptive streaming window.
	ModelNum int
	// KdgBuffer bounds the historical-knowledge store (entries).
	KdgBuffer int
	// ExpBufferPoints bounds the coherent-experience buffer (labeled
	// points); ExpBufferAge expires experience older than that many batches.
	ExpBufferPoints int
	ExpBufferAge    int
	// Alpha is the severity threshold α of the pattern classifier.
	Alpha float64
	// Beta is the disorder threshold β of the knowledge-preservation policy.
	Beta float64
	// Sigma is the Gaussian-kernel width of the distance ensemble (Eq. 14).
	Sigma float64
	// Shift configures the detector (Alpha above overrides Shift.Alpha).
	Shift shift.Config
	// Window configures the adaptive streaming window.
	Window window.Config
	// SpillDir, when set, receives spilled knowledge snapshots.
	SpillDir string
	// Seed drives every stochastic component (clustering, model init).
	Seed int64
	// LongEpochs and LongChunk shape the long-model update at every window
	// close: LongEpochs passes of mini-batch SGD over the window's weighted
	// training set, in chunks of LongChunk samples, on the caller's
	// goroutine.
	LongEpochs int
	LongChunk  int
	// Guard selects the input-sanitization policy applied to every batch's
	// features before they reach the detector or any model: guard.Reject
	// (the default) refuses batches carrying NaN/Inf values, guard.Clamp
	// and guard.Impute repair them.
	Guard guard.Policy
	// Watchdog configures the divergence watchdog that rolls a model back
	// to a last-healthy snapshot on NaN/Inf weights or a loss explosion.
	Watchdog WatchdogConfig
}

// WatchdogConfig configures the divergence watchdog (see
// strategy.WatchdogConfig); the zero value means "on".
type WatchdogConfig = strategy.WatchdogConfig

// DefaultConfig mirrors the paper's published defaults
// (ModelNum=2, α=1.96, KdgBuffer=20, ExpBuffer=10-batch experience).
func DefaultConfig() Config {
	return Config{
		ModelFamily:     "mlp",
		Hyper:           model.DefaultHyper(),
		ModelNum:        2,
		KdgBuffer:       20,
		ExpBufferPoints: 256,
		ExpBufferAge:    20,
		Alpha:           1.96,
		Beta:            0.35,
		Sigma:           0.5,
		Shift:           shift.DefaultConfig(),
		Window:          window.DefaultConfig(),
		Seed:            1,
		LongEpochs:      3,
		LongChunk:       128,
		Guard:           guard.Reject,
	}
}

// longLRScale scales the long model's learning rate relative to Hyper.LR,
// refining the decision boundary with smaller steps over more data — the
// stability role Insight A assigns to the long-granularity model.
const longLRScale = 0.5

// Validate reports the first invalid field.
func (c Config) Validate() error {
	switch {
	case c.ModelFamily == "":
		return errors.New("core: ModelFamily required")
	case c.ModelNum < 2:
		return errors.New("core: ModelNum must be >= 2")
	case c.KdgBuffer < 1:
		return errors.New("core: KdgBuffer must be >= 1")
	case c.ExpBufferPoints < 1:
		return errors.New("core: ExpBufferPoints must be >= 1")
	case c.ExpBufferAge < 0:
		return errors.New("core: ExpBufferAge must be >= 0")
	case c.Alpha <= 0:
		return errors.New("core: Alpha must be > 0")
	case c.Beta < 0 || c.Beta > 1:
		return errors.New("core: Beta must be in [0, 1]")
	case c.Sigma <= 0:
		return errors.New("core: Sigma must be > 0")
	case c.LongEpochs < 1:
		return errors.New("core: LongEpochs must be >= 1")
	case c.LongChunk < 1:
		return errors.New("core: LongChunk must be >= 1")
	}
	if err := c.Hyper.Validate(); err != nil {
		return err
	}
	if err := c.Window.Validate(); err != nil {
		return err
	}
	sc := c.Shift
	sc.Alpha = c.Alpha
	return sc.Validate()
}

// Strategy identifies which mechanism produced a batch's predictions.
type Strategy int

const (
	// StrategyWarmup: the detector is still warming up; the short model
	// predicts alone.
	StrategyWarmup Strategy = iota
	// StrategyEnsemble: multi-time-granularity distance ensemble (slight).
	StrategyEnsemble
	// StrategyCEC: coherent experience clustering (sudden).
	StrategyCEC
	// StrategyKnowledge: historical knowledge reuse (reoccurring).
	StrategyKnowledge
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyWarmup:
		return "warmup"
	case StrategyEnsemble:
		return "multi-granularity"
	case StrategyCEC:
		return "coherent-experience-clustering"
	case StrategyKnowledge:
		return "knowledge-reuse"
	default:
		return "unknown"
	}
}
