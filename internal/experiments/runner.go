// Package experiments regenerates every table and figure of the paper's
// evaluation: one exported function per experiment, each returning a
// structured result whose String method prints the same rows/series the
// paper reports. cmd/benchall and the root bench_test.go are thin shells
// over this package.
package experiments

import (
	"context"
	"fmt"

	"freewayml/internal/baselines"
	"freewayml/internal/core"
	"freewayml/internal/metrics"
	"freewayml/internal/model"
	"freewayml/internal/stream"
)

// Options sizes an experiment run. The defaults keep every experiment
// laptop-fast; raising BatchSize to 1024 matches the paper's setting.
type Options struct {
	BatchSize  int
	MaxBatches int // 0 = drain the stream
	Seed       int64
}

// System is anything that can run the prequential protocol: predict a batch
// first, then learn from its labels.
type System interface {
	Name() string
	Step(b stream.Batch) ([]int, error)
}

// frameworkSystem adapts a baseline Framework.
type frameworkSystem struct {
	fw baselines.Framework
}

func (s frameworkSystem) Name() string { return s.fw.Name() }

func (s frameworkSystem) Step(b stream.Batch) ([]int, error) {
	pred, err := s.fw.Infer(b)
	if err != nil {
		return nil, err
	}
	if b.Labeled() {
		if err := s.fw.Train(b); err != nil {
			return nil, err
		}
	}
	return pred, nil
}

// freewaySystem adapts the FreewayML learner.
type freewaySystem struct {
	l *core.Learner
}

func (s freewaySystem) Name() string { return "FreewayML" }

func (s freewaySystem) Step(b stream.Batch) ([]int, error) {
	res, err := s.l.Process(context.Background(), b)
	if err != nil {
		return nil, err
	}
	return res.Pred, nil
}

// Close closes the learner.
func (s freewaySystem) Close() error { return s.l.Close() }

// newFreewaySystem builds a FreewayML learner sized for experiment streams.
func newFreewaySystem(family string, dim, classes int, opt Options) (freewaySystem, error) {
	cfg := experimentCoreConfig(family, opt)
	l, err := core.NewLearner(cfg, dim, classes)
	if err != nil {
		return freewaySystem{}, err
	}
	return freewaySystem{l: l}, nil
}

// experimentCoreConfig shrinks the PCA warm-up to the experiment batch size
// so pattern detection engages early on the ~100-batch experiment streams;
// everything else stays at the published defaults.
func experimentCoreConfig(family string, opt Options) core.Config {
	cfg := core.DefaultConfig()
	cfg.ModelFamily = family
	cfg.Seed = opt.Seed
	cfg.Hyper.Seed = opt.Seed
	cfg.Shift.WarmupPoints = 2 * opt.BatchSize
	return cfg
}

// newBaselineSystem builds a named baseline over the given model family.
func newBaselineSystem(name, family string, dim, classes int, opt Options) (System, error) {
	h := model.DefaultHyper()
	h.Seed = opt.Seed
	factory, err := model.FactoryFor(family, h)
	if err != nil {
		return nil, err
	}
	fw, err := baselines.Build(name, factory, dim, classes)
	if err != nil {
		return nil, err
	}
	return frameworkSystem{fw: fw}, nil
}

// RunPrequential drives a system over a stream, returning the accumulated
// prequential metrics.
func RunPrequential(sys System, src stream.Source, maxBatches int) (*metrics.Prequential, error) {
	var preq metrics.Prequential
	for n := 0; maxBatches <= 0 || n < maxBatches; n++ {
		b, ok := src.Next()
		if !ok {
			break
		}
		pred, err := sys.Step(b)
		if err != nil {
			return nil, fmt.Errorf("%s on %s: %w", sys.Name(), src.Name(), err)
		}
		if b.Labeled() {
			acc, err := metrics.Accuracy(pred, b.Y)
			if err != nil {
				return nil, err
			}
			preq.Record(acc, b.Truth, len(b.X))
		}
	}
	if c, ok := sys.(interface{ Close() error }); ok {
		if err := c.Close(); err != nil {
			return nil, err
		}
	}
	return &preq, nil
}
