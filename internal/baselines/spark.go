package baselines

import (
	"errors"

	"freewayml/internal/model"
	"freewayml/internal/nn"
	"freewayml/internal/stream"
)

// SparkMLlib models Spark MLlib's streaming regression/classification
// update: the mini-batch is split into Partitions sub-batches whose
// gradients are computed independently and averaged before a single step —
// mirroring the map-reduce aggregation of average gradients the paper
// describes. The extra partitioned passes add overhead without changing the
// update direction, matching Spark's higher latency in Table III.
type SparkMLlib struct {
	m          model.Model
	opt        *nn.SGD
	partitions int
}

// NewSparkMLlib builds the baseline with the given partition count (>= 1).
func NewSparkMLlib(factory model.Factory, dim, classes, partitions int) (*SparkMLlib, error) {
	if partitions < 1 {
		return nil, errors.New("baselines: partitions must be >= 1")
	}
	m, err := factory(dim, classes)
	if err != nil {
		return nil, err
	}
	h := model.DefaultHyper()
	return &SparkMLlib{m: m, opt: nn.NewSGD(h.LR, h.Momentum, h.WeightDecay), partitions: partitions}, nil
}

// Name returns "Spark MLlib".
func (s *SparkMLlib) Name() string { return "Spark MLlib" }

// Infer predicts with the current model.
func (s *SparkMLlib) Infer(b stream.Batch) ([]int, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return s.m.Predict(b.X), nil
}

// Train averages per-partition gradients and applies one step.
func (s *SparkMLlib) Train(b stream.Batch) error {
	if !b.Labeled() {
		return errors.New("baselines: Train requires labels")
	}
	net := s.m.Net()
	net.ZeroGrad()
	n := len(b.X)
	parts := s.partitions
	if parts > n {
		parts = n
	}
	chunk := (n + parts - 1) / parts
	count := 0
	for start := 0; start < n; start += chunk {
		end := start + chunk
		if end > n {
			end = n
		}
		if _, err := net.AccumulateGradients(b.X[start:end], b.Y[start:end]); err != nil {
			return err
		}
		count++
	}
	// Average the per-partition mean gradients.
	scale := 1 / float64(count)
	for _, p := range net.Params() {
		for i := range p.Grad {
			p.Grad[i] *= scale
		}
	}
	net.Step(s.opt)
	return nil
}
