package baselines

import (
	"errors"

	"freewayml/internal/model"
	"freewayml/internal/nn"
	"freewayml/internal/stream"
)

// EWC implements Elastic Weight Consolidation (Kirkpatrick et al. 2017),
// the parameter-constraint family the paper discusses (Sec. II-B3): every
// ConsolidateEvery batches the diagonal Fisher information is estimated on
// the latest batch and the current parameters become an anchor; subsequent
// updates add the quadratic penalty λ·F⊙(θ−θ*) to the gradient, so
// parameters important to past data resist drift — and, as the paper notes,
// the model's ability to follow fast-changing streams diminishes with it.
type EWC struct {
	m   model.Model
	opt *nn.SGD

	lambda           float64
	consolidateEvery int
	batches          int

	anchor []float64 // θ*
	fisher []float64 // diagonal Fisher estimate
}

// NewEWC builds the baseline; lambda is the consolidation strength and
// consolidateEvery how many batches pass between anchor refreshes.
func NewEWC(factory model.Factory, dim, classes int, lambda float64, consolidateEvery int) (*EWC, error) {
	if lambda < 0 {
		return nil, errors.New("baselines: EWC lambda must be >= 0")
	}
	if consolidateEvery < 1 {
		return nil, errors.New("baselines: EWC consolidateEvery must be >= 1")
	}
	m, err := factory(dim, classes)
	if err != nil {
		return nil, err
	}
	h := model.DefaultHyper()
	return &EWC{
		m:                m,
		opt:              nn.NewSGD(h.LR, h.Momentum, h.WeightDecay),
		lambda:           lambda,
		consolidateEvery: consolidateEvery,
	}, nil
}

// Name returns "EWC".
func (e *EWC) Name() string { return "EWC" }

// Infer predicts with the current model.
func (e *EWC) Infer(b stream.Batch) ([]int, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return e.m.Predict(b.X), nil
}

// Train applies one SGD step with the EWC penalty folded into the gradient,
// refreshing the Fisher anchor on schedule.
func (e *EWC) Train(b stream.Batch) error {
	if !b.Labeled() {
		return errors.New("baselines: Train requires labels")
	}
	net := e.m.Net()
	net.ZeroGrad()
	if _, err := net.AccumulateGradients(b.X, b.Y); err != nil {
		return err
	}

	if e.anchor != nil {
		// g += λ · F ⊙ (θ − θ*)
		idx := 0
		for _, p := range net.Params() {
			for i := range p.W {
				p.Grad[i] += e.lambda * e.fisher[idx] * (p.W[i] - e.anchor[idx])
				idx++
			}
		}
	}
	net.Step(e.opt)

	e.batches++
	if e.batches%e.consolidateEvery == 0 {
		e.consolidate(b)
	}
	return nil
}

// consolidate estimates the diagonal Fisher as the squared per-parameter
// gradient on the latest batch and anchors the current parameters.
func (e *EWC) consolidate(b stream.Batch) {
	net := e.m.Net()
	net.ZeroGrad()
	if _, err := net.AccumulateGradients(b.X, b.Y); err != nil {
		return // keep the previous anchor on a degenerate batch
	}
	total := net.NumParams()
	if e.anchor == nil {
		e.anchor = make([]float64, total)
		e.fisher = make([]float64, total)
	}
	idx := 0
	for _, p := range net.Params() {
		for i := range p.W {
			e.anchor[idx] = p.W[i]
			e.fisher[idx] = p.Grad[i] * p.Grad[i]
			idx++
		}
		p.ZeroGrad()
	}
}
