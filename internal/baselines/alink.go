package baselines

import (
	"errors"

	"freewayml/internal/model"
	"freewayml/internal/stream"
)

// Alink models Alibaba Alink's online-learning stack, which combines FOBOS
// (forward-backward splitting) and RDA-style regularization with logistic
// regression for stability on real-time streams: after each SGD step, a
// proximal L1 shrinkage is applied to the weights, damping oscillation
// under noisy streams at the cost of responsiveness.
type Alink struct {
	m      model.Model
	lambda float64 // L1 proximal strength per update
}

// NewAlink builds the baseline; lambda is the proximal L1 strength (>= 0).
func NewAlink(factory model.Factory, dim, classes int, lambda float64) (*Alink, error) {
	if lambda < 0 {
		return nil, errors.New("baselines: lambda must be >= 0")
	}
	m, err := factory(dim, classes)
	if err != nil {
		return nil, err
	}
	return &Alink{m: m, lambda: lambda}, nil
}

// Name returns "Alink".
func (a *Alink) Name() string { return "Alink" }

// Infer predicts with the current model.
func (a *Alink) Infer(b stream.Batch) ([]int, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return a.m.Predict(b.X), nil
}

// Train performs the FOBOS two-phase update: an unconstrained SGD step
// followed by the proximal operator of λ‖w‖₁ (soft-thresholding).
func (a *Alink) Train(b stream.Batch) error {
	if !b.Labeled() {
		return errors.New("baselines: Train requires labels")
	}
	if _, err := a.m.Fit(b.X, b.Y); err != nil {
		return err
	}
	if a.lambda == 0 {
		return nil
	}
	for _, p := range a.m.Net().Params() {
		for i, w := range p.W {
			p.W[i] = softThreshold(w, a.lambda)
		}
	}
	a.m.Net().InvalidateForward()
	return nil
}

// softThreshold is the L1 proximal operator: shrink toward zero by t,
// clamping to zero inside [-t, t].
func softThreshold(w, t float64) float64 {
	switch {
	case w > t:
		return w - t
	case w < -t:
		return w + t
	default:
		return 0
	}
}
