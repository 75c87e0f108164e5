package nn

import "freewayml/internal/linalg"

// SGD is mini-batch stochastic gradient descent with optional momentum and
// L2 weight decay — the update rule all of the paper's streaming models
// (and all re-implemented baselines) share.
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64

	velocity map[*Param][]float64
}

// NewSGD returns an SGD optimizer. lr must be positive; momentum and
// weightDecay must be non-negative (momentum < 1).
func NewSGD(lr, momentum, weightDecay float64) *SGD {
	switch {
	case lr <= 0:
		panic("nn: SGD learning rate must be positive")
	case momentum < 0 || momentum >= 1:
		panic("nn: SGD momentum must be in [0, 1)")
	case weightDecay < 0:
		panic("nn: SGD weight decay must be >= 0")
	}
	return &SGD{LR: lr, Momentum: momentum, WeightDecay: weightDecay, velocity: make(map[*Param][]float64)}
}

// Step applies one update to every parameter and zeroes the gradients: with
// momentum one packed pass per parameter (linalg.MomentumStep).
func (s *SGD) Step(params []*Param) {
	for _, p := range params {
		if s.Momentum == 0 {
			for i := range p.W {
				g := p.Grad[i] + s.WeightDecay*p.W[i]
				p.W[i] -= s.LR * g
			}
			p.ZeroGrad()
			continue
		}
		if s.velocity[p] == nil {
			s.velocity[p] = make([]float64, len(p.W))
		}
		linalg.MomentumStep(p.W, p.Grad, s.velocity[p], s.LR, s.Momentum, s.WeightDecay)
	}
}

// Reset clears all momentum state (used when a model is restored from a
// historical snapshot: stale velocity must not leak into the new regime). The
// buffers are zeroed in place — to the next Step a zeroed slice and a fresh
// one are the same operand, and a rollback-heavy stream resets every few
// batches.
func (s *SGD) Reset() {
	for _, v := range s.velocity {
		clear(v)
	}
}
