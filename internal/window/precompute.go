package window

import (
	"errors"

	"freewayml/internal/nn"
)

// Precomputer implements the pre-computing window mechanism of Sec. V-B:
// instead of computing the gradient of the whole window at update time, the
// gradient of each data subset is computed incrementally as it arrives and
// accumulated in the network's gradient buffers. At update time only the
// final subset's gradient remains to be computed, after which a single
// optimizer step applies the average.
type Precomputer struct {
	net     *nn.Network
	subsets int
	samples int
}

// NewPrecomputer wraps a network whose gradient buffers will accumulate the
// incoming subsets. The caller must not run other backward passes on the
// network between Start and Finalize.
func NewPrecomputer(net *nn.Network) *Precomputer {
	return &Precomputer{net: net}
}

// Start clears the gradient buffers for a new accumulation round.
func (p *Precomputer) Start() {
	p.net.ZeroGrad()
	p.subsets = 0
	p.samples = 0
}

// AddSubset folds one subset's gradient into the accumulators while the
// window is still waiting for data.
func (p *Precomputer) AddSubset(x [][]float64, y []int) error {
	if len(x) == 0 {
		return errors.New("window: empty precompute subset")
	}
	if _, err := p.net.AccumulateGradients(x, y); err != nil {
		return err
	}
	p.subsets++
	p.samples += len(x)
	return nil
}

// Subsets returns the number of subsets accumulated since Start.
func (p *Precomputer) Subsets() int { return p.subsets }

// Finalize rescales the accumulated gradients to the mean over subsets and
// applies a single optimizer step. It returns an error if no subset was
// added.
func (p *Precomputer) Finalize(opt *nn.SGD) error {
	if p.subsets == 0 {
		return errors.New("window: Finalize with no accumulated subsets")
	}
	// Each AccumulateGradients call already averaged within its subset;
	// average across subsets so the step size is independent of count.
	scale := 1 / float64(p.subsets)
	for _, param := range p.net.Params() {
		for i := range param.Grad {
			param.Grad[i] *= scale
		}
	}
	p.net.Step(opt)
	p.subsets = 0
	p.samples = 0
	return nil
}
