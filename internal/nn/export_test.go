package nn

import "freewayml/internal/linalg"

// fullBackward hides a layer's backwardParams behind the plain Layer method
// set, so a Network holding it as layer 0 runs the whole Backward.
type fullBackward struct{ Layer }

// ComputeFirstLayerInputGrad switches off the dead-gradient elision of n in
// place: its first layer keeps its parameters and scratch but loses the
// paramBackwarder method, so AccumulateGradients computes ∂L/∂x again — the
// behaviour before the elision, through the same code.
func ComputeFirstLayerInputGrad(n *Network) {
	if _, ok := n.layers[0].(fullBackward); !ok {
		n.layers[0] = fullBackward{n.layers[0]}
	}
}

// FirstLayerInputGrad returns the input-gradient scratch of n's first layer:
// nil for as long as no backward pass has materialized it.
func FirstLayerInputGrad(n *Network) *linalg.Tensor {
	l := n.layers[0]
	if f, ok := l.(fullBackward); ok {
		l = f.Layer
	}
	switch l := l.(type) {
	case *Dense:
		return l.gradIn
	case *Conv1D:
		return l.gradIn
	}
	return nil
}

// Velocity returns opt's momentum buffer for p (nil before the first step).
func Velocity(opt *SGD, p *Param) []float64 { return opt.velocity[p] }

// AccumulateFrom is TrainFrom without its optimizer step: fw's batch's
// gradients accumulated into n, nothing stepped (AccumulateGradients's
// counterpart).
func AccumulateFrom(n *Network, fw *Forward, y []int) (float64, bool, error) {
	return n.backwardFrom(fw, y)
}
