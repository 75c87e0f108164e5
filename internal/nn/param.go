// Package nn is a small, dependency-free neural-network library built for
// FreewayML's streaming models. The paper implements its models on PyTorch;
// Go has no mature NN-training stack, so this package provides the minimal
// equivalent: dense and 1-D convolutional layers, mini-batch SGD with
// momentum, a numerically stable softmax cross-entropy head, and the parameter
// image (Network.AppendSnapshot, Restore) that the historical-knowledge store,
// checkpoints and the divergence watchdog keep.
//
// Internally all layers operate on flat row-major linalg.Tensor batches (one
// row per sample) with per-layer scratch buffers reused across batches; the
// Network API accepts and returns [][]float64 through thin adapters. Layers
// cache their forward inputs and scratch, so a Network is not safe for
// concurrent use; FreewayML runs one goroutine per model.
package nn

import (
	"math"
	"math/rand"
)

// Param is one learnable parameter tensor, stored flat together with its
// gradient accumulator.
type Param struct {
	W    []float64
	Grad []float64
}

func newParam(n int) *Param {
	return &Param{W: make([]float64, n), Grad: make([]float64, n)}
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() {
	clear(p.Grad)
}

// heInit fills w with He-normal initialization for a layer with the given
// fan-in, the standard choice ahead of ReLU activations.
func heInit(w []float64, fanIn int, rng *rand.Rand) {
	std := 1.0
	if fanIn > 0 {
		std = math.Sqrt(2.0 / float64(fanIn))
	}
	for i := range w {
		w[i] = rng.NormFloat64() * std
	}
}
