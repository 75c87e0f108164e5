package nn

import (
	"math/rand"

	"freewayml/internal/linalg"
)

// Dropout randomly zeroes a fraction of activations during training
// (inverted dropout: survivors are scaled by 1/(1−rate) so inference needs
// no correction). Call SetTraining(false) before inference-only passes;
// the FreewayML pipeline toggles it around Fit calls when the layer is
// used in a custom model.
type Dropout struct {
	Rate     float64
	training bool
	rng      *rand.Rand

	masked      bool // whether lastMask applies to the last Forward
	lastMask    *linalg.Tensor
	out, gradIn *linalg.Tensor
}

// NewDropout returns a dropout layer with the given drop rate in [0, 1).
func NewDropout(rate float64, seed int64) *Dropout {
	if rate < 0 || rate >= 1 {
		panic("nn: Dropout rate must be in [0, 1)")
	}
	return &Dropout{Rate: rate, training: true, rng: rand.New(rand.NewSource(seed))}
}

// SetTraining toggles between training (masking) and inference (identity).
func (d *Dropout) SetTraining(training bool) { d.training = training }

// Forward masks activations in training mode and passes through otherwise.
func (d *Dropout) Forward(x *linalg.Tensor) *linalg.Tensor {
	if !d.training || d.Rate == 0 {
		d.masked = false
		return x
	}
	keep := 1 - d.Rate
	scale := 1 / keep
	d.masked = true
	d.lastMask = linalg.EnsureTensor(d.lastMask, x.Rows, x.Cols)
	d.out = linalg.EnsureTensor(d.out, x.Rows, x.Cols)
	for i, v := range x.Data {
		if d.rng.Float64() < keep {
			d.lastMask.Data[i] = scale
			d.out.Data[i] = v * scale
		} else {
			d.lastMask.Data[i] = 0
			d.out.Data[i] = 0
		}
	}
	return d.out
}

// infer is the inference pass whatever the mode: a reader never masks.
func (d *Dropout) infer(_ *Workspace, p []float64, x *linalg.Tensor) (*linalg.Tensor, []float64) {
	return x, p
}

// Backward applies the cached mask to the incoming gradient.
func (d *Dropout) Backward(gradOut *linalg.Tensor) *linalg.Tensor {
	if !d.masked {
		return gradOut
	}
	d.gradIn = linalg.EnsureTensor(d.gradIn, gradOut.Rows, gradOut.Cols)
	for i, g := range gradOut.Data {
		d.gradIn.Data[i] = g * d.lastMask.Data[i]
	}
	return d.gradIn
}

// Params returns nil: dropout has no learnable parameters.
func (d *Dropout) Params() []*Param { return nil }

// OutDim returns inDim unchanged.
func (d *Dropout) OutDim(inDim int) (int, error) { return inDim, nil }
