package nn

import (
	"fmt"
	"math"
	"math/rand"

	"freewayml/internal/linalg"
)

// Layer is one differentiable stage of a Network, operating on flat
// row-major tensors (one row per sample). Forward caches whatever it needs
// for the matching Backward call; Backward consumes the gradient with
// respect to its output and returns the gradient with respect to its input,
// accumulating parameter gradients along the way.
//
// Buffer ownership. A layer returns from Forward (Backward) either its own
// scratch, valid until its next Forward (Backward), or — the activations ReLU
// and Sigmoid — the very tensor it was handed, overwritten in place. So:
//
//   - Whatever a layer hands on may be overwritten by its neighbour: no layer
//     reads the tensor it returned from Forward, or from Backward, again.
//     Dense and Conv1D read their Forward input (lastX, the im2col patches)
//     and gradOut in Backward; MaxPool1D its argmax cache.
//   - Backward may read the tensor passed to the preceding Forward, as it
//     stood when Forward returned or as an in-place activation directly above
//     left it (which is the value the layer consumed in the first place). The
//     network does not touch it in between.
//   - An activation is the exception to the first rule: it gates Backward by
//     its own output, so nothing may overwrite that. NewNetwork therefore
//     rejects an activation stacked on an activation.
//   - The network's staging copy of the batch is network-owned: an activation
//     in first position overwrites that copy, never the caller's rows.
//
// Callers who need a result to outlive the next pass must copy it.
type Layer interface {
	Forward(x *linalg.Tensor) *linalg.Tensor
	Backward(gradOut *linalg.Tensor) *linalg.Tensor
	Params() []*Param
	// infer is Forward for a reader of frozen parameters (Frozen): the same
	// arithmetic on the parameter values at the front of p (the layer's own,
	// laid out as Params lists them; the rest of p is returned), with every
	// tensor it writes taken from ws. It reads the layer's shape and writes
	// nothing of the layer's, so any number of readers may share the layer
	// with each other and with the network that trains it. Like Forward, an
	// activation overwrites x.
	infer(ws *Workspace, p []float64, x *linalg.Tensor) (out *linalg.Tensor, rest []float64)
	// OutDim returns the per-sample output width given the input width, or
	// an error if the layer cannot accept that width.
	OutDim(inDim int) (int, error)
}

// paramBackwarder is implemented by layers whose Backward separates into
// parameter gradients and a costly input gradient (a GEMM): Backward is
// backwardParams followed by ∂L/∂x. Network calls backwardParams alone on its
// first layer, where nobody consumes ∂L/∂x.
type paramBackwarder interface {
	backwardParams(gradOut *linalg.Tensor)
}

// Dense is a fully connected layer: y = xW + b, with W stored row-major as
// [in][out] — exactly the In×Out tensor the GEMM kernels consume.
//
// Both passes pick between the axpy-form and dot-form GEMM kernels by shape:
// the inner loop of the axpy form runs over Out and the dot form over In, so
// a wide-in / narrow-out head (e.g. a 1984→2 classifier) uses the dot form
// while a fan-out layer uses the axpy form. Both forms sum over the shared
// dimension in the same ascending order, so the choice never changes results
// beyond the bias-addition rounding.
type Dense struct {
	In, Out int
	w, b    *Param

	ws        Workspace      // Forward's scratch: the output, and Wᵀ when useDot
	lastX, wT *linalg.Tensor // the forward input and that Wᵀ, read by Backward
	gradIn    *linalg.Tensor // layer-owned scratch, reused across batches
	gwT       *linalg.Tensor // this batch's ∂Wᵀ (Out × In) of a narrow head
}

// useDot reports whether the dot-form kernels (inner loops over In) beat the
// axpy-form kernels (inner loops over Out) for this layer's shape.
func (d *Dense) useDot() bool { return d.In > d.Out }

// denseGradWDotFactor: when In ≥ this multiple of Out, ∂W is computed
// transposed, with inner loops over In, instead of per-sample length-Out
// axpys, which degenerate for narrow heads.
const denseGradWDotFactor = 4

// NewDense returns a Dense layer with He-normal initialized weights.
func NewDense(in, out int, rng *rand.Rand) *Dense {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: Dense dims must be positive, got %d→%d", in, out))
	}
	d := &Dense{In: in, Out: out, w: newParam(in * out), b: newParam(out)}
	heInit(d.w.W, in, rng)
	return d
}

// Forward computes xW + b for the whole batch with one GEMM, in the layer's
// own workspace, and keeps what Backward reads.
func (d *Dense) Forward(x *linalg.Tensor) *linalg.Tensor {
	d.ws.Reset()
	d.lastX = x
	out, wT := d.forward(&d.ws, d.w.W, d.b.W, x)
	d.wT = wT
	return out
}

func (d *Dense) infer(ws *Workspace, p []float64, x *linalg.Tensor) (*linalg.Tensor, []float64) {
	nw := d.In * d.Out
	out, _ := d.forward(ws, p[:nw], p[nw:nw+d.Out], x)
	return out, p[nw+d.Out:]
}

// forward is xW + b for weights w and bias b of the layer's shape. In the
// axpy form every output row starts from the bias and the product
// accumulates on top; in the dot form the bias is added after the product,
// and the Wᵀ it multiplied by is returned too.
func (d *Dense) forward(ws *Workspace, w, b []float64, x *linalg.Tensor) (out, wT *linalg.Tensor) {
	if x.Cols != d.In {
		panic(fmt.Sprintf("nn: Dense input width %d, want %d", x.Cols, d.In))
	}
	out = ws.Tensor(x.Rows, d.Out)
	if d.useDot() {
		wT = ws.Tensor(d.Out, d.In)
		linalg.TransposeInto(wT, linalg.TensorView(w, d.In, d.Out))
		linalg.GemmTB(out, x, wT)
		out.AddToRows(b)
	} else {
		linalg.GemmBias(out, x, linalg.TensorView(w, d.In, d.Out), b)
	}
	return out, wT
}

// Backward accumulates ∂L/∂W = XᵀG and ∂L/∂b, and returns ∂L/∂x = GWᵀ.
// It relies on the Wᵀ scratch left by the matching Forward call.
func (d *Dense) Backward(gradOut *linalg.Tensor) *linalg.Tensor {
	d.backwardParams(gradOut)
	d.gradIn = linalg.EnsureTensor(d.gradIn, gradOut.Rows, d.In)
	if d.useDot() {
		linalg.Gemm(d.gradIn, gradOut, d.wT)
	} else {
		linalg.GemmTB(d.gradIn, gradOut, linalg.TensorView(d.w.W, d.In, d.Out))
	}
	return d.gradIn
}

func (d *Dense) backwardParams(gradOut *linalg.Tensor) {
	n := gradOut.Rows
	if d.In >= denseGradWDotFactor*d.Out && n > 1 {
		// Narrow head: ∂Wᵀ = GᵀX (Out × In) has the long inner loop over In
		// and needs neither operand transposed. Each element is summed from
		// zero over ascending samples, then added into Grad once; the
		// transposed add touches In·Out values, not rows·(In+Out).
		d.gwT = linalg.EnsureTensor(d.gwT, d.Out, d.In)
		linalg.GemmTA(d.gwT, gradOut, d.lastX)
		for j := 0; j < d.Out; j++ {
			for i, v := range d.gwT.Row(j) {
				d.w.Grad[i*d.Out+j] += v
			}
		}
	} else {
		linalg.GemmTAAdd(linalg.TensorView(d.w.Grad, d.In, d.Out), d.lastX, gradOut)
	}
	gradOut.SumRowsInto(d.b.Grad)
}

// Params returns the weight and bias parameters.
func (d *Dense) Params() []*Param { return []*Param{d.w, d.b} }

// OutDim validates the input width and returns Out.
func (d *Dense) OutDim(inDim int) (int, error) {
	if inDim != d.In {
		return 0, fmt.Errorf("nn: Dense expects input width %d, got %d", d.In, inDim)
	}
	return d.Out, nil
}

// ReLU applies max(0, x) element-wise, in place.
type ReLU struct {
	y *linalg.Tensor // the forward tensor, now holding the output; gates Backward
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward rectifies x in place and returns it.
func (r *ReLU) Forward(x *linalg.Tensor) *linalg.Tensor {
	r.y = x
	linalg.ReLU(x.Data)
	return x
}

func (r *ReLU) infer(_ *Workspace, p []float64, x *linalg.Tensor) (*linalg.Tensor, []float64) {
	linalg.ReLU(x.Data)
	return x, p
}

// Backward gates the incoming gradient, in place, by the sign of the forward
// output: max(x, 0) is positive exactly where x is, so the output gates as
// the input did. The gate is "nonzero and sign bit clear" (linalg.ReLUGate):
// for finite inputs the mask is identical to x > 0 (NaN activations, already
// fatal to training, pass the gradient instead of zeroing it).
func (r *ReLU) Backward(gradOut *linalg.Tensor) *linalg.Tensor {
	linalg.ReLUGate(gradOut.Data, r.y.Data)
	return gradOut
}

// Params returns nil: ReLU has no learnable parameters.
func (r *ReLU) Params() []*Param { return nil }

// OutDim returns inDim unchanged.
func (r *ReLU) OutDim(inDim int) (int, error) { return inDim, nil }

// Sigmoid applies 1/(1+e^(−x)) element-wise, in place.
type Sigmoid struct {
	y *linalg.Tensor // the forward tensor, now holding the output
}

// NewSigmoid returns a sigmoid activation layer.
func NewSigmoid() *Sigmoid { return &Sigmoid{} }

// Forward applies the logistic function to x in place and returns it.
func (s *Sigmoid) Forward(x *linalg.Tensor) *linalg.Tensor {
	s.y = x
	return logistic(x)
}

func (s *Sigmoid) infer(_ *Workspace, p []float64, x *linalg.Tensor) (*linalg.Tensor, []float64) {
	return logistic(x), p
}

func logistic(x *linalg.Tensor) *linalg.Tensor {
	for i, v := range x.Data {
		x.Data[i] = 1 / (1 + math.Exp(-v))
	}
	return x
}

// Backward multiplies the incoming gradient by y(1−y), in place.
func (s *Sigmoid) Backward(gradOut *linalg.Tensor) *linalg.Tensor {
	for i, g := range gradOut.Data {
		y := s.y.Data[i]
		gradOut.Data[i] = g * y * (1 - y)
	}
	return gradOut
}

// Params returns nil: Sigmoid has no learnable parameters.
func (s *Sigmoid) Params() []*Param { return nil }

// OutDim returns inDim unchanged.
func (s *Sigmoid) OutDim(inDim int) (int, error) { return inDim, nil }
