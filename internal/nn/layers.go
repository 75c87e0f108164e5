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
// The network's last layer, a Dense, is the class head: its Forward returns
// class-major logits (classes × rows, a column per sample) and its Backward
// takes the loss gradient in that layout. Every other layer speaks rows.
//
// Buffer ownership. A layer returns from Forward (Backward) either its own
// scratch, valid until its next Forward (Backward), or — the activations ReLU
// and Sigmoid — the very tensor it was handed, overwritten in place. So:
//
//   - Whatever a layer hands on may be overwritten by its neighbour: no layer
//     reads the tensor it returned from Forward, or from Backward, again.
//     Dense and MaxPool1D read their Forward input in Backward, Conv1D its
//     im2col patches, and each its gradOut.
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
	// activation overwrites x. cache is what Backward would read of the pass,
	// had Forward run it (see adopt).
	infer(ws *Workspace, p []float64, x *linalg.Tensor) (out, cache *linalg.Tensor, rest []float64)
	// adopt makes a cache infer returned the layer's own, as if Forward had
	// run that pass: Network.TrainFrom backpropagates through a frozen forward.
	adopt(cache *linalg.Tensor)
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
// [in][out] — exactly the In×Out tensor the GEMM kernels consume, which the
// forward pass and the weight gradient read where it lies.
//
// The bias goes in by one of two rounding orders, fixed by the shape: a layer
// with In ≤ Out starts every sum from b, one with In > Out adds b to the
// finished sum (biasLast). These are the bits of the axpy-form and dot-form
// kernels the layer once chose between by shape; both sum over In in the same
// ascending order.
//
// NewNetwork wires the layer into its chain. The network's last layer is the
// class head: its output is class-major, Out × rows with a column per sample
// (the slab the loss, the softmax and the readers take), and Backward takes
// its gradient in that layout. A ReLU directly above is applied at the store
// of the output (relu), and the gate of a ReLU directly below at the store of
// the input gradient (gated): the gate is the input itself, which is that
// ReLU's output.
type Dense struct {
	In, Out int
	w, b    *Param

	head, relu, gated bool // NewNetwork's wiring, see above

	ws     Workspace      // Forward's scratch: the output
	lastX  *linalg.Tensor // the forward input, read by Backward
	gradIn *linalg.Tensor // layer-owned scratch, reused across batches
	outIn  *linalg.Tensor // Backward's Out × In scratch: ∂Wᵀ, then Wᵀ for ∂L/∂x
}

// biasLast reports whether the bias is added to the finished sum rather than
// starting it (see Dense).
func (d *Dense) biasLast() bool { return d.In > d.Out }

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
	return d.forward(&d.ws, d.w.W, d.b.W, x)
}

func (d *Dense) infer(ws *Workspace, p []float64, x *linalg.Tensor) (*linalg.Tensor, *linalg.Tensor, []float64) {
	nw := d.In * d.Out
	return d.forward(ws, p[:nw], p[nw:nw+d.Out], x), x, p[nw+d.Out:]
}

func (d *Dense) adopt(x *linalg.Tensor) { d.lastX = x }

// forward is xW + b for weights w and bias b of the layer's shape: rows × Out,
// rectified when a ReLU is wired above, or class-major for the head.
func (d *Dense) forward(ws *Workspace, w, b []float64, x *linalg.Tensor) *linalg.Tensor {
	if x.Cols != d.In {
		panic(fmt.Sprintf("nn: Dense input width %d, want %d", x.Cols, d.In))
	}
	e := linalg.Epilogue{Bias: b, BiasLast: d.biasLast()}
	if d.head {
		out := ws.Tensor(d.Out, x.Rows)
		linalg.GemmTC(out, x, linalg.TensorView(w, d.In, d.Out), e)
		return out
	}
	e.ReLU = d.relu
	out := ws.Tensor(x.Rows, d.Out)
	linalg.GemmWith(out, x, linalg.TensorView(w, d.In, d.Out), e)
	return out
}

// Backward accumulates ∂L/∂W = XᵀG and ∂L/∂b, and returns ∂L/∂x = GWᵀ: per
// element a sum over the outputs in ascending order from zero, in the axpy
// form over Wᵀ (transposed here, once per backward), read from the
// class-major Gᵀ for the head, and gated at the store when a ReLU is wired
// below.
func (d *Dense) Backward(gradOut *linalg.Tensor) *linalg.Tensor {
	d.backwardParams(gradOut)
	linalg.TransposeInto(d.outIn, linalg.TensorView(d.w.W, d.In, d.Out))
	var e linalg.Epilogue
	if d.gated {
		e.Gate = d.lastX.Data
	}
	d.gradIn = linalg.EnsureTensor(d.gradIn, d.lastX.Rows, d.In)
	if d.head {
		linalg.GemmTAWith(d.gradIn, gradOut, d.outIn, e)
	} else {
		linalg.GemmWith(d.gradIn, gradOut, d.outIn, e)
	}
	return d.gradIn
}

// backwardParams accumulates ∂W and ∂b. Per element of ∂W that is a sum over
// the samples in ascending order: from zero and then added into Grad once for
// a narrow layer (In ≥ 4·Out) on more than one row, whose ∂Wᵀ (Out × In) has
// the long inner loop over In; otherwise accumulated into Grad itself. ∂b
// takes the samples first to last.
func (d *Dense) backwardParams(gradOut *linalg.Tensor) {
	n := gradOut.Rows
	if d.head {
		n = gradOut.Cols
	}
	narrow := d.In >= denseGradWDotFactor*d.Out && n > 1
	grad := linalg.TensorView(d.w.Grad, d.In, d.Out)
	d.outIn = linalg.EnsureTensor(d.outIn, d.Out, d.In)
	switch {
	case d.head:
		// Gᵀ is Out × rows: ∂Wᵀ = Gᵀ·X is the plain product. The in-place
		// accumulation runs on Gradᵀ and is transposed back.
		if narrow {
			linalg.Gemm(d.outIn, gradOut, d.lastX)
			linalg.AddTransposedInto(grad, d.outIn)
		} else {
			linalg.TransposeInto(d.outIn, grad)
			linalg.GemmAdd(d.outIn, gradOut, d.lastX)
			linalg.TransposeInto(grad, d.outIn)
		}
		addRowSums(d.b.Grad, gradOut)
	case narrow:
		linalg.GemmTA(d.outIn, gradOut, d.lastX)
		linalg.AddTransposedInto(grad, d.outIn)
		gradOut.SumRowsInto(d.b.Grad)
	default:
		linalg.GemmTAAdd(grad, d.lastX, gradOut)
		gradOut.SumRowsInto(d.b.Grad)
	}
}

// addRowSums adds each row of g into its element of dst, first column to
// last: dst[j] = (…((dst[j] + g[j][0]) + g[j][1]) + …) — the head's ∂b from
// the class-major Gᵀ. Rows go two at a time, so that two add chains are in
// flight where one would wait on the other's latency.
func addRowSums(dst []float64, g *linalg.Tensor) {
	j := 0
	for ; j+2 <= g.Rows; j += 2 {
		s0, s1 := dst[j], dst[j+1]
		g0 := g.Row(j)
		g1 := g.Row(j + 1)[:len(g0)]
		for i, v := range g0 {
			s0 += v
			s1 += g1[i]
		}
		dst[j], dst[j+1] = s0, s1
	}
	if j < g.Rows {
		s := dst[j]
		for _, v := range g.Row(j) {
			s += v
		}
		dst[j] = s
	}
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

// ReLU applies max(0, x) element-wise, in place. NewNetwork moves its two
// passes into its neighbours where it can: a Dense or Conv1D directly below
// rectifies its own output as it stores it (rectified), and a Dense directly
// above gates its input gradient as it stores it (gated). What is left here
// is the tensor that gates, and the passes no neighbour took: the forward one
// when the ReLU is the first layer, the gate below a layer that is not a
// Dense.
type ReLU struct {
	y *linalg.Tensor // the forward tensor, now holding the output; gates Backward

	rectified, gated bool // NewNetwork's wiring, see above
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward rectifies x in place, unless the layer below already did, and
// returns it.
func (r *ReLU) Forward(x *linalg.Tensor) *linalg.Tensor {
	r.y = x
	return r.rectify(x)
}

func (r *ReLU) infer(_ *Workspace, p []float64, x *linalg.Tensor) (*linalg.Tensor, *linalg.Tensor, []float64) {
	return r.rectify(x), x, p
}

func (r *ReLU) adopt(y *linalg.Tensor) { r.y = y }

func (r *ReLU) rectify(x *linalg.Tensor) *linalg.Tensor {
	if !r.rectified {
		linalg.ReLU(x.Data)
	}
	return x
}

// Backward gates the incoming gradient, in place, by the sign of the forward
// output, unless the Dense above already did: max(x, 0) is positive exactly
// where x is, so the output gates as the input did. The gate is "nonzero and
// sign bit clear" (linalg.ReLUGate): for finite inputs the mask is identical
// to x > 0 (NaN activations, already fatal to training, pass the gradient
// instead of zeroing it).
func (r *ReLU) Backward(gradOut *linalg.Tensor) *linalg.Tensor {
	if !r.gated {
		linalg.ReLUGate(gradOut.Data, r.y.Data)
	}
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

func (s *Sigmoid) infer(_ *Workspace, p []float64, x *linalg.Tensor) (*linalg.Tensor, *linalg.Tensor, []float64) {
	return logistic(x), x, p
}

func (s *Sigmoid) adopt(y *linalg.Tensor) { s.y = y }

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
