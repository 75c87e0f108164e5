package nn

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"freewayml/internal/linalg"
)

// Network is a sequential stack of layers ending in a Dense class head whose
// logits over NumClasses classes are trained with softmax cross-entropy.
//
// The exported API speaks [][]float64 so callers (core, baselines, window,
// knowledge) are representation-agnostic; internally every pass runs on flat
// tensors with network- and layer-owned scratch buffers reused across batches,
// so the steady-state hot path allocates only the returned results. The hidden
// layers' tensors are row-major; from the head's logits to the loss gradient
// the head hands back everything is class-major, NumClasses × rows (DESIGN.md,
// "The class head").
type Network struct {
	layers     []Layer
	params     []*Param // every layer's parameters, gathered once (layers never swap theirs)
	inDim      int
	numClasses int

	xBuf    linalg.Tensor // staging copy of the caller's batch
	gradBuf linalg.Tensor // class head scratch: PredictProba's probabilities, the loss gradient
	logpBuf linalg.Tensor // loss-head scratch: the labels' logs, one per row

	// ver is the parameter version: every parameter write bumps it (see
	// InvalidateForward), and Freeze records it, so TrainFrom can tell a
	// forward of the parameters as they stand from one of older values.
	ver uint64
}

// NewNetwork assembles a sequential network. It validates that the layer
// widths chain from inDim to numClasses, through a last layer that is a Dense
// (the class head), and returns an error otherwise. It then wires each ReLU
// into its neighbours: the Dense or Conv1D below rectifies as it stores its
// output, the Dense above gates its input gradient as it stores it.
func NewNetwork(inDim, numClasses int, layers ...Layer) (*Network, error) {
	if inDim <= 0 || numClasses <= 0 {
		return nil, fmt.Errorf("nn: invalid network dims in=%d classes=%d", inDim, numClasses)
	}
	if len(layers) == 0 {
		return nil, fmt.Errorf("nn: network needs at least one layer")
	}
	head, ok := layers[len(layers)-1].(*Dense)
	if !ok {
		return nil, fmt.Errorf("nn: the last layer must be a Dense (the class head), got %T", layers[len(layers)-1])
	}
	dim := inDim
	gated := false // the tensor entering layer i gates an activation's Backward
	for i, l := range layers {
		next, err := l.OutDim(dim)
		if err != nil {
			return nil, fmt.Errorf("nn: layer %d: %w", i, err)
		}
		dim = next
		switch l.(type) {
		case *ReLU, *Sigmoid:
			if gated {
				return nil, fmt.Errorf("nn: layer %d: an activation cannot follow an activation (it would overwrite the output that gates the first one's Backward)", i)
			}
			gated = true
		default:
			gated = false
		}
	}
	if dim != numClasses {
		return nil, fmt.Errorf("nn: network output width %d, want %d classes", dim, numClasses)
	}
	head.head = true
	for i, l := range layers {
		r, ok := l.(*ReLU)
		if !ok {
			continue
		}
		if i > 0 {
			switch below := layers[i-1].(type) {
			case *Dense:
				below.relu, r.rectified = true, true
			case *Conv1D:
				below.relu, r.rectified = true, true
			}
		}
		if above, ok := layers[i+1].(*Dense); ok { // a ReLU is never last
			above.gated, r.gated = true, true
		}
	}
	n := &Network{layers: layers, inDim: inDim, numClasses: numClasses}
	for _, l := range layers {
		n.params = append(n.params, l.Params()...)
	}
	return n, nil
}

// InDim returns the expected input width.
func (n *Network) InDim() int { return n.inDim }

// NumClasses returns the number of output classes.
func (n *Network) NumClasses() int { return n.numClasses }

// stage copies the caller's batch into the network's staging tensor. Rows
// must all have the expected input width.
func (n *Network) stage(x [][]float64) *linalg.Tensor {
	n.xBuf.FromRows(x, n.inDim)
	return &n.xBuf
}

// forwardT runs the staged batch through all layers and returns the
// class-major logits, owned by the head and valid until its next Forward
// call.
func (n *Network) forwardT(x *linalg.Tensor) *linalg.Tensor {
	h := x
	for _, l := range n.layers {
		h = l.Forward(h)
	}
	return h
}

// InvalidateForward declares a parameter write: it bumps the parameter
// version, so no forward pass frozen before it can be trained from (see
// TrainFrom). Step and Restore do it themselves; a caller that writes Param.W
// directly must call it.
func (n *Network) InvalidateForward() { n.ver++ }

// Predict returns the argmax class for each sample (the first on ties).
func (n *Network) Predict(x [][]float64) []int { return n.PredictTensor(n.stage(x)) }

// PredictTensor is Predict on the rows of x, read where they lie.
func (n *Network) PredictTensor(x *linalg.Tensor) []int {
	logits := n.forwardT(x)
	out := make([]int, logits.Cols)
	linalg.ArgmaxCols(out, logits)
	return out
}

// PredictProba returns the softmax distribution for each sample: the rows of
// one fresh len(x) × NumClasses slab, transposed from the class-major
// probabilities.
func (n *Network) PredictProba(x [][]float64) [][]float64 {
	n.ProbaInto(&n.gradBuf, n.stage(x))
	return n.gradBuf.TransposeToRows()
}

// ProbaInto is the softmax distribution of every row of x, read where it
// lies, written into dst, reshaped to NumClasses × x.Rows, class-major (its
// buffer is reused when large enough). dst is the caller's: unlike the logits
// it is softmaxed from, it outlives the network's later passes.
func (n *Network) ProbaInto(dst *linalg.Tensor, x *linalg.Tensor) {
	logits := n.forwardT(x)
	linalg.EnsureTensor(dst, logits.Rows, logits.Cols)
	linalg.SoftmaxCols(dst, logits)
}

// TrainBatch performs one forward/backward pass and one optimizer step on
// the mini-batch, returning the pre-update mean loss.
func (n *Network) TrainBatch(x [][]float64, y []int, opt *SGD) (float64, error) {
	return n.TrainTensor(n.stage(x), y, opt)
}

// TrainTensor is TrainBatch on a batch that is already a tensor (a row view of
// the caller's slab, say), read where it lies and left as it was.
func (n *Network) TrainTensor(x *linalg.Tensor, y []int, opt *SGD) (float64, error) {
	switch n.layers[0].(type) {
	case *ReLU, *Sigmoid: // it would rectify the caller's batch: stage a copy
		copy(linalg.EnsureTensor(&n.xBuf, x.Rows, x.Cols).Data, x.Data)
		x = &n.xBuf
	}
	loss, err := n.backward(n.forwardT(x), y) // an empty batch is the loss's error
	if err != nil {
		return 0, err
	}
	n.Step(opt)
	return loss, nil
}

// TrainFrom is TrainTensor on the batch fw ran over, with y its labels, minus
// the forward: the layers take fw's caches as their own (Layer.adopt) and the
// loss starts from its class distributions. It runs (ok = true) only while
// fw is a forward of this network's parameters as they stand — fw's Frozen
// was frozen from n and no parameter has been written since (Step, Restore,
// InvalidateForward). The frozen pass is then the layers' own arithmetic over
// the same values, so loss, gradients and weights come out bit for bit as
// TrainTensor's. ok = false means nothing was done and the caller trains with
// TrainTensor. fw's workspace must stay held until TrainFrom returns.
func (n *Network) TrainFrom(fw *Forward, y []int, opt *SGD) (loss float64, ok bool, err error) {
	if loss, ok, err = n.backwardFrom(fw, y); ok && err == nil {
		n.Step(opt)
	}
	return loss, ok, err
}

// backwardFrom is TrainFrom up to the optimizer step: the gradients of fw's
// batch accumulated, nothing stepped.
func (n *Network) backwardFrom(fw *Forward, y []int) (float64, bool, error) {
	if fw == nil || fw.f.net != n || fw.f.ver != n.ver {
		return 0, false, nil
	}
	for i, l := range n.layers {
		l.adopt(fw.caches[i])
	}
	copy(linalg.EnsureTensor(&n.gradBuf, fw.proba.Rows, fw.proba.Cols).Data, fw.proba.Data)
	loss, err := n.backprop(y)
	return loss, true, err
}

// Step applies one optimizer step to the network's parameters and zeroes the
// gradients. It is the way to step a network: it moves the parameter version
// with the weights.
func (n *Network) Step(opt *SGD) {
	opt.Step(n.params)
	n.InvalidateForward()
}

// AccumulateGradients runs forward/backward and adds this batch's gradients
// into the parameter accumulators without stepping. The A-GEM and
// Spark-style baselines need gradients decoupled from updates.
func (n *Network) AccumulateGradients(x [][]float64, y []int) (float64, error) {
	if len(x) == 0 {
		return 0, fmt.Errorf("nn: empty batch")
	}
	return n.backward(n.forwardT(n.stage(x)), y)
}

// backward runs the loss head and the backward pass over the layer caches
// the forward that produced logits left behind.
func (n *Network) backward(logits *linalg.Tensor, y []int) (float64, error) {
	linalg.SoftmaxCols(linalg.EnsureTensor(&n.gradBuf, logits.Rows, logits.Cols), logits)
	return n.backprop(y)
}

// backprop turns the class distributions in gradBuf into the loss gradient
// and runs the backward pass over the layers' caches.
func (n *Network) backprop(y []int) (float64, error) {
	linalg.EnsureTensor(&n.logpBuf, n.gradBuf.Cols, 1)
	loss, err := crossEntropyT(&n.gradBuf, y, n.logpBuf.Data)
	if err != nil {
		return 0, err
	}
	g := &n.gradBuf
	for i := len(n.layers) - 1; i > 0; i-- {
		g = n.layers[i].Backward(g)
	}
	// The first layer's ∂L/∂x is the gradient with respect to the data: no
	// layer below learns from it and no caller reads it, so it is not computed.
	if l, ok := n.layers[0].(paramBackwarder); ok {
		l.backwardParams(g)
	} else {
		n.layers[0].Backward(g)
	}
	return loss, nil
}

// Params returns all learnable parameters, layer by layer. The slice is the
// network's own, built once: callers iterate it and leave its elements alone.
// A caller that writes a Param.W follows up with InvalidateForward.
func (n *Network) Params() []*Param { return n.params }

// ZeroGrad clears every parameter gradient.
func (n *Network) ZeroGrad() {
	for _, p := range n.Params() {
		p.ZeroGrad()
	}
}

// ParamsFinite reports whether every learnable weight is finite: a single NaN
// or Inf weight makes every subsequent prediction garbage, and catching it at
// the update that introduced it is what makes rollback possible. A freeze
// reports the same of its copy (Frozen.Finite), which is how the divergence
// watchdog checks an update; this scan serves where nothing is copied.
func (n *Network) ParamsFinite() bool {
	for _, p := range n.Params() {
		for _, w := range p.W {
			// A non-finite float is the only value for which v-v != 0.
			if w-w != 0 {
				return false
			}
		}
	}
	return true
}

// NumParams returns the total number of scalar parameters.
func (n *Network) NumParams() int {
	total := 0
	for _, p := range n.Params() {
		total += len(p.W)
	}
	return total
}

// FlattenGrads copies all parameter gradients into one flat vector (the
// representation A-GEM's projection works on).
func (n *Network) FlattenGrads() []float64 {
	var out []float64
	for _, p := range n.Params() {
		out = append(out, p.Grad...)
	}
	return out
}

// SetFlatGrads writes a flat gradient vector back into the parameter
// accumulators. It panics if the length does not match.
func (n *Network) SetFlatGrads(flat []float64) {
	idx := 0
	for _, p := range n.Params() {
		if idx+len(p.Grad) > len(flat) {
			panic("nn: SetFlatGrads length mismatch")
		}
		copy(p.Grad, flat[idx:idx+len(p.Grad)])
		idx += len(p.Grad)
	}
	if idx != len(flat) {
		panic("nn: SetFlatGrads length mismatch")
	}
}

// AppendFlatParams appends every parameter value, in Params order, to dst and
// returns the extended slice (what Freeze copies).
func (n *Network) AppendFlatParams(dst []float64) []float64 {
	for _, p := range n.params {
		dst = append(dst, p.W...)
	}
	return dst
}

// AppendSnapshot appends the network's parameter image, its one saved state,
// to dst, allocating only when dst lacks the capacity. The image is the number
// of parameter tensors, each tensor's length, then every value's float64 bits
// in Params order, all little-endian 64-bit words; its length is the Table IV
// space overhead of a knowledge entry.
func (n *Network) AppendSnapshot(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(slices.Grow(dst, n.imageLen()), uint64(len(n.params)))
	for _, p := range n.params {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(len(p.W)))
	}
	for _, p := range n.params {
		for _, w := range p.W {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(w))
		}
	}
	return dst
}

// Snapshot returns the network's parameter image in a fresh slice.
func (n *Network) Snapshot() ([]byte, error) { return n.AppendSnapshot(nil), nil }

// Restore loads a parameter image of a network with the same layout. It
// checks the whole image before it writes a weight: an image that does not
// fit returns an error with the network as it was.
func (n *Network) Restore(img []byte) error {
	if err := n.CheckSnapshot(img); err != nil {
		return err
	}
	b := img[8*(1+len(n.params)):]
	for _, p := range n.params {
		for i := range p.W {
			p.W[i] = math.Float64frombits(binary.LittleEndian.Uint64(b))
			b = b[8:]
		}
	}
	n.InvalidateForward()
	return nil
}

// CheckSnapshot reports why Restore would refuse img, or nil when img is a
// parameter image of this network's layout.
func (n *Network) CheckSnapshot(img []byte) error {
	if len(img) != n.imageLen() {
		return fmt.Errorf("nn: restore: image of %d bytes, want %d", len(img), n.imageLen())
	}
	if t := binary.LittleEndian.Uint64(img); t != uint64(len(n.params)) {
		return fmt.Errorf("nn: restore: %d tensors, network has %d", t, len(n.params))
	}
	for i, p := range n.params {
		if l := binary.LittleEndian.Uint64(img[8*(1+i):]); l != uint64(len(p.W)) {
			return fmt.Errorf("nn: restore: tensor %d has %d values, want %d", i, l, len(p.W))
		}
	}
	return nil
}

// imageLen is the length of the network's parameter image in bytes.
func (n *Network) imageLen() int { return 8 * (1 + len(n.params) + n.NumParams()) }
