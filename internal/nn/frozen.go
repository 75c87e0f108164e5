package nn

import "freewayml/internal/linalg"

// Frozen is a network's forward pass at one instant: its architecture and one
// copy of its parameter values — no gradients, no optimizer, no scratch.
// Nothing writes it after Freeze, so any number of goroutines may run it at
// once, each in a Workspace of its own, while the network it came from keeps
// training.
type Frozen struct {
	layers []Layer   // the network's own: infer reads their shapes, nothing else
	w      []float64 // every parameter value, in Params order
}

// Freeze copies the parameter values (one allocation of NumParams floats) and
// returns the network's forward pass over them.
func (n *Network) Freeze() *Frozen {
	return &Frozen{layers: n.layers, w: n.AppendFlatParams(make([]float64, 0, n.NumParams()))}
}

// ProbaInto returns the class distribution of every row of x, class-major
// (NumClasses × rows, column i row i's), bit for bit what PredictProba
// returned on the network when it was frozen. x is only read. Every tensor
// written, the result included, is taken from ws: it is valid until ws is
// reset or released, and whatever ws held before is overwritten, never read.
// A batch of the wrong width panics in the first layer that has one, as it
// does in the network's own pass.
func (f *Frozen) ProbaInto(ws *Workspace, x *linalg.Tensor) *linalg.Tensor {
	h, p := x, f.w
	// An in-place activation in first position would rectify the caller's batch.
	switch f.layers[0].(type) {
	case *ReLU, *Sigmoid:
		h = ws.Tensor(x.Rows, x.Cols)
		copy(h.Data, x.Data)
	}
	for _, l := range f.layers {
		h, p = l.infer(ws, p, h)
	}
	// The logits are workspace scratch nobody trains on: softmax in place.
	linalg.SoftmaxCols(h, h)
	return h
}
