package nn

import (
	"errors"

	"freewayml/internal/linalg"
)

// Frozen is a network's forward pass at one instant: its architecture and one
// copy of its parameter values — no gradients, no optimizer, no scratch.
// Nothing writes it after Freeze, so any number of goroutines may run it at
// once, each in a Workspace of its own, while the network it came from keeps
// training — until the one who froze it retires it (Retire).
type Frozen struct {
	net    *Network
	layers []Layer   // the network's own: infer reads their shapes, nothing else
	w      []float64 // every parameter value, in Params order
	ver    uint64    // the network's parameter version at Freeze
	finite bool      // every value in w is finite
}

// Freeze copies the parameter values into buf's storage — or into a new
// allocation of NumParams floats when buf cannot hold them, nil included —
// and returns the network's forward pass over them. The copy scans what it
// copies: Finite reports whether every value was finite. Every Freeze is a new
// Frozen, whatever storage it fills: forward records match on the Frozen
// itself (Workspace.Forward, TrainFrom), so none can match a later freeze into
// reused storage.
func (n *Network) Freeze(buf []float64) *Frozen {
	size := n.NumParams()
	if cap(buf) < size {
		buf = make([]float64, size)
	}
	w, finite := buf[:size], true
	for _, p := range n.params {
		finite = linalg.CopyFinite(w[:len(p.W)], p.W) && finite
		w = w[len(p.W):]
	}
	return &Frozen{net: n, layers: n.layers, w: buf[:size], ver: n.ver, finite: finite}
}

// Finite reports whether every parameter value f holds is finite.
func (f *Frozen) Finite() bool { return f.finite }

// Retire gives up f's parameter storage, for a later Freeze to fill, and
// leaves f empty: a forward over it panics. Only the one who froze f may call
// it, once nothing can reach f any more — no reader, no publication, no
// rollback target.
func (f *Frozen) Retire() []float64 {
	w := f.w
	f.w = nil
	return w
}

// Freezes reports whether f is a freeze of n's parameters as they stand: n's
// own, with no parameter write since (false for a nil f). Only the goroutine
// that trains n may call it.
func (f *Frozen) Freezes(n *Network) bool { return f != nil && f.net == n && f.Current() }

// RestoreFrozen writes the parameter values f holds back into n, the network
// f was frozen from: what Restore does with a parameter image.
func (n *Network) RestoreFrozen(f *Frozen) error {
	if f.net != n {
		return errors.New("nn: restore: a frozen view of another network")
	}
	w := f.w
	for _, p := range n.params {
		w = w[copy(p.W, w):]
	}
	n.InvalidateForward()
	return nil
}

// Current reports whether no parameter of the network has been written since
// f was frozen from it (see Network.InvalidateForward), so that f still
// answers what the network would. It reads the network's version counter:
// only the goroutine that trains the network may call it.
func (f *Frozen) Current() bool { return f.ver == f.net.ver }

// ProbaInto returns the class distribution of every row of x, class-major
// (NumClasses × rows, column i row i's), bit for bit what PredictProba
// returned on the network when it was frozen. x is only read. Every tensor
// written, the result included, is taken from ws: it is valid until ws is
// reset or released, and whatever ws held before is overwritten, never read.
// A batch of the wrong width panics in the first layer that has one, as it
// does in the network's own pass.
func (f *Frozen) ProbaInto(ws *Workspace, x *linalg.Tensor) *linalg.Tensor {
	return f.forward(ws, x).proba
}

// forward runs the pass over x in ws and records it there.
func (f *Frozen) forward(ws *Workspace, x *linalg.Tensor) *Forward {
	fw := ws.record(f, x)
	h, p := x, f.w
	// An in-place activation in first position would rectify the caller's batch.
	switch f.layers[0].(type) {
	case *ReLU, *Sigmoid:
		h = ws.Tensor(x.Rows, x.Cols)
		copy(h.Data, x.Data)
	}
	for i, l := range f.layers {
		h, fw.caches[i], p = l.infer(ws, p, h)
	}
	// The logits are workspace scratch nobody trains on: softmax in place.
	linalg.SoftmaxCols(h, h)
	fw.proba = h
	return fw
}

// Forward is one frozen forward pass as it lies in a workspace: the Frozen
// that ran it, the batch it ran over, what each layer's Backward reads of it
// (a Dense, a pooling layer or an activation its input, a Conv1D its patch
// matrix) and the class distributions it ended in. It is valid until its
// workspace is reset or released.
type Forward struct {
	f      *Frozen
	x      *linalg.Tensor
	caches []*linalg.Tensor
	proba  *linalg.Tensor
}

// Proba returns the pass's class distributions, class-major (NumClasses ×
// rows).
func (fw *Forward) Proba() *linalg.Tensor { return fw.proba }
