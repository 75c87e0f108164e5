package nn

import (
	"fmt"
	"slices"
	"sync"

	"freewayml/internal/linalg"
)

// Workspace is the scratch of one batch's forward passes: a bag of tensors
// handed out by position and grown on demand, so it fits any architecture and
// any batch size and a warm one allocates nothing. Tensors come back with
// unspecified contents — whoever takes one overwrites all of it.
//
// A layer's Forward runs over a workspace the layer owns; a reader of frozen
// parameters (Frozen.ProbaInto) brings one from the pool. Such a workspace
// also holds the batch it was staged with (Stage) and a record of every
// frozen forward run in it, which Forward looks up and Network.TrainFrom
// trains from. Everything handed out stays valid until the next Reset.
type Workspace struct {
	t    []*linalg.Tensor
	next int

	x    *linalg.Tensor // the staged batch; nil until Stage
	xi   int            // x's position in t
	fwd  []*Forward     // the records of the frozen forwards, fwd[:nfwd] this use's
	nfwd int

	mean    linalg.Vector // the staged batch's column mean, once Mean computed it
	hasMean bool
	finite  bool // every value staged was finite

	// The answer a reader fused over the staged batch (KeepAnswer): nil
	// until then.
	ans   *linalg.Tensor
	ansW  []float64
	ansAt linalg.Vector
}

// Reset makes every tensor available again; their contents become scratch,
// and the staged batch, its mean, the forward records and the kept answer are
// gone.
func (w *Workspace) Reset() {
	w.next, w.x, w.nfwd = 0, nil, 0
	w.forget()
}

// forget drops what was derived from the staged batch: its mean and the kept
// answer.
func (w *Workspace) forget() {
	w.hasMean = false
	w.ans, w.ansW, w.ansAt = nil, nil, nil
}

// Tensor hands out the next tensor, shaped rows×cols.
func (w *Workspace) Tensor(rows, cols int) *linalg.Tensor {
	if w.next == len(w.t) {
		w.t = append(w.t, nil)
	}
	t := linalg.EnsureTensor(w.t[w.next], rows, cols)
	w.t[w.next] = t
	w.next++
	return t
}

// Stage copies the rows, each dim wide, into a tensor of the workspace and
// keeps it as the batch: Staged returns it, and Forward runs over it. The copy
// checks every value as it goes (Finite), and every width: a row of another
// width is an error, and the workspace then holds no batch.
func (w *Workspace) Stage(x [][]float64, dim int) error {
	finite, bad := w.stage(len(x), dim).CopyRows(x, dim)
	if bad >= 0 {
		w.x = nil
		return fmt.Errorf("row has %d features, want %d", len(x[bad]), dim)
	}
	w.finite = finite
	return nil
}

// StageSlab is Stage for a batch that is already one row-major slab: one
// contiguous copy of x.
func (w *Workspace) StageSlab(x *linalg.Tensor) *linalg.Tensor {
	t := w.stage(x.Rows, x.Cols)
	w.finite = linalg.CopyFinite(t.Data, x.Data)
	return t
}

// stage takes the tensor the batch is staged in.
func (w *Workspace) stage(rows, cols int) *linalg.Tensor {
	w.forget()
	w.xi = w.next
	w.x = w.Tensor(rows, cols)
	return w.x
}

// Finite reports whether every value of the batch was finite — no NaN, no
// ±Inf — as it was staged.
func (w *Workspace) Finite() bool { return w.finite }

// Staged returns the batch Stage staged (nil before).
func (w *Workspace) Staged() *linalg.Tensor { return w.x }

// Mean returns the staged batch's column mean (MeanRowsInto's bits),
// computing it on the first call after the staging: a Process that takes an
// Infer's workspace takes the mean that Infer's projection read. It is the
// workspace's own storage, valid until the next Stage or Reset; whoever writes
// the staged rows after a Mean must not read that Mean again.
func (w *Workspace) Mean() linalg.Vector {
	if !w.hasMean {
		w.mean = slices.Grow(w.mean[:0], w.x.Cols)[:w.x.Cols]
		w.x.MeanRowsInto(w.mean)
		w.hasMean = true
	}
	return w.mean
}

// KeepAnswer records the answer a reader fused over the staged batch: the
// distributions proba, a tensor of w; the weights the members received; and
// at, the point they were weighed at. w keeps all three as given (no copy),
// and Answer returns them until the next Stage or Reset: a Process that takes
// the workspace over (a hand-off) takes the answer with it.
func (w *Workspace) KeepAnswer(proba *linalg.Tensor, weights []float64, at linalg.Vector) {
	w.ans, w.ansW, w.ansAt = proba, weights, at
}

// Answer returns what KeepAnswer recorded over the staged batch; proba is nil
// when nothing was.
func (w *Workspace) Answer() (proba *linalg.Tensor, weights []float64, at linalg.Vector) {
	return w.ans, w.ansW, w.ansAt
}

// Exchange gives up the staged batch's tensor to a keeper that takes it
// whole (the adaptive window) and takes spare (nil for none) into its place
// among the tensors the workspace hands out: the keeper's recycled storage,
// instead of a copy of the batch. The batch stays staged — Staged, Mean and
// the recorded forwards still read it — until the next Stage or Reset, so its
// new owner must not write it before then. Exchange of the staged tensor
// itself changes nothing.
func (w *Workspace) Exchange(spare *linalg.Tensor) { w.t[w.xi] = spare }

// Forward returns f's forward pass over the staged batch: the one already run
// in w, when there is one, else one run now. Either way f runs at most once
// per batch and workspace.
func (w *Workspace) Forward(f *Frozen) *Forward {
	for _, fw := range w.fwd[:w.nfwd] {
		if fw.f == f && fw.x == w.x {
			return fw
		}
	}
	return f.forward(w, w.x)
}

// record hands out the next forward record, set up for a pass of f over x.
func (w *Workspace) record(f *Frozen, x *linalg.Tensor) *Forward {
	if w.nfwd == len(w.fwd) {
		w.fwd = append(w.fwd, new(Forward))
	}
	fw := w.fwd[w.nfwd]
	w.nfwd++
	fw.f, fw.x, fw.proba = f, x, nil
	if cap(fw.caches) < len(f.layers) {
		fw.caches = make([]*linalg.Tensor, len(f.layers))
	}
	fw.caches = fw.caches[:len(f.layers)]
	return fw
}

// workspaces is the one pool of reader workspaces, shared by every snapshot
// of every learner in the process. Two things bound the number of warm
// workspaces: how many reads run at once, and the one each resident learner
// may keep parked between an Infer and the Process call that follows it (a
// hand-off of the read's forwards to the training plane). The number of
// streams alone does not.
var workspaces = sync.Pool{New: func() any { return new(Workspace) }}

// GetWorkspace takes a reset workspace from the process-wide pool. The caller
// is its only user until Release.
func GetWorkspace() *Workspace {
	w := workspaces.Get().(*Workspace)
	w.Reset()
	return w
}

// Release returns w to the pool. Nothing taken from w may be used afterwards:
// the next reader overwrites it.
func (w *Workspace) Release() { workspaces.Put(w) }
