package nn

import (
	"sync"

	"freewayml/internal/linalg"
)

// Workspace is the scratch of one forward pass: a bag of tensors handed out
// by position and grown on demand, so it fits any architecture and any batch
// size and a warm one allocates nothing. Tensors come back with unspecified
// contents — whoever takes one overwrites all of it.
//
// A layer's Forward runs over a workspace the layer owns; a reader of frozen
// parameters (Frozen.ProbaInto) brings one from the pool. Everything handed
// out stays valid until the next Reset.
type Workspace struct {
	t    []*linalg.Tensor
	next int
}

// Reset makes every tensor available again; their contents become scratch.
func (w *Workspace) Reset() { w.next = 0 }

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

// workspaces is the one pool of reader workspaces, shared by every snapshot
// of every learner in the process: what bounds the number of warm workspaces
// is how many reads run at once, not how many streams are resident.
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
