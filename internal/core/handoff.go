package core

import (
	"math"
	"sync"

	"freewayml/internal/nn"
)

// handoff is an Infer's workspace left for the Process call that follows it:
// the rows staged — and found finite — and each member's forward over them,
// from the publication numbered seq. A Process of the same rows on the same
// publication takes that slab as checked and trains from those forwards
// instead of running them again (DESIGN.md, "One read of the batch per
// batch").
type handoff struct {
	ws  *nn.Workspace
	seq uint64
}

// handoffs recycles the slot's holders, so parking allocates nothing.
var handoffs = sync.Pool{New: func() any { return new(handoff) }}

// park leaves ws, an Infer's workspace over the snapshot numbered seq, in the
// learner's one-slot hand-off. The holder it displaces goes back with its
// workspace. A closed learner keeps nothing parked.
func (l *Learner) park(ws *nn.Workspace, seq uint64) {
	h := handoffs.Get().(*handoff)
	h.ws, h.seq = ws, seq
	l.parked.Swap(h).release()
	if l.closed.Load() {
		l.parked.Swap(nil).release()
	}
}

// release returns the holder and its workspace to their pools (nil-safe).
func (h *handoff) release() {
	if h == nil {
		return
	}
	h.ws.Release()
	h.ws = nil
	handoffs.Put(h)
}

// batchWorkspace returns the workspace the Process call reads its batch x
// from, with x staged. It takes whatever the slot holds: a hit, when that
// Infer read the latest publication and staged exactly these rows — which it
// found finite — is handed over with its forwards; anything else is released
// and a fresh workspace comes from the pool.
func (l *Learner) batchWorkspace(x [][]float64) (ws *nn.Workspace, hit bool) {
	if h := l.parked.Swap(nil); h != nil {
		if h.seq == l.snapSeq && sameRows(h.ws, x) {
			ws = h.ws
			h.ws = nil
			handoffs.Put(h)
			return ws, true
		}
		h.release()
	}
	ws = nn.GetWorkspace()
	ws.Stage(x, l.dim)
	return ws, false
}

// sameRows reports whether ws staged exactly the rows of x, bit for bit (−0
// is not +0, and a NaN matches only its own bits).
func sameRows(ws *nn.Workspace, x [][]float64) bool {
	t := ws.Staged()
	if t == nil || t.Rows != len(x) {
		return false
	}
	for i, row := range x {
		staged := t.Row(i)
		if len(row) != len(staged) {
			return false
		}
		for j, v := range row {
			if math.Float64bits(v) != math.Float64bits(staged[j]) {
				return false
			}
		}
	}
	return true
}
