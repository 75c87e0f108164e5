package core

import (
	"sync"

	"freewayml/internal/linalg"
	"freewayml/internal/nn"
	"freewayml/internal/stream"
)

// handoff is an Infer's workspace left for the Process call that follows it:
// the rows staged — and found finite — each member's forward over them and
// the answer fused from those forwards, from the publication numbered seq. A
// Process of the same rows on the same publication takes that slab as
// checked, answers with that fusion when its detector weighs the members at
// the same ȳ, and trains from those forwards instead of running them again
// (DESIGN.md, "One read of the batch per batch").
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

// batchWorkspace returns the workspace the Process call reads its batch b
// from, with b staged. It takes whatever the slot holds: a hit, when that
// Infer read the latest publication and staged exactly these rows — which it
// found finite — is handed over with its forwards, its fused answer and its
// batch mean; anything else is released and a fresh workspace comes from the
// pool, into which b is staged, every value checked as it is copied
// (nn.Workspace.Finite): a slab with one copy.
func (l *Learner) batchWorkspace(b stream.Batch) (ws *nn.Workspace, hit bool) {
	if h := l.parked.Swap(nil); h != nil {
		if h.seq == l.snapSeq && sameRows(h.ws.Staged(), b) {
			ws = h.ws
			h.ws = nil
			handoffs.Put(h)
			return ws, true
		}
		h.release()
	}
	ws = nn.GetWorkspace()
	if b.Slab != nil {
		ws.StageSlab(b.Slab)
	} else {
		_ = ws.Stage(b.X, l.dim) // every width passed ValidateShape
	}
	return ws, false
}

// sameRows reports whether t holds exactly the rows of b, bit for bit (−0 is
// not +0, and a NaN matches only its own bits): one packed compare of the
// slab, or one walk of the rows that checks each width as it compares.
func sameRows(t *linalg.Tensor, b stream.Batch) bool {
	if t == nil || t.Rows != b.Len() || t.Cols != b.Width() {
		return false
	}
	if b.Slab != nil {
		return linalg.SameBits(t.Data, b.Slab.Data)
	}
	return t.SameRows(b.X)
}
