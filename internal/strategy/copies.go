package strategy

import (
	"freewayml/internal/model"
	"freewayml/internal/nn"
)

// copyPool is the bookkeeping of the parameter copies (nn.Frozen) an ensemble
// makes, on the training goroutine only. A copy has three kinds of holder: the
// ensemble's last publication of a member, a watchdog's rollback target, and
// every published snapshot not yet released (Ensemble.Retire). When
// the last holder drops a copy, its storage goes to the free list, and the
// next freeze fills it instead of fresh memory; the *nn.Frozen itself is never
// reused. Every member of one ensemble has the same number of parameters, so
// one list serves them all. A nil pool (a watchdog of no ensemble) allocates
// every copy and tracks none.
type copyPool struct {
	held []heldCopy  // the copies the pool may still recycle
	free [][]float64 // storage no copy uses any more
}

// heldCopy is one copy the pool made, with how many holders it has.
type heldCopy struct {
	f       *nn.Frozen
	holders int
}

// freeze copies m's parameters into storage from the free list, or fresh
// storage when the list is empty. The copy starts with no holder: hold it, or
// drop it to give its storage straight back.
func (c *copyPool) freeze(m model.Model) *nn.Frozen {
	if c == nil {
		return m.Freeze(nil)
	}
	var buf []float64
	if k := len(c.free); k > 0 {
		buf, c.free[k-1] = c.free[k-1], nil
		c.free = c.free[:k-1]
	}
	f := m.Freeze(buf)
	c.held = append(c.held, heldCopy{f: f})
	return f
}

// find returns f's position in held, or -1 for a copy the pool does not track
// (nil, another pool's, or one forgotten).
func (c *copyPool) find(f *nn.Frozen) int {
	if c == nil || f == nil {
		return -1
	}
	for i := range c.held {
		if c.held[i].f == f {
			return i
		}
	}
	return -1
}

// hold adds a holder to f.
func (c *copyPool) hold(f *nn.Frozen) {
	if i := c.find(f); i >= 0 {
		c.held[i].holders++
	}
}

// drop takes a holder from f (nil-safe). A copy left with none is retired and
// its storage goes to the free list.
func (c *copyPool) drop(f *nn.Frozen) {
	i := c.find(f)
	if i < 0 {
		return
	}
	if c.held[i].holders--; c.held[i].holders > 0 {
		return
	}
	c.free = append(c.free, f.Retire())
	c.untrack(i)
}

// forget stops tracking f: whatever holds it now, its storage is never
// recycled. A pinned snapshot's members are forgotten.
func (c *copyPool) forget(f *nn.Frozen) {
	if i := c.find(f); i >= 0 {
		c.untrack(i)
	}
}

// untrack removes held[i].
func (c *copyPool) untrack(i int) {
	last := len(c.held) - 1
	c.held[i] = c.held[last]
	c.held[last] = heldCopy{}
	c.held = c.held[:last]
}
