package strategy

import (
	"math"

	"freewayml/internal/model"
	"freewayml/internal/nn"
)

// RecoveryEvent records one divergence the watchdog detected and what it
// did about it.
type RecoveryEvent struct {
	// Batch is the stream position at detection time.
	Batch int
	// Model names the affected granularity ("gran0", "gran1", …, "long").
	Model string
	// Reason is what tripped the watchdog: "non-finite loss",
	// "non-finite weights", or "loss explosion".
	Reason string
	// RolledBack reports whether the last-healthy parameters were restored.
	// It is false only when the model diverged before any healthy update
	// was retained (nothing to roll back to).
	RolledBack bool
}

// WatchdogConfig configures the divergence watchdog. The zero value means
// "on".
type WatchdogConfig struct {
	// Disabled turns divergence monitoring and rollback off entirely.
	Disabled bool
}

// Watchdog guards one model against divergence. After every update it
// checks the update's loss and the model's weights; while they stay
// healthy it keeps one copy of the last healthy parameters, and on NaN/Inf
// weights or a loss explosion it rolls the model back to that copy. The
// paper's stability claim (SI, Eq. 16) assumes the learner's weights stay in
// a sane region; the watchdog enforces that assumption against faults SGD
// cannot recover from on its own.
type Watchdog struct {
	name string
	// The last healthy parameters: after a healthy update the model frozen
	// (model.Freeze), which the ensemble also publishes while it is current;
	// after a wholesale replacement the image it restored (RetainImage), in a
	// buffer reused across replacements, with frozen nil. Both nil until the
	// first.
	frozen *nn.Frozen
	img    []byte
	// pool is the ensemble's: the watchdog's copies come from its free list,
	// and the rollback target is one of a copy's holders. Nil for a watchdog
	// of no ensemble, which allocates every copy.
	pool *copyPool

	meanLoss float64 // EMA of healthy batch losses
	updates  int
}

const (
	// watchdogExplosionRatio flags a loss explosion when a batch's loss
	// exceeds this multiple of the running healthy-loss mean.
	watchdogExplosionRatio = 50.0
	// watchdogWarmup is how many healthy updates must accumulate before
	// loss-explosion checks apply; NaN/Inf checks always apply.
	watchdogWarmup = 8
	// watchdogLossEMA smooths the healthy-loss reference.
	watchdogLossEMA = 0.9
)

// NewWatchdog builds a watchdog for the named model.
func NewWatchdog(name string) *Watchdog { return &Watchdog{name: name} }

// Retain makes m's current parameters the rollback target. The copy is a
// Freeze, taken only when the parameters moved since the last one: the
// ensemble publishes that same view while it is current, so a healthy update
// pays for one copy of its parameters. A nil watchdog (monitoring disabled)
// retains nothing.
func (w *Watchdog) Retain(m model.Model) {
	if w == nil {
		return
	}
	if !w.frozen.Freezes(m.Net()) {
		w.retain(w.pool.freeze(m))
	}
}

// retain makes f the rollback target, holding it in the pool in place of the
// target it replaces.
func (w *Watchdog) retain(f *nn.Frozen) {
	w.pool.hold(f)
	w.pool.drop(w.frozen)
	w.frozen = f
}

// RetainImage makes img, the parameter image just restored into the model,
// the rollback target. The ensemble calls it whenever it replaces a model's
// parameters wholesale (checkpoint restore, knowledge adoption), so a later
// rollback returns to those and not to what they replaced — or, in a fresh
// process, to nothing. The image is copied into a buffer reused across
// replacements: an adoption, whose batch then trains the model and freezes
// it, pays for no freeze of its own. The frozen target it replaces loses the
// watchdog as a holder. A nil watchdog retains nothing.
func (w *Watchdog) RetainImage(img []byte) {
	if w == nil {
		return
	}
	w.pool.drop(w.frozen)
	w.frozen, w.img = nil, append(w.img[:0], img...)
}

// rollback restores the retained parameters (RestoreFrozen and Restore reset
// the optimizer too) and reports whether it could.
func (w *Watchdog) rollback(m model.Model) bool {
	switch {
	case w.frozen != nil:
		return m.RestoreFrozen(w.frozen) == nil
	case w.img != nil:
		return m.Restore(w.img) == nil
	}
	return false
}

// current returns a copy of m's parameters as they stand and whether every
// value is finite. While they have not moved since the rollback target was
// frozen that is the target, and they are scanned where they lie; otherwise
// they are frozen into a copy from the pool, which scans as it copies.
func (w *Watchdog) current(m model.Model) (*nn.Frozen, bool) {
	if w.frozen.Freezes(m.Net()) {
		return w.frozen, m.Net().ParamsFinite()
	}
	f := w.pool.freeze(m)
	return f, f.Finite()
}

// Check inspects the model right after an update. loss is the update's
// batch loss, or negative when the update produced none (a window close
// with no training rows); weight checks still apply then. A nil return
// means healthy, and the parameters, frozen by the same pass that checked
// them, become the rollback target; otherwise the returned event describes the
// divergence and whether the model was rolled back, and the copy goes back to
// the pool.
func (w *Watchdog) Check(m model.Model, loss float64, batch int) *RecoveryEvent {
	reason := ""
	var f *nn.Frozen
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		reason = "non-finite loss"
	} else {
		var finite bool
		switch f, finite = w.current(m); {
		case !finite:
			reason = "non-finite weights"
		case loss >= 0 && w.updates >= watchdogWarmup && loss > watchdogExplosionRatio*(w.meanLoss+1e-6):
			reason = "loss explosion"
		}
	}
	if reason == "" {
		w.updates++
		if loss >= 0 {
			if w.updates == 1 {
				w.meanLoss = loss
			} else {
				w.meanLoss = watchdogLossEMA*w.meanLoss + (1-watchdogLossEMA)*loss
			}
		}
		w.retain(f)
		return nil
	}
	if f != w.frozen {
		w.pool.drop(f)
	}
	return &RecoveryEvent{Batch: batch, Model: w.name, Reason: reason, RolledBack: w.rollback(m)}
}
