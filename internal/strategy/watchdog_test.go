package strategy

import (
	"math"
	"math/rand"
	"testing"

	"freewayml/internal/linalg"
	"freewayml/internal/model"
	"freewayml/internal/nn"
)

func trainedMLP(t *testing.T, seed int64, steps int) model.Model {
	t.Helper()
	m, err := model.NewStreamingMLP(reuseDim, reuseClasses, model.DefaultHyper())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < steps; i++ {
		b, _ := reuseBatch(rng)
		if _, err := m.Fit(b.X, b.Y); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func poison(m model.Model) {
	for _, p := range m.Net().Params() {
		p.W[len(p.W)/2] = math.Inf(1)
	}
}

// TestWatchdogFlatCopy: for a network model the last-healthy state is one
// flat copy in a reused buffer — a healthy Check allocates nothing once warm
// — and a rollback restores exactly the retained bits.
func TestWatchdogFlatCopy(t *testing.T) {
	m := trainedMLP(t, 41, 3)
	w := NewWatchdog("gran0")

	// Nothing retained yet: the divergence is reported, not repaired.
	poison(m)
	if ev := w.Check(m, 0.5, 7); ev == nil || ev.RolledBack || ev.Reason != "non-finite weights" || ev.Batch != 7 {
		t.Fatalf("event = %+v, want an unrepaired non-finite-weights divergence at batch 7", ev)
	}

	m = trainedMLP(t, 41, 3)
	if ev := w.Check(m, 0.5, 8); ev != nil {
		t.Fatalf("healthy update flagged: %+v", ev)
	}
	healthy := m.Net().AppendFlatParams(nil)
	if allocs := testing.AllocsPerRun(20, func() { w.Check(m, 0.5, 9) }); allocs != 0 {
		t.Errorf("a warm healthy Check allocates %.0f times, want 0", allocs)
	}
	poison(m)
	if ev := w.Check(m, 0.5, 10); ev == nil || !ev.RolledBack {
		t.Fatalf("event = %+v, want a rollback", ev)
	}
	got := m.Net().AppendFlatParams(nil)
	for i := range healthy {
		if math.Float64bits(got[i]) != math.Float64bits(healthy[i]) {
			t.Fatalf("weight %d after rollback = %v, last healthy was %v", i, got[i], healthy[i])
		}
	}
	// A non-finite loss rolls back too, finite weights or not.
	if ev := w.Check(m, math.NaN(), 11); ev == nil || ev.Reason != "non-finite loss" || !ev.RolledBack {
		t.Fatalf("event = %+v, want a non-finite-loss rollback", ev)
	}

	var off *Watchdog
	off.Retain(m) // a disabled watchdog retains nothing and does not panic
}

// TestAdoptShortBecomesRollbackTarget: knowledge adoption replaces the short
// model's parameters; a divergence right after it must return to the adopted
// parameters, not silently undo the adoption.
func TestAdoptShortBecomesRollbackTarget(t *testing.T) {
	e := reuseEnsemble(t, []int{1}, func(m model.Model) model.Model { return m })
	g := e.grans[0]
	if ev := g.wd.Check(g.Model, 0.5, 1); ev != nil { // retains the initial weights
		t.Fatalf("healthy update flagged: %+v", ev)
	}
	preserved := trainedMLP(t, 44, 5)
	snap, err := preserved.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AdoptShort(snap, linalg.Vector{0, 0}); err != nil {
		t.Fatal(err)
	}
	poison(g.Model)
	if ev := g.wd.Check(g.Model, 0.5, 2); ev == nil || !ev.RolledBack {
		t.Fatalf("event = %+v, want a rollback", ev)
	}
	sameWeights(t, "short model after the rollback vs the adopted snapshot", g.Model, preserved)
}

// TestHealthyUpdatePublishesTheRetainedFreeze: a healthy update pays for one
// copy of its parameters. The watchdog's rollback target is the member
// frozen, and the publication after the update is that same view, not a
// second copy; an update the watchdog rolls back publishes the restored
// parameters, frozen anew.
func TestHealthyUpdatePublishesTheRetainedFreeze(t *testing.T) {
	e := reuseEnsemble(t, []int{1, 2}, func(m model.Model) model.Model { return m })
	rng := rand.New(rand.NewSource(3))
	for k := 0; k < 6; k++ {
		b, obs := reuseBatch(rng)
		step(t, e, b, obs, nil)
		members := e.PublishSnapshot()
		for i, g := range e.grans {
			if (k+1)%g.Every != 0 {
				continue // nothing pending trained this batch
			}
			if g.wd.frozen == nil || members[i].Model != g.wd.frozen {
				t.Fatalf("batch %d: member %d published a freeze other than its watchdog's rollback target", k, i)
			}
		}
	}
	g := e.grans[0]
	retained := g.wd.frozen
	poison(g.Model)
	if ev := g.wd.Check(g.Model, 0.5, 99); ev == nil || !ev.RolledBack {
		t.Fatalf("event = %+v, want a rollback", ev)
	}
	g.ver++
	if g.wd.frozen != retained {
		t.Fatal("a rollback replaced the rollback target")
	}
	published := e.PublishSnapshot()[0].Model.(*nn.Frozen)
	if published == retained || !published.Freezes(g.Model.Net()) {
		t.Fatal("the rolled-back member was not frozen anew")
	}
}
