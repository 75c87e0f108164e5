package core

import (
	"math"
	"testing"

	"freewayml/internal/datasets"
	"freewayml/internal/linalg"
	"freewayml/internal/stream"
)

// sameObservation requires two results' detector observations to be equal,
// bit for bit: the projected mean and the shift distance.
func sameObservation(t *testing.T, k int, ra, rb Result) {
	t.Helper()
	a, b := ra.Observation, rb.Observation
	if len(a.YBar) != len(b.YBar) || math.Float64bits(a.Distance) != math.Float64bits(b.Distance) || ra.Pattern != rb.Pattern {
		t.Fatalf("batch %d: observed %v at %v (%v), the twin %v at %v (%v)", k, a.YBar, a.Distance, ra.Pattern, b.YBar, b.Distance, rb.Pattern)
	}
	for i := range a.YBar {
		if math.Float64bits(a.YBar[i]) != math.Float64bits(b.YBar[i]) {
			t.Fatalf("batch %d: projected mean %d is %v, the twin's %v", k, i, a.YBar[i], b.YBar[i])
		}
	}
}

// TestSlabAndMeanHandoffTwins runs two schedules through four learners that
// must stay twins, bit for bit, from the first batch on: one that infers and
// then processes the rows, one that processes the rows alone, and two that
// process the batch as a slab (stream.Batch.Slab, the form a decoded frame
// travels in), one after an Infer of its rows and one without. The first
// batches are inferred during the detector's warm-up, when the snapshot has
// no projection and the Infer takes no batch mean: those Process calls take
// their mean themselves; later ones take the Infer's. The slab learners stage
// a miss with one copy and compare a hit against the slab.
func TestSlabAndMeanHandoffTwins(t *testing.T) {
	for i, name := range []string{"NSL-KDD", "Electricity"} {
		src, err := datasets.Build(name, 256, 1100+int64(i))
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		rows, alone := handoffLearner(t, cfg, src), handoffLearner(t, cfg, src)
		slabHit, slabMiss := handoffLearner(t, cfg, src), handoffLearner(t, cfg, src)
		warm := 0
		for k, bt := range stream.Collect(src, 0)[:60] {
			if rows.ModelSnapshot().Proj == nil {
				warm++
			}
			var x linalg.Tensor
			x.FromRows(bt.X, src.Dim())
			sb := stream.Batch{Seq: bt.Seq, Slab: &x, Y: bt.Y, Truth: bt.Truth}
			infer(t, rows, bt.X)
			infer(t, slabHit, bt.X)
			r0, r1 := process(t, rows, bt), process(t, alone, bt)
			r2, r3 := process(t, slabHit, sb), process(t, slabMiss, sb)
			for _, r := range []struct {
				l   *Learner
				res Result
			}{{alone, r1}, {slabHit, r2}, {slabMiss, r3}} {
				sameLearners(t, k, rows, r.l, r0, r.res)
				sameObservation(t, k, r0, r.res)
			}
		}
		if warm == 0 || warm == 60 {
			t.Fatalf("%s: %d of 60 Infer calls read a warm-up snapshot, want some and not all", name, warm)
		}
		for _, c := range []struct {
			name         string
			l            *Learner
			hits, misses int64
		}{{"rows", rows, 60, 0}, {"slab after Infer", slabHit, 60, 0}, {"slab alone", slabMiss, 0, 60}} {
			if h, m := c.l.obs.handoffHit.Value(), c.l.obs.handoffMiss.Value(); h != c.hits || m != c.misses {
				t.Errorf("%s, %s: %d hits and %d misses, want %d and %d", name, c.name, h, m, c.hits, c.misses)
			}
		}
	}
}
