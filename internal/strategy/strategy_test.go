package strategy

import (
	"math"
	"testing"

	"freewayml/internal/linalg"
)

func TestNormalizeDistances(t *testing.T) {
	inf := math.Inf(1)
	members := []member{
		{distance: 1}, {distance: 3}, {distance: inf},
	}
	normalizeDistances(members)
	// Finite distances are rescaled by their mean (2); the untrained
	// member's +Inf must survive so its kernel weight vanishes.
	if members[0].distance != 0.5 || members[1].distance != 1.5 {
		t.Errorf("normalized = %v, %v; want 0.5, 1.5", members[0].distance, members[1].distance)
	}
	if !math.IsInf(members[2].distance, 1) {
		t.Errorf("infinite distance rescaled to %v", members[2].distance)
	}

	// Degenerate inputs are left untouched.
	all := []member{{distance: inf}, {distance: inf}}
	normalizeDistances(all)
	if !math.IsInf(all[0].distance, 1) || !math.IsInf(all[1].distance, 1) {
		t.Error("all-infinite members were rescaled")
	}
	zero := []member{{distance: 0}, {distance: 0}}
	normalizeDistances(zero)
	if zero[0].distance != 0 || zero[1].distance != 0 {
		t.Error("zero-mean members were rescaled")
	}
}

func TestCentroidDistance(t *testing.T) {
	a := linalg.Vector{0, 3}
	b := linalg.Vector{4, 0}
	if d := centroidDistance(a, b); d != 5 {
		t.Errorf("distance = %v, want 5", d)
	}
	// Missing or shape-mismatched centroids mean "untrained": +Inf.
	for _, tc := range []struct {
		y, c linalg.Vector
	}{
		{nil, b}, {a, nil}, {a, linalg.Vector{1}},
	} {
		if d := centroidDistance(tc.y, tc.c); !math.IsInf(d, 1) {
			t.Errorf("centroidDistance(%v, %v) = %v, want +Inf", tc.y, tc.c, d)
		}
	}
}

func TestEnsureTraceNilSafe(t *testing.T) {
	tr := ensureTrace(nil)
	if tr == nil {
		t.Fatal("ensureTrace(nil) returned nil")
	}
	// The no-op trace must absorb every hook without panicking, so
	// strategies never guard their trace calls.
	t0 := tr.StageStart()
	tr.StageDone(StagePredict, t0)
	tr.Weights([]float64{0.5, 0.5})
	tr.WindowClosed()
}

func TestStageNamesCoverConstants(t *testing.T) {
	want := []string{
		StageGuard, StageShiftDetect, StagePredict, StageCluster,
		StageKnowledgeLookup, StageShortUpdate, StageWindowPush, StageLongUpdate,
	}
	if len(StageNames) != len(want) {
		t.Fatalf("StageNames has %d entries, want %d", len(StageNames), len(want))
	}
	for i, s := range want {
		if StageNames[i] != s {
			t.Errorf("StageNames[%d] = %q, want %q", i, StageNames[i], s)
		}
	}
}
