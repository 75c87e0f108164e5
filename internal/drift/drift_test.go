package drift

import (
	"math/rand"
	"testing"
)

// feed pushes n observations from gen and returns whether any triggered.
func feed(d Detector, n int, gen func(i int) float64) bool {
	detected := false
	for i := 0; i < n; i++ {
		if d.Add(gen(i)) {
			detected = true
		}
	}
	return detected
}

func TestADWINStableStreamNoDetection(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewADWIN(0.002, 500)
	if feed(a, 400, func(int) float64 {
		if rng.Float64() < 0.2 {
			return 1
		}
		return 0
	}) {
		t.Error("ADWIN detected drift on a stationary stream")
	}
	if a.WindowLen() == 0 {
		t.Error("window empty after stable feed")
	}
}

func TestADWINDetectsMeanShift(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := NewADWIN(0.002, 500)
	feed(a, 200, func(int) float64 {
		if rng.Float64() < 0.1 {
			return 1
		}
		return 0
	})
	if !feed(a, 200, func(int) float64 {
		if rng.Float64() < 0.9 {
			return 1
		}
		return 0
	}) {
		t.Error("ADWIN missed a 0.1→0.9 error-rate shift")
	}
	// After detection the window should have dropped the old regime.
	if m := a.Mean(); m < 0.5 {
		t.Errorf("post-detection window mean = %v, want high", m)
	}
}

func TestADWINDefaultsAndReset(t *testing.T) {
	a := NewADWIN(-1, -1)
	if a.Delta != 0.002 || a.MaxWindow != 1000 {
		t.Errorf("defaults not applied: %+v", a)
	}
	a.Add(1)
	a.Reset()
	if a.WindowLen() != 0 || a.Mean() != 0 {
		t.Error("Reset did not clear")
	}
}

func TestADWINWindowBounded(t *testing.T) {
	a := NewADWIN(0.002, 50)
	for i := 0; i < 200; i++ {
		a.Add(0.5)
	}
	if a.WindowLen() > 50 {
		t.Errorf("window grew to %d", a.WindowLen())
	}
}

func TestDetectorInterfaceCompliance(t *testing.T) {
	var _ Detector = NewADWIN(0, 0)
}
