package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"freewayml/internal/linalg"
	"freewayml/internal/shift"
	"freewayml/internal/stream"
)

// TestDispatchSeverityGate pins the Pattern-B rows of DESIGN.md, "The
// dispatch table": CEC serves a sudden shift only when d_t reaches
// cecSeverityRatio times the stream's recent mean movement, or when there is
// no recent movement to compare with (HistoryMean == 0); below the gate the
// ensemble serves. The learner is set up so that CEC, when dispatched, wins
// its arbitration: a fresh short model, and two well-separated labeled blobs
// in the experience buffer, labeled against that model's predictions.
func TestDispatchSeverityGate(t *testing.T) {
	l, err := NewLearner(testConfig(), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	short, _ := l.DebugModels()
	centers := [][]float64{{-6, 0, 0}, {6, 0, 0}}
	labels := []int{0, 1}
	if p := short.Predict(centers); p[0] != p[1] {
		labels = []int{p[1], p[0]}
	}
	rng := rand.New(rand.NewSource(3))
	blobs := func(n int) ([][]float64, []int) {
		x, y := make([][]float64, n), make([]int, n)
		for i := range x {
			c := centers[i%2]
			x[i] = []float64{c[0] + 0.3*rng.NormFloat64(), c[1] + 0.3*rng.NormFloat64(), c[2] + 0.3*rng.NormFloat64()}
			y[i] = labels[i%2]
		}
		return x, y
	}
	// 16 experience points: a batch of 64 clusters with all of them (CEC
	// takes the len(batch)/4 nearest).
	expX, expY := blobs(16)
	if err := l.exp.AddBatch(expX, expY); err != nil {
		t.Fatal(err)
	}
	agree := 0
	for i, p := range short.Predict(expX) {
		if p == expY[i] {
			agree++
		}
	}
	if agree > len(expY)/2 {
		t.Fatalf("the fresh short model agrees with %d of %d experience labels: CEC could lose its arbitration", agree, len(expY))
	}
	batchX, _ := blobs(64)
	b := stream.Batch{X: batchX}

	const historyMean = 0.4
	gate := cecSeverityRatio * historyMean
	for _, c := range []struct {
		name                  string
		distance, historyMean float64
		want                  Strategy
	}{
		{"just below the gate", math.Nextafter(gate, 0), historyMean, StrategyEnsemble},
		{"at the gate", gate, historyMean, StrategyCEC},
		{"no history", 1, 0, StrategyCEC},
	} {
		obs := shift.Observation{Pattern: shift.PatternB, Distance: c.distance, HistoryMean: c.historyMean, YBar: linalg.Vector{0, 0}}
		var res Result
		if err := l.infer(context.Background(), b, obs, &res, nil); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Strategy != c.want {
			t.Errorf("%s (d_t %v, history mean %v): dispatched %v, want %v", c.name, c.distance, c.historyMean, res.Strategy, c.want)
		}
	}
}
