package model

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"

	"freewayml/internal/nn"
)

// StreamingNB is an incremental Gaussian naive Bayes classifier: per-class,
// per-feature running means and variances updated in closed form — no
// gradients, no learning rate. It is the cheapest member of the model zoo
// and a natural fit for very high-rate streams where even one SGD pass per
// batch is too expensive.
type StreamingNB struct {
	dim     int
	classes int

	count []float64   // per-class sample counts
	mean  [][]float64 // [class][feature]
	m2    [][]float64 // [class][feature] sum of squared deviations
	total float64
}

// nbState is the gob-serialized form of a StreamingNB.
type nbState struct {
	Dim, Classes int
	Count        []float64
	Mean, M2     [][]float64
	Total        float64
}

// NewStreamingNB builds an incremental Gaussian naive Bayes model.
func NewStreamingNB(dim, classes int) (*StreamingNB, error) {
	if dim < 1 || classes < 2 {
		return nil, errors.New("model: StreamingNB needs dim >= 1 and classes >= 2")
	}
	nb := &StreamingNB{dim: dim, classes: classes}
	nb.alloc()
	return nb, nil
}

func (nb *StreamingNB) alloc() {
	nb.count = make([]float64, nb.classes)
	nb.mean = make([][]float64, nb.classes)
	nb.m2 = make([][]float64, nb.classes)
	for c := range nb.mean {
		nb.mean[c] = make([]float64, nb.dim)
		nb.m2[c] = make([]float64, nb.dim)
	}
	nb.total = 0
}

// Name returns "StreamingNB".
func (nb *StreamingNB) Name() string { return "StreamingNB" }

// InDim returns the feature dimensionality.
func (nb *StreamingNB) InDim() int { return nb.dim }

// NumClasses returns the label count.
func (nb *StreamingNB) NumClasses() int { return nb.classes }

// Net returns nil: naive Bayes has no gradient substrate; mechanisms that
// need direct gradient access (A-GEM, pre-compute) do not apply to it.
func (nb *StreamingNB) Net() *nn.Network { return nil }

// nbVarianceFloor keeps the per-feature variance away from zero so a
// constant feature cannot produce infinite likelihoods.
const nbVarianceFloor = 1e-6

// Fit folds the batch into the running class statistics. The returned
// "loss" is the mean negative log-likelihood of the batch before the
// update, for parity with the gradient models.
func (nb *StreamingNB) Fit(x [][]float64, y []int) (float64, error) {
	if len(x) == 0 || len(x) != len(y) {
		return 0, errors.New("model: StreamingNB Fit needs matching x/y")
	}
	var nll float64
	for i, row := range x {
		if len(row) != nb.dim {
			return 0, fmt.Errorf("model: StreamingNB row width %d, want %d", len(row), nb.dim)
		}
		c := y[i]
		if c < 0 || c >= nb.classes {
			return 0, fmt.Errorf("model: StreamingNB label %d outside [0,%d)", c, nb.classes)
		}
		nll += -nb.logJoint(row, c)
		// Welford update of the class statistics.
		nb.count[c]++
		nb.total++
		for j, v := range row {
			delta := v - nb.mean[c][j]
			nb.mean[c][j] += delta / nb.count[c]
			nb.m2[c][j] += delta * (v - nb.mean[c][j])
		}
	}
	return nll / float64(len(x)), nil
}

// logJoint returns log p(x, c) up to an additive constant.
func (nb *StreamingNB) logJoint(x []float64, c int) float64 {
	if nb.total == 0 || nb.count[c] == 0 {
		return -math.Log(float64(nb.classes)) // uninformed prior
	}
	logp := math.Log(nb.count[c] / nb.total)
	for j, v := range x {
		variance := nbVarianceFloor
		if nb.count[c] > 1 {
			variance = nb.m2[c][j]/nb.count[c] + nbVarianceFloor
		}
		d := v - nb.mean[c][j]
		logp += -0.5*math.Log(2*math.Pi*variance) - d*d/(2*variance)
	}
	return logp
}

// Predict returns the maximum a-posteriori class per sample.
func (nb *StreamingNB) Predict(x [][]float64) []int {
	out := make([]int, len(x))
	for i, row := range x {
		best, bestLL := 0, math.Inf(-1)
		for c := 0; c < nb.classes; c++ {
			if ll := nb.logJoint(row, c); ll > bestLL {
				best, bestLL = c, ll
			}
		}
		out[i] = best
	}
	return out
}

// PredictProba returns the normalized class posteriors per sample.
func (nb *StreamingNB) PredictProba(x [][]float64) [][]float64 {
	out := make([][]float64, len(x))
	for i, row := range x {
		lls := make([]float64, nb.classes)
		for c := range lls {
			lls[c] = nb.logJoint(row, c)
		}
		out[i] = nn.Softmax(lls)
	}
	return out
}

// Snapshot serializes the class statistics.
func (nb *StreamingNB) Snapshot() ([]byte, error) {
	var buf bytes.Buffer
	state := nbState{Dim: nb.dim, Classes: nb.classes, Count: nb.count, Mean: nb.mean, M2: nb.m2, Total: nb.total}
	if err := gob.NewEncoder(&buf).Encode(state); err != nil {
		return nil, fmt.Errorf("model: StreamingNB snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// Restore loads class statistics from a Snapshot with the same shape.
func (nb *StreamingNB) Restore(snapshot []byte) error {
	var state nbState
	if err := gob.NewDecoder(bytes.NewReader(snapshot)).Decode(&state); err != nil {
		return fmt.Errorf("model: StreamingNB restore: %w", err)
	}
	if state.Dim != nb.dim || state.Classes != nb.classes {
		return fmt.Errorf("model: StreamingNB restore shape %dx%d, want %dx%d",
			state.Dim, state.Classes, nb.dim, nb.classes)
	}
	nb.count = state.Count
	nb.mean = state.Mean
	nb.m2 = state.M2
	nb.total = state.Total
	return nil
}

// Freeze freezes the model as a deep copy.
func (nb *StreamingNB) Freeze() Frozen { return frozenClone{nb.Clone()} }

// Clone returns an independent deep copy.
func (nb *StreamingNB) Clone() Model {
	c := &StreamingNB{dim: nb.dim, classes: nb.classes, total: nb.total}
	c.count = append([]float64(nil), nb.count...)
	c.mean = make([][]float64, nb.classes)
	c.m2 = make([][]float64, nb.classes)
	for i := range nb.mean {
		c.mean[i] = append([]float64(nil), nb.mean[i]...)
		c.m2[i] = append([]float64(nil), nb.m2[i]...)
	}
	return c
}
