package model

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"

	"freewayml/internal/drift"
	"freewayml/internal/nn"
)

// StreamingARF is an Adaptive Random Forest (Gomes et al. 2017) built from
// this package's Hoeffding trees: each member trains on a Poisson(λ)
// online-bagged view of the stream and carries its own drift detector;
// a member whose error distribution shifts is replaced by a fresh tree.
// Predictions average the members' leaf posteriors.
type StreamingARF struct {
	dim     int
	classes int
	treeCfg HTConfig
	lambda  float64
	members []arfMember
	rng     *rand.Rand
	resets  int
}

type arfMember struct {
	tree *StreamingHT
	det  *drift.ADWIN
}

// NewStreamingARF builds a forest of n trees with Poisson(λ=6) bagging, the
// customary ARF setting.
func NewStreamingARF(dim, classes, n int, cfg HTConfig, seed int64) (*StreamingARF, error) {
	if n < 1 {
		return nil, errors.New("model: ARF needs at least one tree")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f := &StreamingARF{dim: dim, classes: classes, treeCfg: cfg, lambda: 6, rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < n; i++ {
		tree, err := NewStreamingHT(dim, classes, cfg)
		if err != nil {
			return nil, err
		}
		f.members = append(f.members, arfMember{tree: tree, det: drift.NewADWIN(0.002, 200)})
	}
	return f, nil
}

// Name returns "StreamingARF".
func (f *StreamingARF) Name() string { return "StreamingARF" }

// InDim returns the feature dimensionality.
func (f *StreamingARF) InDim() int { return f.dim }

// NumClasses returns the label count.
func (f *StreamingARF) NumClasses() int { return f.classes }

// Net returns nil: forests have no gradient substrate.
func (f *StreamingARF) Net() *nn.Network { return nil }

// Trees returns the member count; Resets how many drift replacements fired.
func (f *StreamingARF) Trees() int  { return len(f.members) }
func (f *StreamingARF) Resets() int { return f.resets }

// poisson draws from Poisson(λ) by inversion (λ is small and fixed).
func (f *StreamingARF) poisson() int {
	l := f.rng.ExpFloat64()
	k := 0
	sum := l
	for sum < f.lambda {
		k++
		sum += f.rng.ExpFloat64()
	}
	return k
}

// Fit online-bags the batch into every member, feeds each member's
// per-batch error rate to its detector, and replaces drifted trees.
func (f *StreamingARF) Fit(x [][]float64, y []int) (float64, error) {
	if len(x) == 0 || len(x) != len(y) {
		return 0, errors.New("model: ARF Fit needs matching x/y")
	}
	var lastLoss float64
	for m := range f.members {
		mem := &f.members[m]
		// Detector signal: the member's pre-update error on this batch.
		pred := mem.tree.Predict(x)
		errs := 0
		for i := range pred {
			if pred[i] != y[i] {
				errs++
			}
		}
		if mem.det.Add(float64(errs) / float64(len(pred))) {
			fresh, err := NewStreamingHT(f.dim, f.classes, f.treeCfg)
			if err != nil {
				return 0, err
			}
			mem.tree = fresh
			mem.det.Reset()
			f.resets++
		}
		// Poisson online bagging: each sample appears k times for this tree.
		var bx [][]float64
		var by []int
		for i := range x {
			for k := f.poisson(); k > 0; k-- {
				bx = append(bx, x[i])
				by = append(by, y[i])
			}
		}
		if len(bx) == 0 {
			continue
		}
		loss, err := mem.tree.Fit(bx, by)
		if err != nil {
			return 0, err
		}
		lastLoss = loss
	}
	return lastLoss, nil
}

// PredictProba averages the members' posteriors.
func (f *StreamingARF) PredictProba(x [][]float64) [][]float64 {
	out := make([][]float64, len(x))
	for i := range out {
		out[i] = make([]float64, f.classes)
	}
	for m := range f.members {
		proba := f.members[m].tree.PredictProba(x)
		for i, p := range proba {
			for c, v := range p {
				out[i][c] += v
			}
		}
	}
	inv := 1 / float64(len(f.members))
	for i := range out {
		for c := range out[i] {
			out[i][c] *= inv
		}
	}
	return out
}

// Predict returns the averaged-posterior argmax per sample.
func (f *StreamingARF) Predict(x [][]float64) []int {
	proba := f.PredictProba(x)
	out := make([]int, len(x))
	for i, p := range proba {
		out[i] = nn.Argmax(p)
	}
	return out
}

// arfState is the gob-serialized forest.
type arfState struct {
	Dim, Classes int
	Cfg          HTConfig
	Trees        [][]byte
	Resets       int
}

// Snapshot serializes every member tree (detector state restarts fresh).
func (f *StreamingARF) Snapshot() ([]byte, error) {
	state := arfState{Dim: f.dim, Classes: f.classes, Cfg: f.treeCfg, Resets: f.resets}
	for m := range f.members {
		snap, err := f.members[m].tree.Snapshot()
		if err != nil {
			return nil, err
		}
		state.Trees = append(state.Trees, snap)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(state); err != nil {
		return nil, fmt.Errorf("model: ARF snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// Restore loads a forest with the same shape and member count.
func (f *StreamingARF) Restore(snapshot []byte) error {
	var state arfState
	if err := gob.NewDecoder(bytes.NewReader(snapshot)).Decode(&state); err != nil {
		return fmt.Errorf("model: ARF restore: %w", err)
	}
	if state.Dim != f.dim || state.Classes != f.classes {
		return fmt.Errorf("model: ARF restore shape %dx%d, want %dx%d", state.Dim, state.Classes, f.dim, f.classes)
	}
	if len(state.Trees) != len(f.members) {
		return errors.New("model: ARF restore member count mismatch")
	}
	for m := range f.members {
		tree, err := NewStreamingHT(f.dim, f.classes, state.Cfg)
		if err != nil {
			return err
		}
		if err := tree.Restore(state.Trees[m]); err != nil {
			return err
		}
		f.members[m].tree = tree
		f.members[m].det.Reset()
	}
	f.treeCfg = state.Cfg
	f.resets = state.Resets
	return nil
}

// Freeze freezes the model as a deep copy.
func (f *StreamingARF) Freeze() Frozen { return frozenClone{f.Clone()} }

// Clone deep-copies the forest (fresh detectors, distinct bagging RNG).
func (f *StreamingARF) Clone() Model {
	fresh, _ := NewStreamingARF(f.dim, f.classes, len(f.members), f.treeCfg, f.rng.Int63())
	if snap, err := f.Snapshot(); err == nil {
		_ = fresh.Restore(snap)
	}
	return fresh
}
