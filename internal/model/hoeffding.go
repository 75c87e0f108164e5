package model

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"

	"freewayml/internal/nn"
)

// StreamingHT is a Hoeffding tree (VFDT, Domingos & Hulten 2000) for
// numeric features: an incremental decision tree that grows a split only
// when the Hoeffding bound guarantees the observed best split would, with
// high probability, remain best given infinite data. Leaves keep per-class
// Gaussian estimators per feature (River's Gaussian splitter) both to score
// candidate thresholds and to refine leaf predictions with naive Bayes.
type StreamingHT struct {
	dim     int
	classes int
	cfg     HTConfig
	root    *htNode
	leaves  int
}

// HTConfig tunes tree growth.
type HTConfig struct {
	// GracePeriod is how many samples a leaf accumulates between split
	// attempts.
	GracePeriod int
	// Delta is the Hoeffding bound confidence (1e-7 in the original paper).
	Delta float64
	// TieThreshold forces a split when the top candidates are this close.
	TieThreshold float64
	// MaxLeaves bounds tree size; at the bound, leaves keep learning their
	// class statistics but stop splitting.
	MaxLeaves int
	// Candidates is how many thresholds per feature are evaluated.
	Candidates int
}

// DefaultHTConfig returns the customary VFDT parameters.
func DefaultHTConfig() HTConfig {
	return HTConfig{GracePeriod: 200, Delta: 1e-7, TieThreshold: 0.05, MaxLeaves: 64, Candidates: 8}
}

// Validate reports the first invalid field.
func (c HTConfig) Validate() error {
	switch {
	case c.GracePeriod < 1:
		return errors.New("model: HT GracePeriod must be >= 1")
	case c.Delta <= 0 || c.Delta >= 1:
		return errors.New("model: HT Delta must be in (0, 1)")
	case c.TieThreshold < 0:
		return errors.New("model: HT TieThreshold must be >= 0")
	case c.MaxLeaves < 1:
		return errors.New("model: HT MaxLeaves must be >= 1")
	case c.Candidates < 1:
		return errors.New("model: HT Candidates must be >= 1")
	}
	return nil
}

// htNode is one tree node; exported fields make the whole tree gob-able.
type htNode struct {
	// Internal node fields.
	Feature   int
	Threshold float64
	Left      *htNode
	Right     *htNode

	// Leaf fields: per-class counts and per-class per-feature Gaussians.
	Counts    []float64
	Mean      [][]float64 // [class][feature]
	M2        [][]float64
	SinceEval int
}

// isLeaf reports whether the node is a leaf.
func (n *htNode) isLeaf() bool { return n.Left == nil }

// NewStreamingHT builds an empty Hoeffding tree.
func NewStreamingHT(dim, classes int, cfg HTConfig) (*StreamingHT, error) {
	if dim < 1 || classes < 2 {
		return nil, errors.New("model: StreamingHT needs dim >= 1 and classes >= 2")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &StreamingHT{dim: dim, classes: classes, cfg: cfg}
	t.root = t.newLeaf()
	t.leaves = 1
	return t, nil
}

func (t *StreamingHT) newLeaf() *htNode {
	n := &htNode{Counts: make([]float64, t.classes)}
	n.Mean = make([][]float64, t.classes)
	n.M2 = make([][]float64, t.classes)
	for c := range n.Mean {
		n.Mean[c] = make([]float64, t.dim)
		n.M2[c] = make([]float64, t.dim)
	}
	return n
}

// Name returns "StreamingHT".
func (t *StreamingHT) Name() string { return "StreamingHT" }

// InDim returns the feature dimensionality.
func (t *StreamingHT) InDim() int { return t.dim }

// NumClasses returns the label count.
func (t *StreamingHT) NumClasses() int { return t.classes }

// Net returns nil: trees have no gradient substrate.
func (t *StreamingHT) Net() *nn.Network { return nil }

// Leaves reports the current leaf count (tree size).
func (t *StreamingHT) Leaves() int { return t.leaves }

// sortDown routes a sample to its leaf.
func (t *StreamingHT) sortDown(x []float64) *htNode {
	n := t.root
	for !n.isLeaf() {
		if x[n.Feature] <= n.Threshold {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n
}

// Fit observes each sample at its leaf and attempts splits every
// GracePeriod observations. The returned loss is the mean negative
// log-probability of the true class before the update.
func (t *StreamingHT) Fit(x [][]float64, y []int) (float64, error) {
	if len(x) == 0 || len(x) != len(y) {
		return 0, errors.New("model: StreamingHT Fit needs matching x/y")
	}
	var nll float64
	for i, row := range x {
		if len(row) != t.dim {
			return 0, fmt.Errorf("model: StreamingHT row width %d, want %d", len(row), t.dim)
		}
		c := y[i]
		if c < 0 || c >= t.classes {
			return 0, fmt.Errorf("model: StreamingHT label %d outside [0,%d)", c, t.classes)
		}
		p := t.probaOne(row)
		nll += -math.Log(math.Max(p[c], 1e-12))

		leaf := t.sortDown(row)
		leaf.Counts[c]++
		for j, v := range row {
			delta := v - leaf.Mean[c][j]
			leaf.Mean[c][j] += delta / leaf.Counts[c]
			leaf.M2[c][j] += delta * (v - leaf.Mean[c][j])
		}
		leaf.SinceEval++
		if leaf.SinceEval >= t.cfg.GracePeriod && t.leaves < t.cfg.MaxLeaves {
			leaf.SinceEval = 0
			t.trySplit(leaf)
		}
	}
	return nll / float64(len(x)), nil
}

// trySplit evaluates candidate splits at the leaf and splits when the
// Hoeffding bound is satisfied.
func (t *StreamingHT) trySplit(leaf *htNode) {
	total := 0.0
	for _, n := range leaf.Counts {
		total += n
	}
	if total < 2 {
		return
	}
	// A pure leaf has nothing to gain.
	nonzero := 0
	for _, n := range leaf.Counts {
		if n > 0 {
			nonzero++
		}
	}
	if nonzero < 2 {
		return
	}

	baseEntropy := entropy(leaf.Counts, total)
	// The Hoeffding comparison is between attributes: per feature, take its
	// best threshold's gain, then compare the two best features (adjacent
	// thresholds on one feature have near-identical gains and would defeat
	// the bound forever).
	best, second := 0.0, 0.0
	bestFeature, bestThreshold := -1, 0.0
	for j := 0; j < t.dim; j++ {
		featBest, featThr := 0.0, 0.0
		for _, thr := range t.candidates(leaf, j) {
			if gain := t.splitGain(leaf, j, thr, baseEntropy, total); gain > featBest {
				featBest, featThr = gain, thr
			}
		}
		if featBest > best {
			second = best
			best = featBest
			bestFeature, bestThreshold = j, featThr
		} else if featBest > second {
			second = featBest
		}
	}
	if bestFeature < 0 || best <= 0 {
		return
	}
	// Hoeffding bound over the info-gain range R = log2(classes).
	r := math.Log2(float64(t.classes))
	eps := math.Sqrt(r * r * math.Log(1/t.cfg.Delta) / (2 * total))
	if best-second <= eps && eps > t.cfg.TieThreshold {
		return
	}

	leaf.Feature = bestFeature
	leaf.Threshold = bestThreshold
	leaf.Left = t.newLeaf()
	leaf.Right = t.newLeaf()
	// Seed the children's class priors from the parent's Gaussian mass so
	// predictions do not collapse to uniform right after the split.
	for c := range leaf.Counts {
		if leaf.Counts[c] == 0 {
			continue
		}
		pLeft := gaussianCDF(bestThreshold, leaf.Mean[c][bestFeature], t.classVar(leaf, c, bestFeature))
		leaf.Left.Counts[c] = leaf.Counts[c] * pLeft
		leaf.Right.Counts[c] = leaf.Counts[c] * (1 - pLeft)
	}
	leaf.Counts = nil
	leaf.Mean = nil
	leaf.M2 = nil
	t.leaves++
}

// candidates proposes thresholds for feature j from the class Gaussians'
// span.
func (t *StreamingHT) candidates(leaf *htNode, j int) []float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for c := range leaf.Counts {
		if leaf.Counts[c] == 0 {
			continue
		}
		std := math.Sqrt(t.classVar(leaf, c, j))
		if v := leaf.Mean[c][j] - 2*std; v < lo {
			lo = v
		}
		if v := leaf.Mean[c][j] + 2*std; v > hi {
			hi = v
		}
	}
	if !(hi > lo) {
		return nil
	}
	out := make([]float64, t.cfg.Candidates)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i+1)/float64(t.cfg.Candidates+1)
	}
	return out
}

// classVar returns the class-conditional feature variance with a floor.
func (t *StreamingHT) classVar(leaf *htNode, c, j int) float64 {
	if leaf.Counts[c] < 2 {
		return nbVarianceFloor
	}
	return leaf.M2[c][j]/leaf.Counts[c] + nbVarianceFloor
}

// splitGain returns the information gain of splitting at (j, thr), with the
// per-class mass on each side estimated from the Gaussian CDF.
func (t *StreamingHT) splitGain(leaf *htNode, j int, thr, baseEntropy, total float64) float64 {
	left := make([]float64, t.classes)
	right := make([]float64, t.classes)
	var nl, nr float64
	for c := range leaf.Counts {
		if leaf.Counts[c] == 0 {
			continue
		}
		pLeft := gaussianCDF(thr, leaf.Mean[c][j], t.classVar(leaf, c, j))
		left[c] = leaf.Counts[c] * pLeft
		right[c] = leaf.Counts[c] * (1 - pLeft)
		nl += left[c]
		nr += right[c]
	}
	if nl == 0 || nr == 0 {
		return 0
	}
	return baseEntropy - (nl/total)*entropy(left, nl) - (nr/total)*entropy(right, nr)
}

// entropy returns the Shannon entropy (bits) of the counts.
func entropy(counts []float64, total float64) float64 {
	var h float64
	for _, n := range counts {
		if n <= 0 {
			continue
		}
		p := n / total
		h -= p * math.Log2(p)
	}
	return h
}

// gaussianCDF evaluates the normal CDF at x.
func gaussianCDF(x, mean, variance float64) float64 {
	return 0.5 * math.Erfc(-(x-mean)/(math.Sqrt(variance)*math.Sqrt2))
}

// probaOne returns the leaf's naive Bayes posterior for one sample.
func (t *StreamingHT) probaOne(x []float64) []float64 {
	leaf := t.sortDown(x)
	total := 0.0
	for _, n := range leaf.Counts {
		total += n
	}
	if total == 0 {
		out := make([]float64, t.classes)
		u := 1 / float64(t.classes)
		for i := range out {
			out[i] = u
		}
		return out
	}
	lls := make([]float64, t.classes)
	for c := range lls {
		if leaf.Counts[c] == 0 {
			lls[c] = math.Inf(-1)
			continue
		}
		ll := math.Log(leaf.Counts[c] / total)
		// Leaf Gaussians may have been dropped when the node split and
		// reseeded children; fall back to pure priors then.
		if leaf.Mean != nil && leaf.Counts[c] >= 2 {
			for j, v := range x {
				variance := t.classVar(leaf, c, j)
				d := v - leaf.Mean[c][j]
				ll += -0.5*math.Log(2*math.Pi*variance) - d*d/(2*variance)
			}
		}
		lls[c] = ll
	}
	return nn.Softmax(lls)
}

// Predict returns the leaf naive Bayes argmax per sample.
func (t *StreamingHT) Predict(x [][]float64) []int {
	out := make([]int, len(x))
	for i, row := range x {
		out[i] = nn.Argmax(t.probaOne(row))
	}
	return out
}

// PredictProba returns the leaf posteriors per sample.
func (t *StreamingHT) PredictProba(x [][]float64) [][]float64 {
	out := make([][]float64, len(x))
	for i, row := range x {
		out[i] = t.probaOne(row)
	}
	return out
}

// htState is the gob-serialized form of the tree.
type htState struct {
	Dim, Classes int
	Cfg          HTConfig
	Root         *htNode
	Leaves       int
}

// Snapshot serializes the whole tree.
func (t *StreamingHT) Snapshot() ([]byte, error) {
	var buf bytes.Buffer
	state := htState{Dim: t.dim, Classes: t.classes, Cfg: t.cfg, Root: t.root, Leaves: t.leaves}
	if err := gob.NewEncoder(&buf).Encode(state); err != nil {
		return nil, fmt.Errorf("model: StreamingHT snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// Restore loads a tree with the same shape.
func (t *StreamingHT) Restore(snapshot []byte) error {
	var state htState
	if err := gob.NewDecoder(bytes.NewReader(snapshot)).Decode(&state); err != nil {
		return fmt.Errorf("model: StreamingHT restore: %w", err)
	}
	if state.Dim != t.dim || state.Classes != t.classes {
		return fmt.Errorf("model: StreamingHT restore shape %dx%d, want %dx%d",
			state.Dim, state.Classes, t.dim, t.classes)
	}
	if state.Root == nil {
		return errors.New("model: StreamingHT restore missing root")
	}
	t.cfg = state.Cfg
	t.root = state.Root
	t.leaves = state.Leaves
	return nil
}

// Freeze freezes the model as a deep copy.
func (t *StreamingHT) Freeze() Frozen { return frozenClone{t.Clone()} }

// Clone deep-copies the tree via its snapshot.
func (t *StreamingHT) Clone() Model {
	snap, err := t.Snapshot()
	if err != nil {
		// Snapshot of an in-memory tree cannot fail; keep the interface
		// non-erroring by returning a fresh tree in the impossible case.
		fresh, _ := NewStreamingHT(t.dim, t.classes, t.cfg)
		return fresh
	}
	fresh, _ := NewStreamingHT(t.dim, t.classes, t.cfg)
	_ = fresh.Restore(snap)
	return fresh
}
