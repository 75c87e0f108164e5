package shift

import (
	"errors"

	"freewayml/internal/linalg"
	"freewayml/internal/pca"
	"freewayml/internal/stats"
)

// State is the serializable form of a Detector, capturing everything needed
// to resume pattern classification mid-stream: the PCA model (whose space
// anchors every stored centroid and knowledge distribution), the previous
// batch projection, the recent shift distances, and the centroid history.
type State struct {
	Ready     bool
	PCA       pca.State
	Prev      linalg.Vector
	Distances []float64 // oldest first
	Centroids []CentroidState
	Batch     int
}

// CentroidState is one retained batch centroid.
type CentroidState struct {
	Y     linalg.Vector
	Batch int
}

// State exports the detector. A detector still in warm-up exports
// Ready=false and resumes its warm-up from scratch (the accumulated warm-up
// points are intentionally not serialized; they can be large and the next
// deployment re-warms within one warm-up period).
func (d *Detector) State() State {
	s := State{Batch: d.batch}
	if d.model == nil {
		return s
	}
	s.Ready = true
	s.PCA = d.model.State()
	if d.prev != nil {
		s.Prev = d.prev.Clone()
	}
	s.Distances = d.distances.OldestFirst()
	s.Centroids = make([]CentroidState, len(d.centroids))
	for i, c := range d.history() {
		s.Centroids[i] = CentroidState{Y: c.y.Clone(), Batch: c.batch}
	}
	return s
}

// CheckState reports why RestoreState would refuse s, or nil.
func (d *Detector) CheckState(s State) error {
	if !s.Ready {
		return nil
	}
	if len(s.Distances) > d.distances.Cap() {
		return errors.New("shift: state distance history exceeds configured HistoryK")
	}
	_, err := pca.FromState(s.PCA)
	return err
}

// RestoreState loads a previously exported state into a detector built with
// a compatible config. It checks s first (CheckState): a refused state leaves
// the detector as it was.
func (d *Detector) RestoreState(s State) error {
	if err := d.CheckState(s); err != nil {
		return err
	}
	d.batch = s.Batch
	if !s.Ready {
		d.model = nil
		d.prev = nil
		d.warmup = linalg.Tensor{}
		d.distances.Reset()
		d.centroids, d.head = nil, 0
		return nil
	}
	m, err := pca.FromState(s.PCA)
	if err != nil {
		return err
	}
	d.model = m
	d.warmup = linalg.Tensor{}
	if s.Prev != nil {
		d.prev = s.Prev.Clone()
	} else {
		d.prev = nil
	}
	d.distances = stats.NewSlidingWindow(d.distances.Cap())
	for _, dist := range s.Distances {
		d.distances.Push(dist)
	}
	d.centroids, d.head = make([]centroid, len(s.Centroids)), 0
	for i, c := range s.Centroids {
		d.centroids[i] = centroid{y: c.Y.Clone(), batch: c.Batch}
	}
	return nil
}
