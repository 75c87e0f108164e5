package baselines

import (
	"errors"

	"freewayml/internal/drift"
	"freewayml/internal/model"
	"freewayml/internal/stream"
)

// River models the River framework's canonical drift pipeline: a streaming
// model paired with a drift detector (ADWIN over the per-sample error
// signal); when the detector fires, the model is replaced by a fresh one
// trained from the current batch onward. This reacts to sudden shifts but
// pays a cold-start accuracy dip after every reset.
type River struct {
	factory model.Factory
	dim     int
	classes int
	m       model.Model
	det     drift.Detector
	resets  int
}

// NewRiver builds the baseline with an ADWIN detector (nil detector
// selects the default ADWIN).
func NewRiver(factory model.Factory, dim, classes int, det drift.Detector) (*River, error) {
	m, err := factory(dim, classes)
	if err != nil {
		return nil, err
	}
	if det == nil {
		// Batch-granular signal: a couple hundred error-rate observations
		// suffice for the Hoeffding test.
		det = drift.NewADWIN(0.002, 200)
	}
	return &River{factory: factory, dim: dim, classes: classes, m: m, det: det}, nil
}

// Name returns "River".
func (r *River) Name() string { return "River" }

// Resets returns how many drift-triggered model replacements occurred.
func (r *River) Resets() int { return r.resets }

// Infer predicts with the current model.
func (r *River) Infer(b stream.Batch) ([]int, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return r.m.Predict(b.X), nil
}

// Train feeds the batch error rate to the detector, replaces the model when
// drift fires, then updates incrementally. The signal is batch-granular:
// per-sample feeding of this O(window) ADWIN would cost O(batch·window) per
// batch, far beyond what River's bucketed ADWIN costs, and batch error
// rates carry the same drift information at this granularity.
func (r *River) Train(b stream.Batch) error {
	if !b.Labeled() {
		return errors.New("baselines: Train requires labels")
	}
	pred := r.m.Predict(b.X)
	errs := 0
	for i := range pred {
		if pred[i] != b.Y[i] {
			errs++
		}
	}
	drifted := r.det.Add(float64(errs) / float64(len(pred)))
	if drifted {
		fresh, err := r.factory(r.dim, r.classes)
		if err != nil {
			return err
		}
		r.m = fresh
		r.det.Reset()
		r.resets++
		// Warm recovery: River's background learners have seen recent data
		// by the time they replace the foreground model; a fresh random
		// model has not, so give it several passes over the trigger batch
		// to stand in for that warm-up.
		for i := 0; i < 4; i++ {
			if _, err := r.m.Fit(b.X, b.Y); err != nil {
				return err
			}
		}
	}
	_, err := r.m.Fit(b.X, b.Y)
	return err
}
