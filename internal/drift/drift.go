// Package drift implements ADWIN (adaptive windowing), the classical
// concept-drift detector of the River baseline: River pairs it with a model
// reset, which is the "drift detector + model integrator" behaviour the paper
// compares against.
package drift

// Detector consumes a per-sample or per-batch error signal (0 = correct,
// 1 = error, or any bounded real statistic) and reports when the signal's
// distribution changed.
type Detector interface {
	// Add ingests one observation and returns true when drift is detected.
	// Detection resets the detector's internal state.
	Add(x float64) bool
	// Reset clears all state.
	Reset()
}
