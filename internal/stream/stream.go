// Package stream defines the batch and stream abstractions the rest of
// FreewayML consumes: labeled/unlabeled mini-batches, the Source interface
// every dataset generator implements, and the rate-aware adjuster of paper
// Sec. V-B that balances inference and training frequency under load.
package stream

import (
	"errors"
	"fmt"
	"math"

	"freewayml/internal/linalg"
)

// DriftKind is the ground-truth drift type a dataset generator injected
// into a batch. The per-pattern experiments (Table II, Fig. 9/11) slice
// accuracy by this label.
type DriftKind int

const (
	// KindNone marks stationary batches.
	KindNone DriftKind = iota
	// KindSlight marks batches under gradual/localized drift (Pattern A).
	KindSlight
	// KindSudden marks batches at or shortly after an abrupt concept switch
	// to a new distribution (Pattern B).
	KindSudden
	// KindReoccurring marks batches at or shortly after a switch back to a
	// previously seen concept (Pattern C).
	KindReoccurring
)

// String names the drift kind.
func (k DriftKind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindSlight:
		return "slight"
	case KindSudden:
		return "sudden"
	case KindReoccurring:
		return "reoccurring"
	default:
		return "unknown"
	}
}

// Batch is one mini-batch of the stream. Y is nil for pure-inference
// batches; in the paper's prequential protocol every batch is first used
// for inference and then (with its labels) for training.
type Batch struct {
	Seq int
	// X holds the rows, unless Slab does: a batch that is already one
	// row-major slab — a decoded wire frame's — travels as that slab, which
	// the learner then stages with one copy, and X is not read.
	X     [][]float64
	Slab  *linalg.Tensor
	Y     []int
	Truth DriftKind
	// TraceID joins the batch to the request-scoped trace that carried it
	// ("" for untraced paths); it flows into the per-batch TraceEvent.
	TraceID string
}

// Len returns the number of rows.
func (b Batch) Len() int {
	if b.Slab != nil {
		return b.Slab.Rows
	}
	return len(b.X)
}

// Labeled reports whether the batch carries labels.
func (b Batch) Labeled() bool { return len(b.Y) == b.Len() && len(b.Y) > 0 }

// Validate checks internal consistency: a non-empty rectangular feature
// matrix and, when labels are present, one non-negative label per row.
func (b Batch) Validate() error {
	err, _ := b.validate(math.MaxInt)
	return err
}

// validate is Validate, and finds on the same walk of the labels the first one
// at or above classes: over, which ValidateShape reports after the width.
func (b Batch) validate(classes int) (err, over error) {
	if b.Len() == 0 {
		return errors.New("stream: empty batch"), nil
	}
	if b.Y != nil && len(b.Y) != b.Len() {
		return errors.New("stream: label count mismatch"), nil
	}
	if b.Slab != nil {
		if len(b.Slab.Data) != b.Slab.Rows*b.Slab.Cols {
			return errors.New("stream: slab shape mismatch"), nil
		}
	} else {
		w := len(b.X[0])
		for _, row := range b.X {
			if len(row) != w {
				return errors.New("stream: ragged batch"), nil
			}
		}
	}
	for _, y := range b.Y {
		if y >= 0 && y < classes {
			continue
		}
		if y < 0 {
			return fmt.Errorf("stream: negative label %d", y), nil
		}
		if over == nil {
			over = fmt.Errorf("stream: label %d outside [0,%d)", y, classes)
		}
	}
	return nil, over
}

// Width returns the row width (0 for an empty batch).
func (b Batch) Width() int {
	switch {
	case b.Slab != nil:
		return b.Slab.Cols
	case len(b.X) > 0:
		return len(b.X[0])
	}
	return 0
}

// ValidateShape checks the batch against a stream's declared shape: every
// row must be dim wide and every label within [0, classes). This is the
// full entry-point guard — every consumer that knows its shape (the core
// learner, the HTTP server) should use it instead of Validate so malformed
// input is refused before it can touch model state.
func (b Batch) ValidateShape(dim, classes int) error {
	err, over := b.validate(classes)
	if err != nil {
		return err
	}
	if w := b.Width(); w != dim {
		return fmt.Errorf("stream: row width %d, want %d", w, dim)
	}
	return over
}

// Source produces a finite or infinite sequence of batches.
type Source interface {
	// Name identifies the dataset.
	Name() string
	// Dim is the feature dimensionality.
	Dim() int
	// Classes is the number of labels.
	Classes() int
	// Next returns the next batch, or ok=false when the stream ends.
	Next() (Batch, bool)
}

// Collect drains up to max batches from a source (all batches if max <= 0).
func Collect(s Source, max int) []Batch {
	var out []Batch
	for max <= 0 || len(out) < max {
		b, ok := s.Next()
		if !ok {
			break
		}
		out = append(out, b)
	}
	return out
}
