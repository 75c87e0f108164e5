package model

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"

	"freewayml/internal/linalg"
	"freewayml/internal/nn"
)

// Standardized wraps any Model with an online per-feature z-score scaler:
// running means and variances update with every Fit, and both Fit and
// Predict see standardized inputs. Streams whose features carry large or
// shifting offsets (raw sensor readings, prices) destabilize SGD at a fixed
// learning rate; standardization makes the model family scale-free, the
// role River's preprocessing pipeline plays.
type Standardized struct {
	inner Model
	dim   int

	count float64
	mean  []float64
	m2    []float64
}

// stdState is the gob header prepended to the inner model's snapshot.
type stdState struct {
	Count float64
	Mean  []float64
	M2    []float64
}

// NewStandardized wraps a model with an online standardizer.
func NewStandardized(inner Model) (*Standardized, error) {
	if inner == nil {
		return nil, errors.New("model: NewStandardized requires a model")
	}
	d := inner.InDim()
	return &Standardized{inner: inner, dim: d, mean: make([]float64, d), m2: make([]float64, d)}, nil
}

// Name reports the wrapped family with a std+ prefix.
func (s *Standardized) Name() string { return "std+" + s.inner.Name() }

// InDim returns the feature dimensionality.
func (s *Standardized) InDim() int { return s.dim }

// NumClasses returns the label count.
func (s *Standardized) NumClasses() int { return s.inner.NumClasses() }

// Net exposes the wrapped model's network.
func (s *Standardized) Net() *nn.Network { return s.inner.Net() }

// stdFloor keeps the scale away from zero for constant features.
const stdFloor = 1e-6

// transform z-scores a batch with the current statistics (identity until
// any data has been seen).
func (s *Standardized) transform(x [][]float64) [][]float64 {
	if s.count < 2 {
		return x
	}
	out := make([][]float64, len(x))
	for i, row := range x {
		o := make([]float64, len(row))
		for j, v := range row {
			std := math.Sqrt(s.m2[j]/s.count) + stdFloor
			o[j] = (v - s.mean[j]) / std
		}
		out[i] = o
	}
	return out
}

// Fit updates the scaler with the raw batch, then trains the wrapped model
// on the standardized view.
func (s *Standardized) Fit(x [][]float64, y []int) (float64, error) {
	for _, row := range x {
		if len(row) != s.dim {
			return 0, fmt.Errorf("model: Standardized row width %d, want %d", len(row), s.dim)
		}
		s.count++
		for j, v := range row {
			delta := v - s.mean[j]
			s.mean[j] += delta / s.count
			s.m2[j] += delta * (v - s.mean[j])
		}
	}
	return s.inner.Fit(s.transform(x), y)
}

// Predict classifies the standardized view.
func (s *Standardized) Predict(x [][]float64) []int { return s.inner.Predict(s.transform(x)) }

// PredictProba returns posteriors over the standardized view.
func (s *Standardized) PredictProba(x [][]float64) [][]float64 {
	return s.inner.PredictProba(s.transform(x))
}

// Snapshot serializes the scaler statistics followed by the inner model.
func (s *Standardized) Snapshot() ([]byte, error) {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(stdState{Count: s.count, Mean: s.mean, M2: s.m2}); err != nil {
		return nil, fmt.Errorf("model: Standardized snapshot: %w", err)
	}
	innerSnap, err := s.inner.Snapshot()
	if err != nil {
		return nil, err
	}
	if err := enc.Encode(innerSnap); err != nil {
		return nil, fmt.Errorf("model: Standardized snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// Restore loads scaler statistics and the inner model.
func (s *Standardized) Restore(snapshot []byte) error {
	dec := gob.NewDecoder(bytes.NewReader(snapshot))
	var st stdState
	if err := dec.Decode(&st); err != nil {
		return fmt.Errorf("model: Standardized restore: %w", err)
	}
	if len(st.Mean) != s.dim || len(st.M2) != s.dim {
		return errors.New("model: Standardized restore dimension mismatch")
	}
	var innerSnap []byte
	if err := dec.Decode(&innerSnap); err != nil {
		return fmt.Errorf("model: Standardized restore: %w", err)
	}
	if err := s.inner.Restore(innerSnap); err != nil {
		return err
	}
	s.count = st.Count
	s.mean = st.Mean
	s.m2 = st.M2
	return nil
}

// AppendParams appends the scaler (count, then mean and m2 per feature)
// followed by the inner model's parameters: everything Restore brings back.
func (s *Standardized) AppendParams(dst []float64) []float64 {
	dst = append(dst, s.count)
	dst = append(dst, s.mean...)
	dst = append(dst, s.m2...)
	return s.inner.AppendParams(dst)
}

// RestoreParams loads a copy AppendParams made: the scaler as it stood, then
// the inner model's parameters (resetting its optimizer).
func (s *Standardized) RestoreParams(flat []float64) {
	s.count = flat[0]
	copy(s.mean, flat[1:1+s.dim])
	copy(s.m2, flat[1+s.dim:1+2*s.dim])
	s.inner.RestoreParams(flat[1+2*s.dim:])
}

// frozenStd is a Standardized model's read-only view: the scaler as it stood,
// as one (mean, scale) pair per feature, in front of the frozen inner model.
type frozenStd struct {
	inner       Frozen
	mean, scale []float64 // nil while the scaler is the identity
}

// Freeze freezes the scaler beside the inner model.
func (s *Standardized) Freeze() Frozen {
	f := &frozenStd{inner: s.inner.Freeze()}
	if s.count >= 2 {
		f.mean = append([]float64(nil), s.mean...)
		f.scale = make([]float64, s.dim)
		for j := range f.scale {
			f.scale[j] = math.Sqrt(s.m2[j]/s.count) + stdFloor
		}
	}
	return f
}

func (f *frozenStd) ProbaInto(ws *nn.Workspace, x *linalg.Tensor) *linalg.Tensor {
	if f.mean == nil {
		return f.inner.ProbaInto(ws, x)
	}
	z := ws.Tensor(x.Rows, x.Cols)
	for i := 0; i < x.Rows; i++ {
		zr := z.Row(i)
		for j, v := range x.Row(i) {
			zr[j] = (v - f.mean[j]) / f.scale[j]
		}
	}
	return f.inner.ProbaInto(ws, z)
}

// StandardizedFactory wraps a factory so every built model is standardized.
func StandardizedFactory(f Factory) Factory {
	return func(in, classes int) (Model, error) {
		m, err := f(in, classes)
		if err != nil {
			return nil, err
		}
		return NewStandardized(m)
	}
}
