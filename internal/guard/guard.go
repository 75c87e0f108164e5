// Package guard implements input sanitization for the streaming pipeline:
// the first line of FreewayML's fault-tolerance layer. Real streams carry
// NaN and Inf features (sensor dropouts, upstream divide-by-zero, protocol
// corruption), and a single non-finite value silently poisons every
// granularity model's weights through SGD. A Guard scans each batch, staged
// as one slab, before it reaches the detector or any model and applies a
// configurable policy: reject the batch, clamp the offending values, or impute
// them from running per-feature means.
package guard

import (
	"errors"
	"fmt"
	"math"

	"freewayml/internal/linalg"
)

// Policy selects how non-finite feature values are handled.
type Policy int

const (
	// Reject refuses any batch containing a non-finite value with an error.
	// The learner's state is untouched; the caller decides whether to drop
	// or repair the batch.
	Reject Policy = iota
	// Clamp repairs in place: NaN becomes 0, ±Inf becomes ±ClampLimit.
	Clamp
	// Impute replaces every non-finite value with the running mean of its
	// feature over all finite values seen so far (0 before any are seen).
	Impute
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case Reject:
		return "reject"
	case Clamp:
		return "clamp"
	case Impute:
		return "impute"
	default:
		return "unknown"
	}
}

// ParsePolicy maps a policy name to its value.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "reject":
		return Reject, nil
	case "clamp":
		return Clamp, nil
	case "impute":
		return Impute, nil
	default:
		return Reject, fmt.Errorf("guard: unknown policy %q (want reject|clamp|impute)", s)
	}
}

// DefaultClampLimit bounds the magnitude Clamp substitutes for ±Inf.
const DefaultClampLimit = 1e6

// ErrRejected wraps every rejection so callers can distinguish a refused
// batch (input fault, state untouched) from an internal failure.
var ErrRejected = errors.New("guard: batch rejected")

// Report counts what one Sanitize call found and repaired.
type Report struct {
	// NaNs and Infs count the non-finite values detected.
	NaNs, Infs int
	// Rows counts the rows containing at least one non-finite value.
	Rows int
}

// Total returns the number of non-finite values detected.
func (r Report) Total() int { return r.NaNs + r.Infs }

// Guard applies one policy to a stream of batches, maintaining — under
// Impute, the one policy that reads them — the running per-feature means it
// draws from. It is not safe for concurrent use; the learner serializes
// batches anyway.
type Guard struct {
	policy Policy
	count  []float64 // finite observations per feature (Impute only)
	mean   []float64 // running mean per feature over finite values (Impute only)
	prior  []float64 // the means before the batch being repaired (Impute only)
}

// New builds a Guard for the given policy over dim-dimensional features: every
// batch it checks is dim wide.
func New(policy Policy, dim int) *Guard {
	return &Guard{policy: policy, count: make([]float64, dim), mean: make([]float64, dim)}
}

// FeatureMeans exposes the running per-feature means (diagnostics/tests):
// zeros under every policy but Impute, which alone keeps them.
func (g *Guard) FeatureMeans() []float64 {
	out := make([]float64, len(g.mean))
	copy(out, g.mean)
	return out
}

// Sanitize checks a batch staged as one slab, its rows back to back, and
// applies the policy to it. Under Reject a batch holding a non-finite value
// returns an error wrapping ErrRejected and a report of what was found, and x
// is left as it was; Clamp and Impute repair x in place and report what they
// repaired. finite reports that x is already known to hold only finite
// values, so it is not scanned again. Under Impute every value that arrived
// finite joins the running feature means, and a repair draws on the means as
// they stood before the batch.
func (g *Guard) Sanitize(x *linalg.Tensor, finite bool) (Report, error) {
	if finite || Finite(x.Data) {
		if g.policy == Impute {
			g.fold(x)
		}
		return Report{}, nil
	}
	var rep Report
	for i := 0; i < x.Rows; i++ {
		faults := 0
		for _, v := range x.Row(i) {
			if v-v == 0 {
				continue
			}
			if v != v {
				rep.NaNs++
			} else {
				rep.Infs++
			}
			faults++
		}
		if faults > 0 {
			rep.Rows++
		}
	}
	if g.policy == Reject {
		return rep, fmt.Errorf("%w: %d NaN, %d Inf values in %d rows",
			ErrRejected, rep.NaNs, rep.Infs, rep.Rows)
	}
	if g.policy == Impute {
		g.prior = append(g.prior[:0], g.mean...)
		g.fold(x)
	}
	for i, v := range x.Data {
		if v-v != 0 {
			x.Data[i] = g.repair(v, i%x.Cols)
		}
	}
	return rep, nil
}

// Finite reports whether every value of xs is finite: no NaN, no ±Inf. One
// test per value: a non-finite float is the only value for which v-v != 0.
func Finite(xs []float64) bool {
	for _, v := range xs {
		if v-v != 0 {
			return false
		}
	}
	return true
}

// repair returns the substitute for one non-finite value of feature j.
func (g *Guard) repair(v float64, j int) float64 {
	switch {
	case g.policy == Impute:
		// A feature no finite value has reached yet still holds its zero mean.
		return g.prior[j]
	case math.IsInf(v, 1):
		return DefaultClampLimit
	case math.IsInf(v, -1):
		return -DefaultClampLimit
	default:
		return 0 // NaN
	}
}

// fold adds the batch's finite values to the running feature means, row by
// row; a non-finite value, which the repair replaces, must not reinforce it.
func (g *Guard) fold(x *linalg.Tensor) {
	for i := 0; i < x.Rows; i++ {
		for j, v := range x.Row(i) {
			if v-v != 0 {
				continue
			}
			g.count[j]++
			g.mean[j] += (v - g.mean[j]) / g.count[j]
		}
	}
}
