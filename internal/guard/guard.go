// Package guard implements input sanitization for the streaming pipeline:
// the first line of FreewayML's fault-tolerance layer. Real streams carry
// NaN and Inf features (sensor dropouts, upstream divide-by-zero, protocol
// corruption), and a single non-finite value silently poisons every
// granularity model's weights through SGD. A Guard scans each batch before
// it reaches the detector or any model and applies a configurable policy:
// reject the batch, clamp the offending values, or impute them from running
// per-feature means.
package guard

import (
	"errors"
	"fmt"
	"math"
)

// Policy selects how non-finite feature values are handled.
type Policy int

const (
	// Off disables scanning entirely (the pre-guard behaviour; values pass
	// through untouched).
	Off Policy = iota
	// Reject refuses any batch containing a non-finite value with an error.
	// The learner's state is untouched; the caller decides whether to drop
	// or repair the batch.
	Reject
	// Clamp repairs in place: NaN becomes 0, ±Inf becomes ±ClampLimit.
	Clamp
	// Impute replaces every non-finite value with the running mean of its
	// feature over all finite values seen so far (0 before any are seen).
	Impute
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case Off:
		return "off"
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
	case "off":
		return Off, nil
	case "", "reject":
		return Reject, nil
	case "clamp":
		return Clamp, nil
	case "impute":
		return Impute, nil
	default:
		return Off, fmt.Errorf("guard: unknown policy %q (want off|reject|clamp|impute)", s)
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
}

// New builds a Guard for the given policy over dim-dimensional features.
func New(policy Policy, dim int) *Guard {
	g := &Guard{policy: policy}
	if dim > 0 {
		g.count = make([]float64, dim)
		g.mean = make([]float64, dim)
	}
	return g
}

// FeatureMeans exposes the running per-feature means (diagnostics/tests):
// zeros under every policy but Impute, which alone keeps them.
func (g *Guard) FeatureMeans() []float64 {
	out := make([]float64, len(g.mean))
	copy(out, g.mean)
	return out
}

// Sanitize scans the batch and applies the policy. The returned matrix
// shares rows with the input except where repairs were made (copy-on-write:
// the caller's data is never mutated). Under Reject a batch with any
// non-finite value returns an error wrapping ErrRejected and a report of
// what was found. Under Off the input passes through unscanned.
func (g *Guard) Sanitize(x [][]float64) ([][]float64, Report, error) {
	if g.policy == Off {
		return x, Report{}, nil
	}
	var rep Report
	out := x
	copied := false
	for i, row := range x {
		var clean []float64 // private copy of row, allocated on first repair
		faults := 0
		for j, v := range row {
			// A non-finite float is the only value for which v-v != 0: one
			// test per value, NaN and Inf told apart only once one is found.
			if v-v == 0 {
				continue
			}
			if v != v {
				rep.NaNs++
			} else {
				rep.Infs++
			}
			faults++
			if g.policy == Reject {
				continue // keep counting, repair nothing
			}
			if clean == nil {
				if !copied {
					out = make([][]float64, len(x))
					copy(out, x)
					copied = true
				}
				clean = append([]float64(nil), row...)
				out[i] = clean
			}
			clean[j] = g.repair(v, j)
		}
		if faults > 0 {
			rep.Rows++
		}
	}
	if rep.Total() > 0 && g.policy == Reject {
		return x, rep, fmt.Errorf("%w: %d NaN, %d Inf values in %d rows",
			ErrRejected, rep.NaNs, rep.Infs, rep.Rows)
	}
	if g.policy == Impute {
		g.updateMeans(x)
	}
	return out, rep, nil
}

// Finite reports whether every value of xs is finite: no NaN, no ±Inf. One
// test per value, as Sanitize's: a non-finite float is the only value for
// which v-v != 0.
func Finite(xs []float64) bool {
	for _, v := range xs {
		if v-v != 0 {
			return false
		}
	}
	return true
}

// SanitizeStaged is Sanitize for a batch the caller has also staged as one
// slab, its rows back to back. finite reports that the slab is already known
// to hold only finite values; otherwise one Finite scan of the slab decides.
// A finite batch is not scanned again: it leaves what Sanitize would leave —
// the batch itself, an all-zero report — and under Impute its values still
// join the running feature means. Only a batch holding a non-finite value goes
// through Sanitize, for its report, its repair or its rejection.
func (g *Guard) SanitizeStaged(x [][]float64, slab []float64, finite bool) ([][]float64, Report, error) {
	if g.policy == Off {
		return x, Report{}, nil
	}
	if !finite && !Finite(slab) {
		return g.Sanitize(x)
	}
	if g.policy == Impute {
		g.updateMeans(x)
	}
	return x, Report{}, nil
}

// repair returns the substitute for one non-finite value of feature j.
func (g *Guard) repair(v float64, j int) float64 {
	switch g.policy {
	case Clamp:
		if math.IsInf(v, 1) {
			return DefaultClampLimit
		}
		if math.IsInf(v, -1) {
			return -DefaultClampLimit
		}
		return 0 // NaN
	case Impute:
		if j < len(g.mean) && g.count[j] > 0 {
			return g.mean[j]
		}
		return 0
	default:
		return v
	}
}

// updateMeans folds the batch's originally-finite values into the running
// feature means (repaired values must not reinforce themselves).
func (g *Guard) updateMeans(x [][]float64) {
	if len(x) == 0 {
		return
	}
	if len(g.mean) < len(x[0]) {
		grown := make([]float64, len(x[0]))
		copy(grown, g.mean)
		g.mean = grown
		grownC := make([]float64, len(x[0]))
		copy(grownC, g.count)
		g.count = grownC
	}
	for _, row := range x {
		for j, v := range row {
			if v-v != 0 {
				continue
			}
			g.count[j]++
			g.mean[j] += (v - g.mean[j]) / g.count[j]
		}
	}
}
