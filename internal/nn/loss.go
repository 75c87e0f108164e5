package nn

import (
	"fmt"
	"math"

	"freewayml/internal/linalg"
)

// crossEntropyEps floors probabilities inside the log so a confident wrong
// prediction yields a large but finite loss.
const crossEntropyEps = 1e-12

// softmaxCrossEntropyT returns the mean softmax cross-entropy of the
// class-major logits (classes × samples, a column per sample) against integer
// labels and writes its gradient with respect to the logits into grad, which
// must be pre-shaped to match logits: the probabilities are computed directly
// into grad (linalg.SoftmaxCols), and crossEntropyT takes it from there.
func softmaxCrossEntropyT(logits *linalg.Tensor, labels []int, grad *linalg.Tensor, logp []float64) (float64, error) {
	linalg.SoftmaxCols(grad, logits)
	return crossEntropyT(grad, labels, logp)
}

// crossEntropyT returns the mean cross-entropy of the class-major
// probabilities in p (classes × samples) against integer labels and turns p
// into its gradient with respect to the logits, (p − onehot)/n, in place. The
// labels' floored probabilities are gathered one per sample into logp, which
// holds at least one float per sample, and go through one LogInto; the losses
// are added in sample order; the gradient is divided by n in one packed pass
// and 1/n is taken off at each label. Labels outside [0, classes) are an
// error, and so is an empty batch.
func crossEntropyT(p *linalg.Tensor, labels []int, logp []float64) (float64, error) {
	rows, c := p.Cols, p.Rows
	if rows != len(labels) {
		return 0, fmt.Errorf("nn: %d logit columns vs %d labels", rows, len(labels))
	}
	if rows == 0 {
		return 0, fmt.Errorf("nn: empty batch")
	}
	for _, y := range labels {
		if y < 0 || y >= c {
			return 0, fmt.Errorf("nn: label %d outside [0,%d)", y, c)
		}
	}
	logp = logp[:rows]
	for i, y := range labels {
		logp[i] = floorProb(p.Data[y*rows+i])
	}
	linalg.LogInto(logp, logp)
	var loss float64
	for _, l := range logp {
		loss += -l
	}
	n := float64(rows)
	linalg.DivScalar(p.Data, n)
	for i, y := range labels {
		p.Data[y*rows+i] -= 1 / n
	}
	return loss / n, nil
}

// floorProb is math.Max(v, crossEntropyEps) bit for bit without math.Max's
// call: the builtin max agrees with it everywhere but on a NaN, whose payload
// it keeps where math.Max returns the canonical NaN. (The floor is positive,
// so the ±0 ordering that math.Max also handles never decides.)
func floorProb(v float64) float64 {
	if v != v {
		return math.NaN()
	}
	return max(v, crossEntropyEps)
}
