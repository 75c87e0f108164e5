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
// labels and writes its gradient with respect to the logits, (p − onehot)/n,
// into grad, which must be pre-shaped to match logits. The probabilities are
// computed directly into grad (linalg.SoftmaxCols); the labels' floored
// probabilities are gathered one per sample into logp, which holds at least
// one float per sample, and go through one LogInto; the losses are added in
// sample order; the gradient is divided by n in one packed pass and 1/n is
// taken off at each label. Labels outside [0, classes) are an error.
func softmaxCrossEntropyT(logits *linalg.Tensor, labels []int, grad *linalg.Tensor, logp []float64) (float64, error) {
	rows, c := logits.Cols, logits.Rows
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
	linalg.SoftmaxCols(grad, logits)
	logp = logp[:rows]
	for i, y := range labels {
		logp[i] = math.Max(grad.Data[y*rows+i], crossEntropyEps)
	}
	linalg.LogInto(logp, logp)
	var loss float64
	for _, l := range logp {
		loss += -l
	}
	n := float64(rows)
	linalg.DivScalar(grad.Data, n)
	for i, y := range labels {
		grad.Data[y*rows+i] -= 1 / n
	}
	return loss / n, nil
}
