package nn

import (
	"fmt"
	"math"

	"freewayml/internal/linalg"
)

// crossEntropyEps floors probabilities inside the log so a confident wrong
// prediction yields a large but finite loss.
const crossEntropyEps = 1e-12

// softmaxRows writes the softmax of every row of logits into dst, which has
// logits' shape and may be logits itself: each row's maximum subtracted from
// it, one ExpInto over the whole rows×classes slab, then each row summed in
// ascending order and divided by its sum. Element for element that is the
// per-row softmax's own sequence of operations, so the bits are its bits. A
// row whose exponentials sum to zero — every logit −Inf — comes out uniform.
func softmaxRows(dst, logits *linalg.Tensor) {
	c := logits.Cols
	z := dst.Data
	for r := 0; r < logits.Rows; r++ {
		row := logits.Data[r*c : (r+1)*c]
		maxv := math.Inf(-1)
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		if maxv == math.Inf(-1) {
			maxv = 0 // every logit −Inf (or NaN): −Inf − −Inf would be NaN, −Inf − 0 is −Inf
		}
		for j, v := range row {
			z[r*c+j] = v - maxv
		}
	}
	linalg.ExpInto(z, z)
	for r := 0; r < logits.Rows; r++ {
		row := z[r*c : (r+1)*c]
		var sum float64
		for _, e := range row {
			sum += e
		}
		if sum == 0 {
			u := 1 / float64(c)
			for j := range row {
				row[j] = u
			}
			continue
		}
		for j := range row {
			row[j] /= sum
		}
	}
}

// softmaxCrossEntropyT returns the mean softmax cross-entropy of the logits
// against integer labels and writes its gradient with respect to the logits,
// (p − onehot)/n, into grad, which must be pre-shaped to match logits. The
// probabilities are computed directly into grad (softmaxRows); the labels'
// floored probabilities are gathered one per row into logp, which holds at
// least one float per row, and go through one LogInto, and the gradient is
// divided by n in one packed pass. Labels outside [0, classes) are an error.
func softmaxCrossEntropyT(logits *linalg.Tensor, labels []int, grad *linalg.Tensor, logp []float64) (float64, error) {
	if logits.Rows != len(labels) {
		return 0, fmt.Errorf("nn: %d logit rows vs %d labels", logits.Rows, len(labels))
	}
	if logits.Rows == 0 {
		return 0, fmt.Errorf("nn: empty batch")
	}
	c := logits.Cols
	for _, y := range labels {
		if y < 0 || y >= c {
			return 0, fmt.Errorf("nn: label %d outside [0,%d)", y, c)
		}
	}
	softmaxRows(grad, logits)
	logp = logp[:len(labels)]
	for i, y := range labels {
		logp[i] = math.Max(grad.Data[i*c+y], crossEntropyEps)
	}
	linalg.LogInto(logp, logp)
	var loss float64
	for _, l := range logp {
		loss += -l
	}
	n := float64(logits.Rows)
	linalg.DivScalar(grad.Data, n)
	for i, y := range labels {
		grad.Data[i*c+y] -= 1 / n
	}
	return loss / n, nil
}

// Argmax returns the index of the largest element (first on ties), or -1
// for an empty slice.
func Argmax(xs []float64) int {
	if len(xs) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(xs); i++ {
		if xs[i] > xs[best] {
			best = i
		}
	}
	return best
}
