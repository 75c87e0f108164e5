package linalg

// MomentumStep is one step of SGD with momentum and L2 weight decay over one
// parameter tensor, in one pass: per element g = grad + decay·w, then
// v = momentum·v − lr·g, w += v and grad = 0, each product and each sum
// rounded on its own (the AVX2 body never fuses). It panics unless w, grad and
// v have one length.
func MomentumStep(w, grad, v []float64, lr, momentum, decay float64) {
	mustSameLen(w, grad)
	mustSameLen(w, v)
	j := simdCols(len(w))
	if j > 0 {
		momentumAVX2(w[:j], grad[:j], v[:j], lr, momentum, decay)
	}
	for i := j; i < len(w); i++ {
		g := grad[i] + decay*w[i]
		v[i] = momentum*v[i] - lr*g
		w[i] += v[i]
		grad[i] = 0
	}
}
