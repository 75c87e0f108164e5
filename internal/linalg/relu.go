package linalg

import "math"

// ReLU rectifies x in place: x[i] = max(x[i], 0), with the builtin's answers
// for -0 (+0) and NaN (that NaN with the sign bit cleared).
func ReLU(x []float64) {
	j := simdCols(len(x))
	if j > 0 {
		reluAVX2(x[:j])
	}
	// The builtin max compiles to a branchless select; the naive if/else is
	// ~5× slower here because activation signs are data-dependent and the
	// branch predictor loses every other guess.
	x = x[j:]
	for i, v := range x {
		x[i] = max(v, 0)
	}
}

// ReLUGate multiplies g[i] by 1 where y[i] is non-zero with the sign bit clear
// and by 0 elsewhere, in place. The gate is computed from the float's bit
// pattern rather than a compare-and-branch: activation signs are random, so
// the branchy form pays a misprediction per element and runs ~4× slower. For
// every y but a NaN the mask is y > 0.
func ReLUGate(g, y []float64) {
	mustSameLen(g, y)
	j := simdCols(len(g))
	if j > 0 {
		reluGateAVX2(g[:j], y[:j])
	}
	gateRow(g[j:], y[j:])
}

// gateRow is ReLUGate's Go loop, and the Go side of the gate epilogue.
func gateRow(g, y []float64) {
	y = y[:len(g)]
	for i, gv := range g {
		bits := math.Float64bits(y[i])
		pass := ((bits | -bits) >> 63) & (^bits >> 63)
		g[i] = gv * float64(pass)
	}
}
