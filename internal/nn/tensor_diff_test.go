package nn

import (
	"math"
	"math/rand"
	"testing"

	"freewayml/internal/linalg"
)

// This file pins the tensor/GEMM layer implementations against the naive
// per-row reference loops the package shipped with before the flat-tensor
// compute core. The references are deliberately written in the original
// pointer-chasing style so any divergence introduced by blocking, im2col, or
// the parallel kernel path is caught within 1e-9.

// refDenseForward is the pre-tensor Dense forward: per-row axpy with the
// bias seeding the accumulator.
func refDenseForward(w, b []float64, in, out int, x [][]float64) [][]float64 {
	res := make([][]float64, len(x))
	for i, row := range x {
		o := make([]float64, out)
		copy(o, b)
		for k, xv := range row {
			wrow := w[k*out : (k+1)*out]
			for j := range o {
				o[j] += xv * wrow[j]
			}
		}
		res[i] = o
	}
	return res
}

// refDenseBackward reproduces the original gradient accumulation, returning
// (gradW, gradB, gradIn).
func refDenseBackward(w []float64, in, out int, x, gradOut [][]float64) ([]float64, []float64, [][]float64) {
	gw := make([]float64, in*out)
	gb := make([]float64, out)
	gradIn := make([][]float64, len(gradOut))
	for i, g := range gradOut {
		xi := x[i]
		gi := make([]float64, in)
		for k := 0; k < in; k++ {
			wrow := w[k*out : (k+1)*out]
			grow := gw[k*out : (k+1)*out]
			xv := xi[k]
			var s float64
			for j, gj := range g {
				s += gj * wrow[j]
				grow[j] += gj * xv
			}
			gi[k] = s
		}
		for j, gj := range g {
			gb[j] += gj
		}
		gradIn[i] = gi
	}
	return gw, gb, gradIn
}

// refConvForward is the pre-im2col direct convolution.
func refConvForward(c *Conv1D, x [][]float64) [][]float64 {
	ol := c.outLen()
	res := make([][]float64, len(x))
	for i, row := range x {
		o := make([]float64, c.OutChannels*ol)
		for oc := 0; oc < c.OutChannels; oc++ {
			bias := c.b.W[oc]
			for t := 0; t < ol; t++ {
				s := bias
				for ic := 0; ic < c.InChannels; ic++ {
					wBase := (oc*c.InChannels + ic) * c.Kernel
					xBase := ic*c.Length + t
					for k := 0; k < c.Kernel; k++ {
						s += c.w.W[wBase+k] * row[xBase+k]
					}
				}
				o[oc*ol+t] = s
			}
		}
		res[i] = o
	}
	return res
}

// refConvBackward reproduces the original direct-convolution gradients,
// returning (gradW, gradB, gradIn).
func refConvBackward(c *Conv1D, x, gradOut [][]float64) ([]float64, []float64, [][]float64) {
	ol := c.outLen()
	gw := make([]float64, len(c.w.W))
	gb := make([]float64, len(c.b.W))
	gradIn := make([][]float64, len(gradOut))
	for i, g := range gradOut {
		xi := x[i]
		gi := make([]float64, c.InChannels*c.Length)
		for oc := 0; oc < c.OutChannels; oc++ {
			for t := 0; t < ol; t++ {
				gv := g[oc*ol+t]
				gb[oc] += gv
				for ic := 0; ic < c.InChannels; ic++ {
					wBase := (oc*c.InChannels + ic) * c.Kernel
					xBase := ic*c.Length + t
					for k := 0; k < c.Kernel; k++ {
						gw[wBase+k] += gv * xi[xBase+k]
						gi[xBase+k] += gv * c.w.W[wBase+k]
					}
				}
			}
		}
		gradIn[i] = gi
	}
	return gw, gb, gradIn
}

func sliceClose(t *testing.T, got, want []float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d vs %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("%s[%d] = %v, want %v", label, i, got[i], want[i])
		}
	}
}

func randRows(rng *rand.Rand, n, d int) [][]float64 {
	x := make([][]float64, n)
	for i := range x {
		x[i] = make([]float64, d)
		for j := range x[i] {
			x[i][j] = rng.NormFloat64()
		}
	}
	return x
}

// TestDenseMatchesNaiveReference sweeps randomized shapes — including 1×1,
// 1×N, N×1, and batches crossing the parallel cutoff — and checks forward,
// weight/bias gradients, and the input gradient against the naive loops.
func TestDenseMatchesNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	shapes := []struct{ batch, in, out int }{
		{1, 1, 1}, {1, 7, 1}, {1, 1, 9}, {3, 5, 4}, {17, 13, 11}, {300, 40, 30},
	}
	for _, s := range shapes {
		d := NewDense(s.in, s.out, rng)
		x := randRows(rng, s.batch, s.in)
		g := randRows(rng, s.batch, s.out)

		wantOut := refDenseForward(d.w.W, d.b.W, s.in, s.out, x)
		wantGW, wantGB, wantGI := refDenseBackward(d.w.W, s.in, s.out, x, g)

		var xt, gt linalg.Tensor
		xt.FromRows(x, s.in)
		gt.FromRows(g, s.out)
		gotOut := d.Forward(&xt)
		gotGI := d.Backward(&gt)

		for i := range wantOut {
			sliceClose(t, gotOut.Row(i), wantOut[i], "dense forward")
			sliceClose(t, gotGI.Row(i), wantGI[i], "dense gradIn")
		}
		sliceClose(t, d.w.Grad, wantGW, "dense gradW")
		sliceClose(t, d.b.Grad, wantGB, "dense gradB")

		// A second pass accumulates on top of the first, like the original.
		d.Forward(&xt)
		d.Backward(&gt)
		for i := range wantGW {
			wantGW[i] *= 2
		}
		sliceClose(t, d.w.Grad, wantGW, "dense gradW accumulation")
	}
}

// TestConvMatchesNaiveReference checks the im2col+GEMM convolution against
// the direct nested-loop convolution, forward and backward, over randomized
// shapes including kernel==length and multi-channel cases.
func TestConvMatchesNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	shapes := []struct{ batch, ic, oc, k, length int }{
		{1, 1, 1, 1, 1}, {1, 1, 1, 3, 3}, {2, 1, 4, 3, 9}, {3, 2, 3, 2, 6},
		{5, 3, 2, 4, 11}, {64, 1, 32, 3, 64},
	}
	for _, s := range shapes {
		c := NewConv1D(s.ic, s.oc, s.k, s.length, rng)
		x := randRows(rng, s.batch, s.ic*s.length)
		g := randRows(rng, s.batch, s.oc*c.outLen())

		wantOut := refConvForward(c, x)
		wantGW, wantGB, wantGI := refConvBackward(c, x, g)

		var xt, gt linalg.Tensor
		xt.FromRows(x, s.ic*s.length)
		gt.FromRows(g, s.oc*c.outLen())
		gotOut := c.Forward(&xt)
		gotGI := c.Backward(&gt)

		for i := range wantOut {
			sliceClose(t, gotOut.Row(i), wantOut[i], "conv forward")
			sliceClose(t, gotGI.Row(i), wantGI[i], "conv gradIn")
		}
		sliceClose(t, c.w.Grad, wantGW, "conv gradW")
		sliceClose(t, c.b.Grad, wantGB, "conv gradB")
	}
}

// TestNetworkForwardStableAcrossCalls verifies the scratch-buffer reuse does
// not leak state between batches: interleaving different batches and batch
// sizes returns the same logits as fresh evaluations.
func TestNetworkForwardStableAcrossCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	net, err := NewNetwork(6, 3,
		NewConv1D(1, 4, 3, 6, rng), NewReLU(), NewMaxPool1D(4, 4, 2),
		NewDense(8, 3, rng))
	if err != nil {
		t.Fatal(err)
	}
	a := randRows(rng, 9, 6)
	b := randRows(rng, 2, 6)
	wantA := forwardRows(net, a)
	wantB := forwardRows(net, b)
	for pass := 0; pass < 3; pass++ {
		gotB := forwardRows(net, b)
		gotA := forwardRows(net, a)
		for i := range wantA {
			sliceClose(t, gotA[i], wantA[i], "interleaved forward A")
		}
		for i := range wantB {
			sliceClose(t, gotB[i], wantB[i], "interleaved forward B")
		}
	}
}
