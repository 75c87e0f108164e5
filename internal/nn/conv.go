package nn

import (
	"fmt"
	"math/rand"

	"freewayml/internal/linalg"
)

// Conv1D is a 1-D convolution over a flat input interpreted as
// (InChannels × Length), channel-major: element (c, t) lives at index
// c*Length + t. Stride is 1 and there is no padding, so the output length is
// Length − Kernel + 1 and the output is (OutChannels × OutLen), also flat.
// This matches the paper's appendix CNN, which convolves over the feature
// axis of tabular batches and over extracted image-feature vectors.
//
// The implementation lowers the convolution to im2col + GEMM in the
// feature-major ("transposed") layout: the patch matrix colT has one row per
// (input-channel, kernel-offset) pair and one column per (sample, position)
// pair. That orientation makes every stage a long contiguous loop even when
// InChannels·K is tiny (the common 1-channel / kernel-3 case): im2col and
// the output scatter are pure row-segment copies, and both GEMMs run with
// inner loops of length batch·outLen.
type Conv1D struct {
	InChannels, OutChannels, Kernel, Length int

	w *Param // [out][in][k], i.e. an OutChannels × InChannels·K tensor
	b *Param // [out]

	relu bool // a ReLU is wired directly above: rectify while adding the bias

	// Forward's scratch: the im2col patches (InChannels·K × batch·outLen), the
	// GEMM output (OutChannels × batch·outLen) and the channel-major output
	// (batch × OutChannels·outLen). Backward reads the patches through colT.
	ws   Workspace
	colT *linalg.Tensor

	// Backward's scratch, reused across batches:
	g2T    *linalg.Tensor // gradOut regathered as OutChannels × batch·outLen
	gcolT  *linalg.Tensor // patch gradient, InChannels·K × batch·outLen
	gradIn *linalg.Tensor // batch × InChannels·Length
}

// NewConv1D returns a Conv1D with He-normal initialized kernels. length is
// the per-channel input length the layer will be applied to.
func NewConv1D(inChannels, outChannels, kernel, length int, rng *rand.Rand) *Conv1D {
	switch {
	case inChannels <= 0 || outChannels <= 0:
		panic("nn: Conv1D channels must be positive")
	case kernel <= 0:
		panic("nn: Conv1D kernel must be positive")
	case length < kernel:
		panic(fmt.Sprintf("nn: Conv1D length %d shorter than kernel %d", length, kernel))
	}
	c := &Conv1D{
		InChannels:  inChannels,
		OutChannels: outChannels,
		Kernel:      kernel,
		Length:      length,
		w:           newParam(outChannels * inChannels * kernel),
		b:           newParam(outChannels),
	}
	heInit(c.w.W, inChannels*kernel, rng)
	return c
}

// outLen returns the per-channel output length.
func (c *Conv1D) outLen() int { return c.Length - c.Kernel + 1 }

// im2col fills colT (InChannels·K × batch·outLen): row ic·K+k holds, for each
// sample i, the contiguous input slice x[i][ic·Length+k : ic·Length+k+outLen]
// at columns [i·outLen, (i+1)·outLen) — each (sample, row) pair is one copy.
func (c *Conv1D) im2col(colT, x *linalg.Tensor) {
	ol := c.outLen()
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		for ic := 0; ic < c.InChannels; ic++ {
			for k := 0; k < c.Kernel; k++ {
				dst := colT.Row(ic*c.Kernel + k)[i*ol : (i+1)*ol]
				copy(dst, row[ic*c.Length+k:ic*c.Length+k+ol])
			}
		}
	}
}

// Forward applies the convolution to the batch in the layer's own workspace
// and keeps the patch matrix for Backward.
func (c *Conv1D) Forward(x *linalg.Tensor) *linalg.Tensor {
	c.ws.Reset()
	out, colT := c.forward(&c.ws, c.w.W, c.b.W, x)
	c.colT = colT
	return out
}

func (c *Conv1D) infer(ws *Workspace, p []float64, x *linalg.Tensor) (*linalg.Tensor, *linalg.Tensor, []float64) {
	nw := c.OutChannels * c.InChannels * c.Kernel
	out, colT := c.forward(ws, p[:nw], p[nw:nw+c.OutChannels], x)
	return out, colT, p[nw+c.OutChannels:]
}

func (c *Conv1D) adopt(colT *linalg.Tensor) { c.colT = colT }

// forward is the convolution for kernels w and bias b of the layer's shape,
// via im2col + one GEMM: out2T = W × colT, then each (sample, channel) segment
// is copied out with the bias added (and rectified, max(v + b, 0), when a
// ReLU is wired above). It returns the patch matrix as well.
func (c *Conv1D) forward(ws *Workspace, w, b []float64, x *linalg.Tensor) (out, colT *linalg.Tensor) {
	if x.Cols != c.InChannels*c.Length {
		panic(fmt.Sprintf("nn: Conv1D input width %d, want %d", x.Cols, c.InChannels*c.Length))
	}
	ol := c.outLen()
	ick := c.InChannels * c.Kernel
	colT = ws.Tensor(ick, x.Rows*ol)
	c.im2col(colT, x)
	out2T := ws.Tensor(c.OutChannels, x.Rows*ol)
	linalg.Gemm(out2T, linalg.TensorView(w, c.OutChannels, ick), colT)
	out = ws.Tensor(x.Rows, c.OutChannels*ol)
	for i := 0; i < x.Rows; i++ {
		orow := out.Row(i)
		for oc := 0; oc < c.OutChannels; oc++ {
			src := out2T.Row(oc)[i*ol : (i+1)*ol]
			dst := orow[oc*ol : (oc+1)*ol]
			bias := b[oc]
			if c.relu {
				for t, v := range src {
					dst[t] = max(v+bias, 0)
				}
			} else {
				for t, v := range src {
					dst[t] = v + bias
				}
			}
		}
	}
	return out, colT
}

// Backward accumulates kernel and bias gradients with transposed GEMMs over
// the cached patch matrix and returns the input gradient via col2im.
func (c *Conv1D) Backward(gradOut *linalg.Tensor) *linalg.Tensor {
	c.backwardParams(gradOut)
	ol := c.outLen()
	ick := c.InChannels * c.Kernel
	n := gradOut.Rows

	// ∂L/∂patches = Wᵀ × g2T, scattered back to the input layout: each patch
	// row contributes one contiguous length-outLen axpy per sample.
	c.gcolT = linalg.EnsureTensor(c.gcolT, ick, n*ol)
	linalg.GemmTA(c.gcolT, linalg.TensorView(c.w.W, c.OutChannels, ick), c.g2T)
	c.gradIn = linalg.EnsureTensor(c.gradIn, n, c.InChannels*c.Length)
	c.gradIn.Zero()
	for i := 0; i < n; i++ {
		girow := c.gradIn.Row(i)
		for ic := 0; ic < c.InChannels; ic++ {
			for k := 0; k < c.Kernel; k++ {
				src := c.gcolT.Row(ic*c.Kernel + k)[i*ol : (i+1)*ol]
				dst := girow[ic*c.Length+k : ic*c.Length+k+ol]
				for t, gv := range src {
					dst[t] += gv
				}
			}
		}
	}
	return c.gradIn
}

// backwardParams regathers gradOut into c.g2T (which Backward's input
// gradient reuses) and accumulates the kernel and bias gradients.
func (c *Conv1D) backwardParams(gradOut *linalg.Tensor) {
	ol := c.outLen()
	ick := c.InChannels * c.Kernel
	n := gradOut.Rows

	// Regather gradOut (batch × OC·ol, channel-major) into channel rows
	// matching the patch matrix columns — pure segment copies.
	c.g2T = linalg.EnsureTensor(c.g2T, c.OutChannels, n*ol)
	for i := 0; i < n; i++ {
		grow := gradOut.Row(i)
		for oc := 0; oc < c.OutChannels; oc++ {
			copy(c.g2T.Row(oc)[i*ol:(i+1)*ol], grow[oc*ol:(oc+1)*ol])
		}
	}

	// ∂L/∂W += g2T × colTᵀ: OC·ICK dot products of length batch·outLen.
	// ∂L/∂b += row sums of g2T.
	linalg.GemmTBAdd(linalg.TensorView(c.w.Grad, c.OutChannels, ick), c.g2T, c.colT)
	for oc := 0; oc < c.OutChannels; oc++ {
		var s float64
		for _, gv := range c.g2T.Row(oc) {
			s += gv
		}
		c.b.Grad[oc] += s
	}
}

// Params returns the kernel and bias parameters.
func (c *Conv1D) Params() []*Param { return []*Param{c.w, c.b} }

// OutDim validates the flat input width and returns the flat output width.
func (c *Conv1D) OutDim(inDim int) (int, error) {
	if inDim != c.InChannels*c.Length {
		return 0, fmt.Errorf("nn: Conv1D expects input width %d, got %d", c.InChannels*c.Length, inDim)
	}
	return c.OutChannels * c.outLen(), nil
}

// MaxPool1D downsamples each channel of a flat (Channels × Length) input by
// taking the max over non-overlapping windows of the given size. A trailing
// partial window is pooled too.
type MaxPool1D struct {
	Channels, Length, Window int

	ws     Workspace      // Forward's scratch: the pooled output
	lastX  *linalg.Tensor // the forward input, whose window maxima Backward finds again
	gradIn *linalg.Tensor // Backward's scratch
}

// NewMaxPool1D returns a max-pooling layer for flat (channels × length)
// inputs.
func NewMaxPool1D(channels, length, window int) *MaxPool1D {
	switch {
	case channels <= 0 || length <= 0:
		panic("nn: MaxPool1D shape must be positive")
	case window <= 0:
		panic("nn: MaxPool1D window must be positive")
	}
	return &MaxPool1D{Channels: channels, Length: length, Window: window}
}

// outLen returns the per-channel pooled length (ceil division).
func (p *MaxPool1D) outLen() int { return (p.Length + p.Window - 1) / p.Window }

// Forward pools each window and keeps the input for Backward.
func (p *MaxPool1D) Forward(x *linalg.Tensor) *linalg.Tensor {
	p.ws.Reset()
	p.lastX = x
	return p.forward(&p.ws, x)
}

func (p *MaxPool1D) infer(ws *Workspace, pr []float64, x *linalg.Tensor) (*linalg.Tensor, *linalg.Tensor, []float64) {
	return p.forward(ws, x), x, pr
}

func (p *MaxPool1D) adopt(x *linalg.Tensor) { p.lastX = x }

// forward pools each window: its first maximum.
func (p *MaxPool1D) forward(ws *Workspace, x *linalg.Tensor) *linalg.Tensor {
	if x.Cols != p.Channels*p.Length {
		panic(fmt.Sprintf("nn: MaxPool1D input width %d, want %d", x.Cols, p.Channels*p.Length))
	}
	ol := p.outLen()
	out := ws.Tensor(x.Rows, p.Channels*ol)
	for i := 0; i < x.Rows; i++ {
		row, orow := x.Row(i), out.Row(i)
		for c := 0; c < p.Channels; c++ {
			for t := 0; t < ol; t++ {
				orow[c*ol+t] = row[p.argmax(row, c, t)]
			}
		}
	}
	return out
}

// argmax returns the index in row of the first maximum of channel c's window
// t (a trailing partial window holds what is left of the channel).
func (p *MaxPool1D) argmax(row []float64, c, t int) int {
	start := c*p.Length + t*p.Window
	end := min(start+p.Window, (c+1)*p.Length)
	best := start
	for j := start + 1; j < end; j++ {
		if row[j] > row[best] {
			best = j
		}
	}
	return best
}

// Backward routes each output gradient to its window's maximum, found again
// in the forward input: the same comparisons over the same values pick the
// position Forward pooled.
func (p *MaxPool1D) Backward(gradOut *linalg.Tensor) *linalg.Tensor {
	ol := p.outLen()
	p.gradIn = linalg.EnsureTensor(p.gradIn, gradOut.Rows, p.Channels*p.Length)
	p.gradIn.Zero()
	for i := 0; i < gradOut.Rows; i++ {
		row, grow, girow := p.lastX.Row(i), gradOut.Row(i), p.gradIn.Row(i)
		for c := 0; c < p.Channels; c++ {
			for t := 0; t < ol; t++ {
				girow[p.argmax(row, c, t)] += grow[c*ol+t]
			}
		}
	}
	return p.gradIn
}

// Params returns nil: pooling has no learnable parameters.
func (p *MaxPool1D) Params() []*Param { return nil }

// OutDim validates the flat input width and returns the pooled width.
func (p *MaxPool1D) OutDim(inDim int) (int, error) {
	if inDim != p.Channels*p.Length {
		return 0, fmt.Errorf("nn: MaxPool1D expects input width %d, got %d", p.Channels*p.Length, inDim)
	}
	return p.Channels * p.outLen(), nil
}
