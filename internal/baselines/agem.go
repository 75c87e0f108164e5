package baselines

import (
	"errors"
	"math/rand"

	"freewayml/internal/model"
	"freewayml/internal/nn"
	"freewayml/internal/stream"
)

// AGEM implements Averaged Gradient Episodic Memory (Chaudhry et al. 2019):
// an episodic reservoir of past samples constrains each update so the loss
// on remembered data does not increase. The current batch's gradient g is
// projected whenever it conflicts with the memory gradient g_ref
// (g·g_ref < 0): g ← g − (g·g_ref / g_ref·g_ref)·g_ref. The second
// forward/backward pass over the memory is the constrained-learning
// overhead visible in the paper's Fig. 10/Table III (A-GEM slowest).
type AGEM struct {
	m       model.Model
	opt     *nn.SGD
	memX    [][]float64
	memY    []int
	memCap  int
	refSize int
	seen    int
	rng     *rand.Rand
}

// NewAGEM builds the baseline; memCap is the episodic memory capacity and
// refSize how many memory samples form the reference gradient per update.
func NewAGEM(factory model.Factory, dim, classes, memCap, refSize int, seed int64) (*AGEM, error) {
	if memCap < 1 {
		return nil, errors.New("baselines: memCap must be >= 1")
	}
	if refSize < 1 {
		return nil, errors.New("baselines: refSize must be >= 1")
	}
	m, err := factory(dim, classes)
	if err != nil {
		return nil, err
	}
	h := model.DefaultHyper()
	return &AGEM{
		m:       m,
		opt:     nn.NewSGD(h.LR, h.Momentum, h.WeightDecay),
		memCap:  memCap,
		refSize: refSize,
		rng:     rand.New(rand.NewSource(seed)),
	}, nil
}

// Name returns "A-GEM".
func (a *AGEM) Name() string { return "A-GEM" }

// MemLen returns the current episodic memory size.
func (a *AGEM) MemLen() int { return len(a.memX) }

// Infer predicts with the current model.
func (a *AGEM) Infer(b stream.Batch) ([]int, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return a.m.Predict(b.X), nil
}

// Train computes the batch gradient, projects it against the episodic
// memory's reference gradient when they conflict, steps, then refreshes the
// memory by reservoir sampling.
func (a *AGEM) Train(b stream.Batch) error {
	if !b.Labeled() {
		return errors.New("baselines: Train requires labels")
	}
	net := a.m.Net()

	net.ZeroGrad()
	if _, err := net.AccumulateGradients(b.X, b.Y); err != nil {
		return err
	}
	g := net.FlattenGrads()

	if len(a.memX) > 0 {
		refX, refY := a.sampleMemory()
		net.ZeroGrad()
		if _, err := net.AccumulateGradients(refX, refY); err != nil {
			return err
		}
		gRef := net.FlattenGrads()
		var dot, refSq float64
		for i := range g {
			dot += g[i] * gRef[i]
			refSq += gRef[i] * gRef[i]
		}
		if dot < 0 && refSq > 0 {
			coeff := dot / refSq
			for i := range g {
				g[i] -= coeff * gRef[i]
			}
		}
	}

	net.SetFlatGrads(g)
	net.Step(a.opt)
	a.updateMemory(b)
	return nil
}

// sampleMemory picks up to refSize samples uniformly from the memory.
func (a *AGEM) sampleMemory() ([][]float64, []int) {
	n := a.refSize
	if n > len(a.memX) {
		n = len(a.memX)
	}
	x := make([][]float64, n)
	y := make([]int, n)
	perm := a.rng.Perm(len(a.memX))
	for i := 0; i < n; i++ {
		x[i] = a.memX[perm[i]]
		y[i] = a.memY[perm[i]]
	}
	return x, y
}

// updateMemory reservoir-samples the batch into the episodic memory.
func (a *AGEM) updateMemory(b stream.Batch) {
	for i := range b.X {
		a.seen++
		if len(a.memX) < a.memCap {
			a.memX = append(a.memX, b.X[i])
			a.memY = append(a.memY, b.Y[i])
			continue
		}
		if j := a.rng.Intn(a.seen); j < a.memCap {
			a.memX[j] = b.X[i]
			a.memY[j] = b.Y[i]
		}
	}
}
