// Package model provides the streaming model zoo of the paper: Streaming
// Logistic Regression, Streaming MLP, and the appendix's Streaming CNNs —
// all thin wrappers over internal/nn that share one Model interface so the
// FreewayML core, the baselines, and the experiment harness can treat them
// interchangeably.
package model

import (
	"errors"
	"math/rand"

	"freewayml/internal/linalg"
	"freewayml/internal/nn"
)

// Model is a streaming classifier: it predicts a batch, then (when labels
// arrive) incrementally updates itself with mini-batch SGD. Snapshots make
// a model storable in the historical-knowledge store.
type Model interface {
	// Name identifies the model family ("StreamingLR", "StreamingMLP", …).
	Name() string
	// Predict returns the argmax class per sample.
	Predict(x [][]float64) []int
	// PredictProba returns the class distribution per sample.
	PredictProba(x [][]float64) [][]float64
	// FitTensor and Fit perform one incremental mini-batch SGD update, on a
	// tensor's rows read where they lie or on rows, and return the pre-update loss.
	FitTensor(x *linalg.Tensor, y []int) (float64, error)
	Fit(x [][]float64, y []int) (float64, error)
	// FitFrom is the test-then-train fast path: FitTensor on the batch a
	// frozen forward of this model predicted, with y its labels — the same
	// loss, the same update, bit for bit, minus the forward the prediction
	// already ran (nn.Network.TrainFrom). ok = false means fw is not a forward
	// of the parameters as they stand — a Restore or any other parameter write
	// came after the Freeze — and nothing was done: call FitTensor.
	FitFrom(fw *nn.Forward, y []int) (loss float64, ok bool, err error)
	// Snapshot returns the parameter image (nn.Network.AppendSnapshot) in a
	// fresh slice. Restore loads an image back, or refuses it whole, and
	// resets the optimizer state.
	Snapshot() ([]byte, error)
	Restore(snapshot []byte) error
	// Freeze returns the model's read-only view as of now, its parameters
	// copied into buf (nn.Network.Freeze: nil, or storage too small,
	// allocates): the member type of a published inference snapshot.
	// RestoreFrozen loads such a view's parameters back, as Restore loads an
	// image, and resets the optimizer state.
	Freeze(buf []float64) *nn.Frozen
	RestoreFrozen(f *nn.Frozen) error
	// InDim and NumClasses describe the model's shape.
	InDim() int
	NumClasses() int
	// Net exposes the underlying network for mechanisms that need direct
	// gradient access (the A-GEM and Spark baselines). It is never
	// nil: every family is a network trained by SGD.
	Net() *nn.Network
}

// Frozen is what a model predicts at the instant it was frozen, and nothing
// else (*nn.Frozen, or a test's fixed answers). It is immutable: any number
// of goroutines may call it at once, each with a workspace of its own, while
// the model it came from keeps training.
type Frozen interface {
	// ProbaInto returns the class distribution of every row of x, class-major
	// (classes × rows, column i row i's). x is only read; the result and all
	// scratch are taken from ws, so the result is valid until ws is reset or
	// released.
	ProbaInto(ws *nn.Workspace, x *linalg.Tensor) *linalg.Tensor
}

// Hyper collects the SGD hyperparameters shared by all model families.
type Hyper struct {
	LR          float64
	Momentum    float64
	WeightDecay float64
	Hidden      int   // hidden width for MLP (ignored by LR)
	Seed        int64 // weight init seed, for reproducibility
}

// DefaultHyper mirrors the lightweight models of the paper's evaluation.
func DefaultHyper() Hyper {
	return Hyper{LR: 0.05, Momentum: 0.9, WeightDecay: 1e-4, Hidden: 64, Seed: 1}
}

// Validate reports the first invalid hyperparameter.
func (h Hyper) Validate() error {
	switch {
	case h.LR <= 0:
		return errors.New("model: LR must be > 0")
	case h.Momentum < 0 || h.Momentum >= 1:
		return errors.New("model: Momentum must be in [0, 1)")
	case h.WeightDecay < 0:
		return errors.New("model: WeightDecay must be >= 0")
	case h.Hidden < 1:
		return errors.New("model: Hidden must be >= 1")
	}
	return nil
}

// netModel is the shared implementation backing every model family.
type netModel struct {
	name string
	net  *nn.Network
	opt  *nn.SGD
}

func (m *netModel) Name() string                           { return m.name }
func (m *netModel) Predict(x [][]float64) []int            { return m.net.Predict(x) }
func (m *netModel) PredictProba(x [][]float64) [][]float64 { return m.net.PredictProba(x) }
func (m *netModel) InDim() int                             { return m.net.InDim() }
func (m *netModel) NumClasses() int                        { return m.net.NumClasses() }
func (m *netModel) Net() *nn.Network                       { return m.net }

func (m *netModel) Freeze(buf []float64) *nn.Frozen             { return m.net.Freeze(buf) }
func (m *netModel) Fit(x [][]float64, y []int) (float64, error) { return m.net.TrainBatch(x, y, m.opt) }
func (m *netModel) FitTensor(x *linalg.Tensor, y []int) (float64, error) {
	return m.net.TrainTensor(x, y, m.opt)
}

func (m *netModel) FitFrom(fw *nn.Forward, y []int) (float64, bool, error) {
	return m.net.TrainFrom(fw, y, m.opt)
}

func (m *netModel) Snapshot() ([]byte, error) { return m.net.Snapshot() }

func (m *netModel) Restore(snapshot []byte) error {
	if err := m.net.Restore(snapshot); err != nil {
		return err
	}
	// Stale momentum from the previous regime must not contaminate the
	// restored model.
	m.opt.Reset()
	return nil
}

func (m *netModel) RestoreFrozen(f *nn.Frozen) error {
	if err := m.net.RestoreFrozen(f); err != nil {
		return err
	}
	m.opt.Reset()
	return nil
}

// NewStreamingLR builds a streaming softmax (multinomial logistic)
// regression: a single dense layer trained with mini-batch SGD.
func NewStreamingLR(inDim, numClasses int, h Hyper) (Model, error) {
	if err := h.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(h.Seed))
	net, err := nn.NewNetwork(inDim, numClasses, nn.NewDense(inDim, numClasses, rng))
	if err != nil {
		return nil, err
	}
	return &netModel{name: "StreamingLR", net: net, opt: nn.NewSGD(h.LR, h.Momentum, h.WeightDecay)}, nil
}

// NewStreamingMLP builds the paper's streaming multi-layer perceptron: one
// hidden ReLU layer of h.Hidden units.
func NewStreamingMLP(inDim, numClasses int, h Hyper) (Model, error) {
	if err := h.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(h.Seed))
	net, err := nn.NewNetwork(inDim, numClasses,
		nn.NewDense(inDim, h.Hidden, rng),
		nn.NewReLU(),
		nn.NewDense(h.Hidden, numClasses, rng),
	)
	if err != nil {
		return nil, err
	}
	return &netModel{name: "StreamingMLP", net: net, opt: nn.NewSGD(h.LR, h.Momentum, h.WeightDecay)}, nil
}

// NewStreamingCNN3 builds the appendix's three-layer CNN for tabular
// streams: Conv1D with 32 kernels of size 3 over the feature axis, max
// pooling with window 2, and a fully connected classification layer.
// inDim must be at least 3.
func NewStreamingCNN3(inDim, numClasses int, h Hyper) (Model, error) {
	if err := h.Validate(); err != nil {
		return nil, err
	}
	if inDim < 3 {
		return nil, errors.New("model: StreamingCNN3 requires inDim >= 3")
	}
	rng := rand.New(rand.NewSource(h.Seed))
	const kernels = 32
	convOut := inDim - 3 + 1
	pooled := (convOut + 1) / 2
	net, err := nn.NewNetwork(inDim, numClasses,
		nn.NewConv1D(1, kernels, 3, inDim, rng),
		nn.NewReLU(),
		nn.NewMaxPool1D(kernels, convOut, 2),
		nn.NewDense(kernels*pooled, numClasses, rng),
	)
	if err != nil {
		return nil, err
	}
	return &netModel{name: "StreamingCNN3", net: net, opt: nn.NewSGD(h.LR, h.Momentum, h.WeightDecay)}, nil
}

// NewStreamingCNN5 builds the appendix's five-layer CNN for image-feature
// streams: two Conv1D layers with 64 kernels of size 3, two max-pooling
// layers with window 2, and a fully connected classification layer.
// inDim must be large enough for both convolutions (>= 9).
func NewStreamingCNN5(inDim, numClasses int, h Hyper) (Model, error) {
	if err := h.Validate(); err != nil {
		return nil, err
	}
	if inDim < 9 {
		return nil, errors.New("model: StreamingCNN5 requires inDim >= 9")
	}
	rng := rand.New(rand.NewSource(h.Seed))
	const kernels = 64
	c1Out := inDim - 3 + 1
	p1Out := (c1Out + 1) / 2
	c2Out := p1Out - 3 + 1
	p2Out := (c2Out + 1) / 2
	net, err := nn.NewNetwork(inDim, numClasses,
		nn.NewConv1D(1, kernels, 3, inDim, rng),
		nn.NewReLU(),
		nn.NewMaxPool1D(kernels, c1Out, 2),
		nn.NewConv1D(kernels, kernels, 3, p1Out, rng),
		nn.NewReLU(),
		nn.NewMaxPool1D(kernels, c2Out, 2),
		nn.NewDense(kernels*p2Out, numClasses, rng),
	)
	if err != nil {
		return nil, err
	}
	return &netModel{name: "StreamingCNN5", net: net, opt: nn.NewSGD(h.LR, h.Momentum, h.WeightDecay)}, nil
}

// Factory builds a fresh model of a given family; the baselines and the
// experiment harness use it to construct identical models for every
// framework under comparison.
type Factory func(inDim, numClasses int) (Model, error)

// FactoryFor returns a Factory for the named family ("lr", "mlp", "cnn3",
// "cnn5") with the given hyperparameters.
func FactoryFor(family string, h Hyper) (Factory, error) {
	switch family {
	case "lr":
		return func(in, classes int) (Model, error) { return NewStreamingLR(in, classes, h) }, nil
	case "mlp":
		return func(in, classes int) (Model, error) { return NewStreamingMLP(in, classes, h) }, nil
	case "cnn3":
		return func(in, classes int) (Model, error) { return NewStreamingCNN3(in, classes, h) }, nil
	case "cnn5":
		return func(in, classes int) (Model, error) { return NewStreamingCNN5(in, classes, h) }, nil
	default:
		return nil, errors.New("model: unknown family " + family)
	}
}
