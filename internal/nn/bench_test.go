package nn

import (
	"math/rand"
	"testing"
)

func benchNet(b *testing.B, hidden int) (*Network, [][]float64, []int) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	net, err := NewNetwork(10, 2, NewDense(10, hidden, rng), NewReLU(), NewDense(hidden, 2, rng))
	if err != nil {
		b.Fatal(err)
	}
	x := make([][]float64, 256)
	y := make([]int, 256)
	for i := range x {
		x[i] = make([]float64, 10)
		for j := range x[i] {
			x[i][j] = rng.NormFloat64()
		}
		y[i] = rng.Intn(2)
	}
	return net, x, y
}

func BenchmarkMLPForward(b *testing.B) {
	net, x, _ := benchNet(b, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Predict(x)
	}
}

func BenchmarkMLPTrainBatch(b *testing.B) {
	net, x, y := benchNet(b, 64)
	opt := NewSGD(0.05, 0.9, 1e-4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.TrainBatch(x, y, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConvForward(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	conv := NewConv1D(1, 32, 3, 64, rng)
	pool := NewMaxPool1D(32, 62, 2)
	net, err := NewNetwork(64, 2, conv, NewReLU(), pool, NewDense(32*31, 2, rng))
	if err != nil {
		b.Fatal(err)
	}
	x := make([][]float64, 64)
	for i := range x {
		x[i] = make([]float64, 64)
		for j := range x[i] {
			x[i][j] = rng.NormFloat64()
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Predict(x)
	}
}

func BenchmarkSnapshotRestore(b *testing.B) {
	net, _, _ := benchNet(b, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := net.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		if err := net.Restore(snap); err != nil {
			b.Fatal(err)
		}
	}
}
