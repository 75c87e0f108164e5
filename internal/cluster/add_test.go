package cluster

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"freewayml/internal/linalg"
)

// TestAddHoldsWhatAddBatchHeld feeds one experience buffer slabs through Add
// — one staging tensor, overwritten with NaNs after every call as a reused
// workspace would be — and a twin the same rows through AddBatch. After
// every step both hold the same points, bit for bit (signed zeros and NaN
// payloads included), with the same labels, births and clock, through
// batches larger than the buffer, ticks past the expiration age, empty
// batches and refused ones.
func TestAddHoldsWhatAddBatchHeld(t *testing.T) {
	const capacity, maxAge, dim = 24, 3, 3
	a, _ := NewExpBuffer(capacity, maxAge)
	b, _ := NewExpBuffer(capacity, maxAge)
	rng := rand.New(rand.NewSource(5))
	var staged linalg.Tensor
	for step := 0; step < 120; step++ {
		if step%7 == 3 {
			a.Tick()
			b.Tick()
		} else {
			n := rng.Intn(12)
			if step%11 == 0 {
				n = capacity + 7
			}
			x, y := make([][]float64, n), make([]int, n)
			for i := range x {
				x[i] = []float64{rng.NormFloat64(), math.Copysign(0, float64(rng.Intn(2))-0.5), math.Float64frombits(0x7ff8_0000_0000_0000 | uint64(rng.Intn(1<<20)))}
				y[i] = rng.Intn(3)
			}
			if step%13 == 6 && n > 0 {
				y = y[1:] // refused: a label short
			}
			staged.FromRows(x, dim)
			errA, errB := a.Add(&staged, y), b.AddBatch(x, y)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("step %d: Add → %v, AddBatch → %v", step, errA, errB)
			}
			for i := range staged.Data {
				staged.Data[i] = math.NaN()
			}
		}
		xa, ya := a.Experience()
		xb, yb := b.Experience()
		if xa.Rows != xb.Rows || !slices.Equal(ya, yb) || len(xa.Data) != len(xb.Data) {
			t.Fatalf("step %d: %d points, the row-fed buffer %d", step, xa.Rows, xb.Rows)
		}
		for i := range xa.Data {
			if math.Float64bits(xa.Data[i]) != math.Float64bits(xb.Data[i]) {
				t.Fatalf("step %d: value %d is %v, the row-fed buffer's %v", step, i, xa.Data[i], xb.Data[i])
			}
		}
		sa, sb := a.Export(), b.Export()
		if !slices.Equal(sa.Birth, sb.Birth) || sa.Now != sb.Now {
			t.Fatalf("step %d: births %v at %d, the row-fed buffer's %v at %d", step, sa.Birth, sa.Now, sb.Birth, sb.Now)
		}
	}
}
