package nn

import (
	"math"
	"testing"
)

// TestFloorProbIsMathMax holds the loss head's inlined floor to math.Max(v,
// crossEntropyEps) bit for bit: NaNs (quiet and signalling, either sign, with
// payloads, the canonical one), ±0, subnormals, the floor itself and its
// neighbours, ±Inf, and ordinary probabilities.
func TestFloorProbIsMathMax(t *testing.T) {
	vals := []float64{
		math.NaN(),
		math.Float64frombits(0x7ff8_0000_0000_0000), // quiet, no payload
		math.Float64frombits(0x7ff8_dead_beef_0001), // quiet, payload
		math.Float64frombits(0xfff8_0000_0000_1234), // negative quiet, payload
		math.Float64frombits(0x7ff0_0000_0000_0001), // signalling
		math.Float64frombits(0xfff4_0000_0000_0000), // negative signalling
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000f_ffff_ffff_ffff), // the largest subnormal
		crossEntropyEps, -crossEntropyEps,
		math.Nextafter(crossEntropyEps, 0), math.Nextafter(crossEntropyEps, 1),
		math.Inf(1), math.Inf(-1),
		1e-300, 0.25, 0.5, 1, math.MaxFloat64, -1,
	}
	for _, v := range vals {
		want, got := math.Max(v, crossEntropyEps), floorProb(v)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("floorProb(%#016x) = %#016x, math.Max gives %#016x", math.Float64bits(v), math.Float64bits(got), math.Float64bits(want))
		}
	}
}
