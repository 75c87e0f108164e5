package nn

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// imageNet is the 3→4→2 MLP the image tests write: tensors of 12, 4, 8 and 2
// values.
func imageNet(seed int64) *Network {
	rng := rand.New(rand.NewSource(seed))
	net, err := NewNetwork(3, 2, NewDense(3, 4, rng), NewReLU(), NewDense(4, 2, rng))
	if err != nil {
		panic(err)
	}
	return net
}

// oddValues are the weights whose bits a careless encoder would change.
var oddValues = []float64{
	math.Copysign(0, -1),
	math.Float64frombits(0x7ff8_0000_dead_beef), // quiet NaN with a payload
	math.Float64frombits(0xfff0_0000_0000_0001), // negative signalling NaN
	math.Float64frombits(1),                     // the smallest subnormal
	math.Inf(1),
	math.Inf(-1),
}

func paramBits(n *Network) []uint64 {
	var bits []uint64
	for _, w := range n.AppendFlatParams(nil) {
		bits = append(bits, math.Float64bits(w))
	}
	return bits
}

func sameParamBits(t *testing.T, what string, got, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d weights, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: weight %d bits %#x, want %#x", what, i, got[i], want[i])
		}
	}
}

// TestImageLayout: the image is the tensor count, each tensor's length, then
// every value's float64 bits in Params order, all little-endian 64-bit words.
func TestImageLayout(t *testing.T) {
	net := imageNet(1)
	k := 0
	for _, p := range net.Params() {
		for i := range p.W {
			if k < len(oddValues) {
				p.W[i] = oddValues[k]
			} else {
				p.W[i] = float64(k) / 8
			}
			k++
		}
	}
	want := []byte{
		4, 0, 0, 0, 0, 0, 0, 0,
		12, 0, 0, 0, 0, 0, 0, 0,
		4, 0, 0, 0, 0, 0, 0, 0,
		8, 0, 0, 0, 0, 0, 0, 0,
		2, 0, 0, 0, 0, 0, 0, 0,
		0, 0, 0, 0, 0, 0, 0, 0x80, // -0
		0xef, 0xbe, 0xad, 0xde, 0, 0, 0xf8, 0x7f,
		1, 0, 0, 0, 0, 0, 0xf0, 0xff,
		1, 0, 0, 0, 0, 0, 0, 0,
		0, 0, 0, 0, 0, 0, 0xf0, 0x7f, // +Inf
		0, 0, 0, 0, 0, 0, 0xf0, 0xff, // -Inf
	}
	for k := len(oddValues); k < 26; k++ {
		want = binary.LittleEndian.AppendUint64(want, math.Float64bits(float64(k)/8))
	}
	got, err := net.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("image\n got % x\nwant % x", got, want)
	}

	other := imageNet(2)
	if err := other.Restore(got); err != nil {
		t.Fatal(err)
	}
	sameParamBits(t, "round trip", paramBits(other), paramBits(net))
}

// TestRestoreIsAllOrNothing: an image that does not fit — another layout
// whose first tensor fits and whose second does not, any truncation, a byte
// too many — is refused before any weight is written, so every weight keeps
// its bits and a forward frozen before stays current.
func TestRestoreIsAllOrNothing(t *testing.T) {
	net := imageNet(3)
	img, err := net.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Tensors of 12, 6, 24 and 2 values: the first is as long as net's first.
	rng := rand.New(rand.NewSource(4))
	conv, err := NewNetwork(3, 2, NewConv1D(1, 6, 2, 3, rng), NewReLU(), NewDense(12, 2, rng))
	if err != nil {
		t.Fatal(err)
	}
	before := paramBits(conv)
	frozen := conv.Freeze(nil)
	if err := conv.Restore(img); err == nil {
		t.Fatal("an image of another layout was restored")
	}
	sameParamBits(t, "after a refused image of another layout", paramBits(conv), before)
	if !frozen.Current() {
		t.Fatal("a refused restore moved the parameter version")
	}

	donor := imageNet(5)
	before = paramBits(donor)
	frozen = donor.Freeze(nil)
	for n := 0; n < len(img); n++ {
		if err := donor.Restore(img[:n]); err == nil {
			t.Fatalf("an image truncated to %d of %d bytes was restored", n, len(img))
		}
	}
	if err := donor.Restore(append(img[:len(img):len(img)], 0)); err == nil {
		t.Fatal("an image with a trailing byte was restored")
	}
	sameParamBits(t, "after refused images", paramBits(donor), before)
	if !frozen.Current() {
		t.Fatal("a refused restore moved the parameter version")
	}
}

// TestImageAllocs: appending into a buffer with room and restoring allocate
// nothing.
func TestImageAllocs(t *testing.T) {
	net := imageNet(6)
	buf := net.AppendSnapshot(nil)
	if n := testing.AllocsPerRun(100, func() { buf = net.AppendSnapshot(buf[:0]) }); n != 0 {
		t.Errorf("AppendSnapshot into a buffer with room: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := net.Restore(buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Restore: %v allocations, want 0", n)
	}
}
