package wire

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
)

func randBatch(rng *rand.Rand, rows, cols int, labeled bool) ([][]float64, []int) {
	x := make([][]float64, rows)
	var y []int
	if labeled {
		y = make([]int, rows)
	}
	for i := range x {
		x[i] = make([]float64, cols)
		for j := range x[i] {
			x[i][j] = rng.NormFloat64()
		}
		if labeled {
			y[i] = rng.Intn(3)
		}
	}
	return x, y
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		name    string
		dtype   byte
		labeled bool
		id      string
	}{
		{"f64 labeled", Float64, true, "orders"},
		{"f64 unlabeled", Float64, false, "orders"},
		{"f32 labeled", Float32, true, "s.1-x_Y"},
		{"f32 unlabeled", Float32, false, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			x, y := randBatch(rng, 5, 3, tc.labeled)
			buf, err := AppendFrame(nil, tc.id, tc.dtype, x, y)
			if err != nil {
				t.Fatal(err)
			}
			if len(buf) != EncodedSize(len(tc.id), 5, 3, tc.dtype, tc.labeled) {
				t.Fatalf("encoded %d bytes, EncodedSize says %d", len(buf),
					EncodedSize(len(tc.id), 5, 3, tc.dtype, tc.labeled))
			}
			var f Frame
			if err := f.DecodeInto(buf); err != nil {
				t.Fatal(err)
			}
			if f.ID != tc.id || f.Dtype != tc.dtype {
				t.Fatalf("id %q dtype %d, want %q %d", f.ID, f.Dtype, tc.id, tc.dtype)
			}
			if len(f.X) != len(x) {
				t.Fatalf("%d rows, want %d", len(f.X), len(x))
			}
			for i := range x {
				for j := range x[i] {
					want := x[i][j]
					if tc.dtype == Float32 {
						want = float64(float32(want))
					}
					if f.X[i][j] != want {
						t.Fatalf("X[%d][%d] = %v, want %v", i, j, f.X[i][j], want)
					}
				}
			}
			if tc.labeled {
				for i := range y {
					if f.Y[i] != y[i] {
						t.Fatalf("Y[%d] = %d, want %d", i, f.Y[i], y[i])
					}
				}
			} else if f.Y != nil {
				t.Fatalf("unlabeled frame decoded labels %v", f.Y)
			}
		})
	}
}

// TestRowsAliasTensor pins the layout contract Tensor() promises:
// decoded rows are adjacent views of one row-major slab.
func TestRowsAliasTensor(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, y := randBatch(rng, 4, 6, true)
	buf, err := AppendFrame(nil, "a", Float64, x, y)
	if err != nil {
		t.Fatal(err)
	}
	var f Frame
	if err := f.DecodeInto(buf); err != nil {
		t.Fatal(err)
	}
	slab := f.Tensor().Data
	for i, row := range f.X {
		want := slab[i*6 : (i+1)*6]
		if &row[0] != &want[0] || len(row) != 6 {
			t.Fatalf("row %d does not alias the slab", i)
		}
	}
}

// TestMalformed is the satellite fuzz table: every corruption must produce
// an ErrMalformed, never a panic or a silent success.
func TestMalformed(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, y := randBatch(rng, 4, 3, true)
	good, err := AppendFrame(nil, "abc", Float64, x, y)
	if err != nil {
		t.Fatal(err)
	}
	mut := func(fn func(b []byte) []byte) []byte {
		b := append([]byte(nil), good...)
		return fn(b)
	}
	cases := []struct {
		name string
		buf  []byte
	}{
		{"empty", nil},
		{"truncated header", good[:HeaderSize-1]},
		{"truncated payload", good[:len(good)-5]},
		{"extra trailing bytes", append(append([]byte(nil), good...), 0xAB)},
		{"bad magic", mut(func(b []byte) []byte { b[0] = 'X'; return b })},
		{"bad version", mut(func(b []byte) []byte { b[4] = 99; return b })},
		{"bad dtype", mut(func(b []byte) []byte { b[5] = 7; return b })},
		{"unknown flags", mut(func(b []byte) []byte { b[6] |= 0x80; return b })},
		{"nonzero reserved", mut(func(b []byte) []byte { b[10] = 1; return b })},
		{"zero rows", mut(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[12:16], 0)
			return b
		})},
		{"row overflow", mut(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[12:16], math.MaxUint32)
			return b
		})},
		{"row x col overflow", mut(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[12:16], math.MaxUint32)
			binary.LittleEndian.PutUint32(b[16:20], math.MaxUint32)
			return b
		})},
		{"id longer than frame", mut(func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[8:10], math.MaxUint16)
			return b
		})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var f Frame
			err := f.DecodeInto(tc.buf)
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("err = %v, want ErrMalformed", err)
			}
		})
	}
}

func TestAppendFrameRejects(t *testing.T) {
	if _, err := AppendFrame(nil, "a", Float64, nil, nil); err == nil {
		t.Fatal("empty batch encoded")
	}
	if _, err := AppendFrame(nil, "a", Float64, [][]float64{{1, 2}, {3}}, nil); err == nil {
		t.Fatal("ragged batch encoded")
	}
	if _, err := AppendFrame(nil, "a", Float64, [][]float64{{1}}, []int{1, 2}); err == nil {
		t.Fatal("label count mismatch encoded")
	}
	if _, err := AppendFrame(nil, "a", 9, [][]float64{{1}}, nil); err == nil {
		t.Fatal("unknown dtype encoded")
	}
}

// TestDecodeAllocsSteadyState is the PR7 allocation regression guard:
// decoding a warm stream (same shape, same id) into a reused Frame performs
// zero allocations per frame.
func TestDecodeAllocsSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x, y := randBatch(rng, 32, 6, true)
	for _, dtype := range []byte{Float64, Float32} {
		buf, err := AppendFrame(nil, "warm-stream", dtype, x, y)
		if err != nil {
			t.Fatal(err)
		}
		var f Frame
		if err := f.DecodeInto(buf); err != nil { // warm up the slabs
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := f.DecodeInto(buf); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("dtype %d: steady-state decode allocates %.1f per frame, want 0", dtype, allocs)
		}
		if f.Grew {
			t.Fatalf("dtype %d: warm decode reported growth", dtype)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	const rows, cols = 32, 6
	x, y := randBatch(rng, rows, cols, true)
	for _, tc := range []struct {
		name  string
		dtype byte
	}{{"f64", Float64}, {"f32", Float32}} {
		b.Run(tc.name, func(b *testing.B) {
			buf, err := AppendFrame(nil, "bench", tc.dtype, x, y)
			if err != nil {
				b.Fatal(err)
			}
			var f Frame
			if err := f.DecodeInto(buf); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := f.DecodeInto(buf); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
}

// BenchmarkDecodeJSONBaseline is the same batch through encoding/json — the
// per-request cost the binary path removes.
func BenchmarkDecodeJSONBaseline(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	const rows, cols = 32, 6
	x, y := randBatch(rng, rows, cols, true)
	body, err := jsonEncode(x, y)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := jsonDecode(body); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
}
