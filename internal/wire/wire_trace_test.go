package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
)

const testTraceparent = "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"

func TestAppendFrameTraceRoundTrip(t *testing.T) {
	x := [][]float64{{1, 2, 3}, {4, 5, 6}}
	y := []int{0, 1}
	buf, err := AppendFrameTrace(nil, "orders", testTraceparent, Float64, x, y)
	if err != nil {
		t.Fatal(err)
	}
	if buf[4] != VersionTrace {
		t.Fatalf("version byte = %d, want %d", buf[4], VersionTrace)
	}
	var f Frame
	if err := f.DecodeInto(buf); err != nil {
		t.Fatal(err)
	}
	if f.ID != "orders" || f.Traceparent != testTraceparent {
		t.Fatalf("decoded id=%q trace=%q", f.ID, f.Traceparent)
	}
	if len(f.X) != 2 || f.X[1][2] != 6 || f.Y[1] != 1 {
		t.Fatalf("payload corrupted: X=%v Y=%v", f.X, f.Y)
	}

	// An untraced frame decoded into the same Frame must clear Traceparent.
	plain, err := AppendFrame(nil, "orders", Float64, x, y)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.DecodeInto(plain); err != nil {
		t.Fatal(err)
	}
	if f.Traceparent != "" {
		t.Fatalf("stale traceparent %q after v1 decode", f.Traceparent)
	}
}

func TestAppendFrameTraceEmptyIsBitwiseV1(t *testing.T) {
	x := [][]float64{{1.5, -2.25}}
	for _, y := range [][]int{nil, {1}} {
		v1, err := AppendFrame(nil, "s", Float32, x, y)
		if err != nil {
			t.Fatal(err)
		}
		v1b, err := AppendFrameTrace(nil, "s", "", Float32, x, y)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(v1, v1b) {
			t.Fatalf("AppendFrameTrace(\"\") diverged from AppendFrame\n v1: %x\n got: %x", v1, v1b)
		}
	}
}

func TestDecodeTraceMalformed(t *testing.T) {
	x := [][]float64{{1, 2}}
	good, err := AppendFrameTrace(nil, "s", testTraceparent, Float64, x, nil)
	if err != nil {
		t.Fatal(err)
	}
	var f Frame

	// Version 1 with a non-zero reserved field must still be rejected.
	v1 := append([]byte(nil), good...)
	v1[4] = Version
	if err := f.DecodeInto(v1); !errors.Is(err, ErrMalformed) {
		t.Fatalf("v1 nonzero reserved: err = %v, want ErrMalformed", err)
	}

	// FlagTrace on version 1 is an unknown flag.
	plain, err := AppendFrame(nil, "s", Float64, x, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), plain...)
	flags := binary.LittleEndian.Uint16(bad[6:8]) | FlagTrace
	binary.LittleEndian.PutUint16(bad[6:8], flags)
	if err := f.DecodeInto(bad); !errors.Is(err, ErrMalformed) {
		t.Fatalf("v1+FlagTrace: err = %v, want ErrMalformed", err)
	}

	// Version 2 with FlagTrace but zero trace length.
	zl := append([]byte(nil), good...)
	binary.LittleEndian.PutUint16(zl[10:12], 0)
	if err := f.DecodeInto(zl); !errors.Is(err, ErrMalformed) {
		t.Fatalf("zero trace length: err = %v, want ErrMalformed", err)
	}

	// Version 2 with a trace length but no flag.
	nf := append([]byte(nil), good...)
	binary.LittleEndian.PutUint16(nf[6:8], 0)
	if err := f.DecodeInto(nf); !errors.Is(err, ErrMalformed) {
		t.Fatalf("trace length without flag: err = %v, want ErrMalformed", err)
	}

	// Trace length pointing past the payload.
	tl := append([]byte(nil), good...)
	binary.LittleEndian.PutUint16(tl[10:12], uint16(len(testTraceparent)+8))
	if err := f.DecodeInto(tl); !errors.Is(err, ErrMalformed) {
		t.Fatalf("oversized trace length: err = %v, want ErrMalformed", err)
	}

	// Oversized trace context rejected at encode time.
	if _, err := AppendFrameTrace(nil, "s", strings.Repeat("a", MaxTraceLen+1), Float64, x, nil); err == nil {
		t.Fatal("encode accepted trace context over MaxTraceLen")
	}
}

func TestDecodeTraceVersion2Untraced(t *testing.T) {
	// A hand-built version-2 frame without FlagTrace (trace length 0) must
	// decode: version 2 is a superset, not a different dialect.
	buf, err := AppendFrame(nil, "s", Float64, [][]float64{{1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	buf[4] = VersionTrace
	var f Frame
	if err := f.DecodeInto(buf); err != nil {
		t.Fatal(err)
	}
	if f.Traceparent != "" || f.ID != "s" {
		t.Fatalf("decoded id=%q trace=%q", f.ID, f.Traceparent)
	}
}

// TestWarmTraceDecodeAllocs pins the steady-state cost of the trace
// extension: a warm decode of a frame whose trace context is unchanged
// allocates nothing (the id fast-path extends to the traceparent).
func TestWarmTraceDecodeAllocs(t *testing.T) {
	buf, err := AppendFrameTrace(nil, "s", testTraceparent, Float64, [][]float64{{1, 2}, {3, 4}}, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	var f Frame
	if err := f.DecodeInto(buf); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := f.DecodeInto(buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm traced decode allocates %v times, want 0", allocs)
	}
}

// TestFrameTraceparentPeeksHeader: the header peek returns exactly what a
// full decode puts in Frame.Traceparent, and "" for an untraced frame or a
// header that does not parse.
func TestFrameTraceparentPeeksHeader(t *testing.T) {
	x, y := [][]float64{{1, 2, 3}}, []int{1}
	traced, err := AppendFrameTrace(nil, "orders", testTraceparent, Float32, x, y)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := AppendFrame(nil, "orders", Float64, x, y)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		buf  []byte
		want string
	}{
		{"traced", traced, testTraceparent},
		{"version 1", plain, ""},
		{"cut inside the trace context", traced[:HeaderSize+len("orders")+10], ""},
		{"shorter than a header", traced[:HeaderSize-1], ""},
		{"not a frame", []byte(`{"x":[[1,2,3]],"y":[1]}`), ""},
	} {
		if got := FrameTraceparent(tc.buf); got != tc.want {
			t.Errorf("%s: FrameTraceparent = %q, want %q", tc.name, got, tc.want)
		}
	}
}
