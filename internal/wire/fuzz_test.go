package wire

import (
	"encoding/binary"
	"errors"
	"testing"
)

// decoderSeeds is the one seed table both decoders' fuzz targets start from,
// so each decoder's contract is held on the other's inputs too: well-formed
// binary frames; binary frames truncated inside and right after the header,
// one byte short or long, with row, column, id and trace lengths that overrun
// the body or the format's caps, and with an unknown version, dtype or flag;
// the canonical JSON bodies (jsonAccepted); and every body DecodeJSON must
// leave to encoding/json (jsonDeclined), ragged rows and bad label counts
// among them.
func decoderSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	good, err := AppendFrame(nil, "seed", Float64, [][]float64{{1, 2}, {3, 4}}, []int{0, 1})
	if err != nil {
		tb.Fatal(err)
	}
	small, err := AppendFrame(nil, "", Float32, [][]float64{{0.5}}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	traced, err := AppendFrameTrace(nil, "seed", "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", Float64, [][]float64{{1, 2}}, []int{1})
	if err != nil {
		tb.Fatal(err)
	}
	// patch returns a copy of frame with the header field at off, one, two
	// or four bytes wide, set to v.
	patch := func(frame []byte, off, width int, v uint32) []byte {
		b := append([]byte(nil), frame...)
		switch width {
		case 1:
			b[off] = byte(v)
		case 2:
			binary.LittleEndian.PutUint16(b[off:], uint16(v))
		default:
			binary.LittleEndian.PutUint32(b[off:], v)
		}
		return b
	}
	seeds := [][]byte{
		good, small, traced,
		{}, []byte("FWB1"), good[:4], good[:11], good[:HeaderSize-1], good[:HeaderSize], // truncated headers
		good[:len(good)-1], append(append([]byte(nil), good...), 0), traced[:len(traced)-1], // bad lengths
		patch(good, 12, 4, 3), patch(good, 12, 4, 1), patch(good, 16, 4, 3), patch(good, 16, 4, 1), // rows or cols disagree with the body
		patch(good, 12, 4, 0), patch(good, 16, 4, 0), patch(good, 12, 4, 0xffffffff), patch(good, 16, 4, 0xffffffff), // empty and oversize shapes
		patch(good, 8, 2, MaxIDLen+1), patch(good, 8, 2, 0xffff), patch(good, 8, 2, 3), // id lengths
		patch(good, 10, 2, 1), patch(traced, 10, 2, MaxTraceLen+1), patch(traced, 10, 2, 0), // trace lengths
		patch(good, 0, 1, '0'), patch(good, 4, 1, 3), patch(good, 5, 1, 9), // magic, version, dtype
		patch(good, 6, 2, uint32(FlagLabels|FlagTrace)), patch(good, 6, 2, 0x8001), // flags
	}
	for _, body := range jsonAccepted {
		seeds = append(seeds, []byte(body))
	}
	for _, body := range jsonDeclined {
		seeds = append(seeds, []byte(body))
	}
	return seeds
}

// FuzzDecodeInto asserts the decoder's total-safety contract on arbitrary
// bytes: either a clean ErrMalformed or a successful decode whose shape is
// internally consistent — never a panic, never an out-of-range slice.
func FuzzDecodeInto(f *testing.F) {
	for _, seed := range decoderSeeds(f) {
		f.Add(seed)
	}
	var frame Frame
	f.Fuzz(func(t *testing.T, data []byte) {
		err := frame.DecodeInto(data)
		if err != nil {
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("non-malformed decode error: %v", err)
			}
			return
		}
		if len(frame.X) == 0 {
			t.Fatal("successful decode with no rows")
		}
		cols := len(frame.X[0])
		for i, row := range frame.X {
			if len(row) != cols {
				t.Fatalf("ragged decode: row %d width %d, want %d", i, len(row), cols)
			}
		}
		if frame.Y != nil && len(frame.Y) != len(frame.X) {
			t.Fatalf("label count %d for %d rows", len(frame.Y), len(frame.X))
		}
	})
}

// TestDecoderSeedsAreMalformed: of the shared seeds, the three well-formed
// frames decode and every other one fails DecodeInto with ErrMalformed — so
// the table exercises the refusals it names, not only the happy path.
func TestDecoderSeedsAreMalformed(t *testing.T) {
	var frame Frame
	for i, seed := range decoderSeeds(t) {
		err := frame.DecodeInto(seed)
		if wellFormed := i < 3; wellFormed != (err == nil) || err != nil && !errors.Is(err, ErrMalformed) {
			t.Errorf("seed %d (%q): DecodeInto = %v", i, seed, err)
		}
	}
}
