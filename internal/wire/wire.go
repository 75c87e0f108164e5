// Package wire implements FreewayML's binary batch frame —
// the zero-copy ingest format the serve tier accepts alongside JSON. A frame
// carries one mini-batch for one stream: a fixed header (magic, version,
// dtype, flags, stream id, row/col counts), the feature matrix as row-major
// little-endian float32 or float64, and optionally one int32 label per row.
//
// Layout (all integers little-endian):
//
//	offset  size  field
//	0       4     magic "FWB1"
//	4       1     version (1 or 2)
//	5       1     dtype: 0 = float64, 1 = float32
//	6       2     flags: bit0 = labels present; bit1 = trace context present
//	              (version 2 only; all other bits must be zero)
//	8       2     id length in bytes (may be 0 when the id travels out of band)
//	10      2     version 1: reserved (must be zero)
//	              version 2: trace-context length in bytes (non-zero iff bit1
//	              of flags is set)
//	12      4     rows
//	16      4     cols
//	20      ...   id bytes, then trace-context bytes (a W3C traceparent
//	              string, version 2 only), then rows×cols feature values,
//	              then rows int32 labels
//
// Version 2 exists only to carry the optional trace context: a version-2
// frame without FlagTrace is byte-identical to version 1 except for the
// version byte, and encoders emit version 1 whenever no trace context is
// attached, so untraced traffic stays bitwise-identical to PR7 frames.
//
// Over HTTP the body is exactly one frame and Content-Length delimits it
// (DecodeInto).
//
// Decoding is allocation-free at steady state: DecodeInto reuses the Frame's
// tensor slab, row headers, and label slice, so a warm stream (same shape,
// same id) decodes with zero allocations — the property the AllocsPerRun
// guard in wire_test.go pins. The decoded rows are valid until the next
// decode into the same Frame; the learner copies whatever it keeps.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"freewayml/internal/linalg"
)

// HeaderSize is the fixed frame header length in bytes.
const HeaderSize = 20

// Dtype codes for the feature payload.
const (
	Float64 byte = 0
	Float32 byte = 1
)

// Version is the baseline frame version: no trace context, reserved field
// zero. Encoders emit it whenever possible so untraced frames stay
// bitwise-identical across releases.
const Version = 1

// VersionTrace is the frame version that may carry a trace-context
// extension (FlagTrace + a non-zero length at offset 10).
const VersionTrace = 2

// FlagLabels marks a frame carrying one int32 label per row.
const FlagLabels uint16 = 1 << 0

// FlagTrace marks a version-2 frame carrying a trace-context extension
// (a W3C traceparent string between the id and the features).
const FlagTrace uint16 = 1 << 1

// MaxIDLen bounds the embedded stream id (the session layer caps ids at 64
// anyway; the wire cap just keeps the u16 honest).
const MaxIDLen = 256

// MaxTraceLen bounds the embedded trace context (a traceparent is 55
// bytes; the slack allows future vendor suffixes without a format bump).
const MaxTraceLen = 128

var magic = [4]byte{'F', 'W', 'B', '1'}

// ErrMalformed is wrapped by every decode error caused by the frame bytes
// themselves (bad magic, truncation, length mismatch, overflow). The serve
// tier maps it to a 400.
var ErrMalformed = errors.New("wire: malformed frame")

// Frame is one decoded batch plus the reusable storage behind it. The zero
// value is ready to use; keep reusing one Frame per pooled handler slot so
// warm decodes allocate nothing.
type Frame struct {
	// ID is the embedded stream id ("" when the frame is path-addressed).
	ID string
	// Traceparent is the embedded trace context ("" when the frame carries
	// none) — the binary-path equivalent of the traceparent HTTP header.
	Traceparent string
	// Dtype is the feature payload's on-wire precision; features are always
	// widened to float64 in X (the compute core is float64).
	Dtype byte
	// X holds the feature rows; each row is a view into the tensor slab, and
	// consecutive rows are adjacent, so the whole batch stays cache-friendly
	// and Tensor() exposes it as one row-major block.
	X [][]float64
	// Y holds one label per row, or nil for inference-only frames.
	Y []int
	// Grew reports whether the last DecodeInto had to allocate (cold frame or
	// a batch larger than anything seen before) — the decode-alloc signal the
	// serve metrics count.
	Grew bool

	t *linalg.Tensor // slab behind X
	y []int          // label storage (Y aliases it when labeled)
}

// Tensor returns the row-major slab behind X: nil before the first decode,
// and nil when X no longer views it (a caller set X to rows of its own). The
// tensor is frame-owned; it is valid until the next decode.
func (f *Frame) Tensor() *linalg.Tensor {
	if f.t == nil || len(f.X) == 0 || len(f.X) != f.t.Rows || len(f.X[0]) == 0 || len(f.t.Data) == 0 || &f.X[0][0] != &f.t.Data[0] {
		return nil
	}
	return f.t
}

// reserve sizes the slab and the row views for a rows×cols batch, reusing
// what the frame holds and flagging Grew when it had to allocate. It returns
// the slab's values, which the caller overwrites.
func (f *Frame) reserve(rows, cols int) []float64 {
	if f.t == nil || cap(f.t.Data) < rows*cols || cap(f.X) < rows {
		f.Grew = true
	}
	f.t = linalg.EnsureTensor(f.t, rows, cols)
	if cap(f.X) < rows {
		f.X = make([][]float64, rows)
	}
	data, x := f.t.Data, f.X[:rows]
	for i := range x {
		x[i] = data[i*cols : (i+1)*cols : (i+1)*cols]
	}
	f.X = x
	return data
}

// reserveLabels sizes the label storage for rows labels, like reserve.
func (f *Frame) reserveLabels(rows int) []int {
	if cap(f.y) < rows {
		f.y = make([]int, rows)
		f.Grew = true
	}
	f.y = f.y[:rows]
	return f.y
}

// DecodeInto parses one complete frame (without the stream length prefix)
// from buf into f, reusing f's storage. All errors wrap ErrMalformed.
func (f *Frame) DecodeInto(buf []byte) error {
	f.Grew = false
	if len(buf) < HeaderSize {
		return fmt.Errorf("%w: %d bytes, header needs %d", ErrMalformed, len(buf), HeaderSize)
	}
	if [4]byte(buf[0:4]) != magic {
		return fmt.Errorf("%w: bad magic %q", ErrMalformed, buf[0:4])
	}
	version := buf[4]
	if version != Version && version != VersionTrace {
		return fmt.Errorf("%w: version %d, want %d or %d", ErrMalformed, version, Version, VersionTrace)
	}
	dtype := buf[5]
	if dtype != Float64 && dtype != Float32 {
		return fmt.Errorf("%w: unknown dtype %d", ErrMalformed, dtype)
	}
	flags := binary.LittleEndian.Uint16(buf[6:8])
	known := FlagLabels
	if version == VersionTrace {
		known |= FlagTrace
	}
	if flags&^known != 0 {
		return fmt.Errorf("%w: unknown flags %#x for version %d", ErrMalformed, flags, version)
	}
	idLen := int(binary.LittleEndian.Uint16(buf[8:10]))
	// Offset 10 is reserved (must be zero) in version 1 and the
	// trace-context length in version 2.
	traceLen := int(binary.LittleEndian.Uint16(buf[10:12]))
	traced := flags&FlagTrace != 0
	switch {
	case version == Version && traceLen != 0:
		return fmt.Errorf("%w: reserved field %#x", ErrMalformed, traceLen)
	case traced && (traceLen == 0 || traceLen > MaxTraceLen):
		return fmt.Errorf("%w: trace length %d outside (0,%d]", ErrMalformed, traceLen, MaxTraceLen)
	case !traced && traceLen != 0:
		return fmt.Errorf("%w: trace length %d without trace flag", ErrMalformed, traceLen)
	}
	rows64 := uint64(binary.LittleEndian.Uint32(buf[12:16]))
	cols64 := uint64(binary.LittleEndian.Uint32(buf[16:20]))
	if rows64 == 0 || cols64 == 0 {
		return fmt.Errorf("%w: empty shape %d×%d", ErrMalformed, rows64, cols64)
	}
	if idLen > MaxIDLen {
		return fmt.Errorf("%w: id length %d exceeds %d", ErrMalformed, idLen, MaxIDLen)
	}
	esz := uint64(8)
	if dtype == Float32 {
		esz = 4
	}
	labeled := flags&FlagLabels != 0
	// Row/col counts are attacker-controlled u32s: size arithmetic runs in
	// uint64 against the actual buffer length, so a frame announcing 2^32
	// rows fails the length check instead of overflowing an int.
	elems := rows64 * cols64 // ≤ (2^32-1)^2, no overflow in uint64
	if elems > uint64(len(buf))/esz {
		return fmt.Errorf("%w: %d×%d values cannot fit %d bytes", ErrMalformed, rows64, cols64, len(buf))
	}
	want := uint64(HeaderSize) + uint64(idLen) + uint64(traceLen) + elems*esz
	if labeled {
		want += rows64 * 4
	}
	if uint64(len(buf)) != want {
		return fmt.Errorf("%w: %d bytes, layout needs %d", ErrMalformed, len(buf), want)
	}
	rows, cols := int(rows64), int(cols64)

	idBytes := buf[HeaderSize : HeaderSize+idLen]
	// string(bytes) == string compares without allocating; the conversion
	// below runs only when the id actually changes, so a pooled frame that
	// keeps decoding one stream's batches re-decodes its id for free.
	if f.ID != string(idBytes) {
		f.ID = string(idBytes)
	}
	traceBytes := buf[HeaderSize+idLen : HeaderSize+idLen+traceLen]
	if f.Traceparent != string(traceBytes) {
		f.Traceparent = string(traceBytes)
	}
	f.Dtype = dtype

	dst := f.reserve(rows, cols)
	payload := buf[HeaderSize+idLen+traceLen:]
	if dtype == Float64 {
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[i*8:]))
		}
	} else {
		for i := range dst {
			dst[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(payload[i*4:])))
		}
	}
	f.Y = nil
	if labeled {
		y, lab := f.reserveLabels(rows), payload[int(elems*esz):]
		for i := range y {
			y[i] = int(int32(binary.LittleEndian.Uint32(lab[i*4:])))
		}
		f.Y = y
	}
	return nil
}

// FrameTraceparent returns the trace context a frame embeds ("" when it
// carries none or its header does not parse) without decoding the payload —
// what a proxy reads to join the trace of a request traced in-band.
func FrameTraceparent(buf []byte) string {
	if len(buf) < HeaderSize || [4]byte(buf[0:4]) != magic || buf[4] != VersionTrace ||
		binary.LittleEndian.Uint16(buf[6:8])&FlagTrace == 0 {
		return ""
	}
	start := HeaderSize + int(binary.LittleEndian.Uint16(buf[8:10]))
	end := start + int(binary.LittleEndian.Uint16(buf[10:12]))
	if end-start > MaxTraceLen || end > len(buf) {
		return ""
	}
	return string(buf[start:end])
}

// EncodedSize returns the frame byte length for the given shape (without a
// trace context).
func EncodedSize(idLen, rows, cols int, dtype byte, labeled bool) int {
	esz := 8
	if dtype == Float32 {
		esz = 4
	}
	n := HeaderSize + idLen + rows*cols*esz
	if labeled {
		n += rows * 4
	}
	return n
}

// AppendFrame appends one encoded version-1 frame to dst and returns the
// extended slice. Rows must be
// rectangular; float32 frames narrow each value (the lossy half of the
// differential test: the client narrows, both paths widen identically).
// y may be nil.
func AppendFrame(dst []byte, id string, dtype byte, x [][]float64, y []int) ([]byte, error) {
	return AppendFrameTrace(dst, id, "", dtype, x, y)
}

// AppendFrameTrace appends one encoded frame carrying the given trace
// context (a traceparent string). An empty traceparent produces a
// version-1 frame bit-for-bit identical to AppendFrame; a non-empty one
// produces a version-2 frame with the FlagTrace extension.
func AppendFrameTrace(dst []byte, id, traceparent string, dtype byte, x [][]float64, y []int) ([]byte, error) {
	if dtype != Float64 && dtype != Float32 {
		return nil, fmt.Errorf("wire: unknown dtype %d", dtype)
	}
	if len(id) > MaxIDLen {
		return nil, fmt.Errorf("wire: id %q longer than %d bytes", id, MaxIDLen)
	}
	if len(traceparent) > MaxTraceLen {
		return nil, fmt.Errorf("wire: trace context %d bytes, cap %d", len(traceparent), MaxTraceLen)
	}
	rows := len(x)
	if rows == 0 {
		return nil, errors.New("wire: empty batch")
	}
	cols := len(x[0])
	if cols == 0 {
		return nil, errors.New("wire: zero-width rows")
	}
	if rows > math.MaxUint32 || cols > math.MaxUint32 {
		return nil, fmt.Errorf("wire: shape %d×%d exceeds u32", rows, cols)
	}
	if y != nil && len(y) != rows {
		return nil, fmt.Errorf("wire: %d labels for %d rows", len(y), rows)
	}
	labeled := y != nil

	start := len(dst)
	dst = append(dst, make([]byte, EncodedSize(len(id), rows, cols, dtype, labeled)+len(traceparent))...)
	b := dst[start:]
	copy(b[0:4], magic[:])
	b[5] = dtype
	var flags uint16
	if labeled {
		flags |= FlagLabels
	}
	if traceparent == "" {
		b[4] = Version
	} else {
		b[4] = VersionTrace
		flags |= FlagTrace
	}
	binary.LittleEndian.PutUint16(b[6:8], flags)
	binary.LittleEndian.PutUint16(b[8:10], uint16(len(id)))
	binary.LittleEndian.PutUint16(b[10:12], uint16(len(traceparent)))
	binary.LittleEndian.PutUint32(b[12:16], uint32(rows))
	binary.LittleEndian.PutUint32(b[16:20], uint32(cols))
	copy(b[HeaderSize:], id)
	copy(b[HeaderSize+len(id):], traceparent)
	p := b[HeaderSize+len(id)+len(traceparent):]
	for _, row := range x {
		if len(row) != cols {
			return nil, fmt.Errorf("wire: ragged batch (row width %d, want %d)", len(row), cols)
		}
		if dtype == Float64 {
			for _, v := range row {
				binary.LittleEndian.PutUint64(p, math.Float64bits(v))
				p = p[8:]
			}
		} else {
			for _, v := range row {
				binary.LittleEndian.PutUint32(p, math.Float32bits(float32(v)))
				p = p[4:]
			}
		}
	}
	for _, v := range y {
		binary.LittleEndian.PutUint32(p, uint32(int32(v)))
		p = p[4:]
	}
	return dst, nil
}
