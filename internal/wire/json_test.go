package wire

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// jsonBatch is the serve tier's JSON batch contract; it lives in a test file
// so the package itself stays encoding/json-free.
type jsonBatch struct {
	X [][]float64 `json:"x"`
	Y []int       `json:"y,omitempty"`
}

func jsonEncode(x [][]float64, y []int) ([]byte, error) {
	return json.Marshal(jsonBatch{x, y})
}

func jsonDecode(body []byte) ([][]float64, []int, error) {
	var req jsonBatch
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, nil, err
	}
	return req.X, req.Y, nil
}

// jsonReference is the decode the serve tier's slow path runs: unknown
// fields refused, nothing but whitespace after the object.
func jsonReference(body []byte) (req jsonBatch, ok bool) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, false
	}
	_, err := dec.Token()
	return req, err == io.EOF
}

// jsonAccepted are bodies DecodeJSON must take; jsonDeclined are bodies it
// must leave to encoding/json, one or more per class the contract names
// (encoding/json accepts some of them — that is the point of deferring).
var (
	jsonAccepted = []string{
		`{"x":[[1,2]],"y":[0]}`,
		`{"x":[[1,2],[3,4]],"y":[0,1]}`,
		`{"x":[[1,2]]}`,
		`{"y":[1],"x":[[1,2]]}`,
		" {\t\"x\" :\r\n[ [ 1 , 2 ] , [ 3 , 4 ] ] , \"y\" : [ 0 , 1 ] } \n",
		`{"x":[[-0,0.5e-3]],"y":[-0]}`,
		`{"x":[[1E+2,-1.25e2],[0e0,0.0]],"y":[1,0]}`,
		`{"x":[[1e-400,4.9e-324]]}`,
		`{"x":[[0.1,123456789012345678901234567890.5]]}`,
		`{"x":[[1,2]],"y":[-1]}`,
		`{"x":[[1,2]],"y":[7]}`,
		`{"x":[[1,2,3]]}`,
	}
	jsonDeclined = []string{
		`{"x":[[1,2]],"z":1}`, `{"X":[[1,2]],"Y":[0]}`, `{"\u0078":[[1,2]]}`, // unknown, upper-case, escaped key
		`{"x ":[[0,0]]}`, `{" x":[[0,0]]}`, `{"x":[[1,2]],"y ":[0]}`, // whitespace inside a key
		`{"x":[[1,2]],"x":[[3,4]]}`, `{"x":[[1,2]],"y":[0],"y":[1]}`, // repeated key
		`null`, `{"x":null}`, `{"x":[[1,2]],"y":null}`, `{"x":[[null,2]]}`, `{"x":[null]}`,
		`{"x":[[1,2],[3]]}`, `{"x":[[1],[2,3]]}`, // ragged
		``, `{}`, `{"x":[]}`, `{"x":[[]]}`, `{"y":[0]}`, // empty or missing x
		`{"x":[[1.,2]]}`, `{"x":[[01,2]]}`, `{"x":[[1e999,2]]}`, `{"x":[[-1e999,2]]}`,
		`{"x":[[+1,2]]}`, `{"x":[[.5,2]]}`, `{"x":[[-,2]]}`, `{"x":[[1e,2]]}`, `{"x":[[0x10,2]]}`, `{"x":[[NaN,2]]}`,
		`{"x":[[1,2]],"y":[1.0]}`, `{"x":[[1,2]],"y":[1e0]}`, `{"x":[[1,2]],"y":[9223372036854775808]}`,
		`{"x":[[1,2]],"y":[0,1]}`, `{"x":[[1,2]],"y":[]}`, `{"x":[[1,2],[3,4]],"y":[0]}`, // label count
		`{"x":[[1,2]],"y":[0]}{"x":[[3,4]],"y":[1]}`, `{"x":[[1,2]],"y":[0]} trailing garbage`, `{"x":[[1,2]],"y":[0]}]]]`,
		`{"x":[[1,2]]} x`, `{"x":[[1,2]]}{}`, // bytes after the batch
		`{"x":"a"}`, `{"x":[["1",2]]}`, `{"x":[[true,2]]}`, `{"x":[[[1,2]]]}`, `{"x":[1,2]}`, `[[1,2]]`,
		`{"x":[[1,2]],}`, `{"x":[[1,2,]]}`, `{"x":[[1 2]]}`, `{"x":[[1,2]],"y":[0]`, `{"x":[[1,2]] "y":[0]}`,
	}
)

func TestDecodeJSONVerdicts(t *testing.T) {
	var f Frame
	for _, body := range jsonAccepted {
		if !f.DecodeJSON([]byte(body)) {
			t.Errorf("declined canonical body %s", body)
		}
		checkDecodeJSON(t, &f, []byte(body))
	}
	for _, body := range jsonDeclined {
		if f.DecodeJSON([]byte(body)) {
			t.Errorf("accepted %s, which is encoding/json's to judge", body)
		}
	}
}

// checkDecodeJSON is the differential contract: whatever DecodeJSON accepts,
// encoding/json accepts too and decodes to the same bits, row count and Y
// nil-ness; and the canonical re-encoding of any well-formed batch that
// encoding/json accepts is accepted, so the fast path is not vacuous.
func checkDecodeJSON(t *testing.T, f *Frame, body []byte) {
	t.Helper()
	ref, clean := jsonReference(body)
	if f.DecodeJSON(body) {
		if !clean {
			t.Fatalf("accepted %q, which encoding/json refuses", body)
		}
		sameBatch(t, f, ref, body)
	}
	if !clean || len(ref.X) == 0 || len(ref.X[0]) == 0 || (ref.Y != nil && len(ref.Y) != len(ref.X)) {
		return
	}
	for _, row := range ref.X {
		if len(row) != len(ref.X[0]) {
			return
		}
	}
	canon, err := jsonEncode(ref.X, ref.Y)
	if err != nil {
		t.Fatal(err)
	}
	if !f.DecodeJSON(canon) {
		t.Fatalf("declined the canonical encoding %s", canon)
	}
	sameBatch(t, f, ref, canon)
}

func sameBatch(t *testing.T, f *Frame, ref jsonBatch, body []byte) {
	t.Helper()
	if len(f.X) != len(ref.X) || (f.Y == nil) != (ref.Y == nil) || len(f.Y) != len(ref.Y) {
		t.Fatalf("%q: %d rows, %d labels (nil %v); encoding/json has %d, %d (nil %v)",
			body, len(f.X), len(f.Y), f.Y == nil, len(ref.X), len(ref.Y), ref.Y == nil)
	}
	for i, row := range ref.X {
		if len(f.X[i]) != len(row) {
			t.Fatalf("%q: row %d is %d wide, encoding/json has %d", body, i, len(f.X[i]), len(row))
		}
		for j, v := range row {
			if math.Float64bits(f.X[i][j]) != math.Float64bits(v) {
				t.Fatalf("%q: x[%d][%d] = %v, encoding/json has %v", body, i, j, f.X[i][j], v)
			}
		}
	}
	for i, v := range ref.Y {
		if f.Y[i] != v {
			t.Fatalf("%q: y[%d] = %d, encoding/json has %d", body, i, f.Y[i], v)
		}
	}
	if f.ID != "" || f.Traceparent != "" || f.Tensor().Rows != len(ref.X) || f.Tensor().Cols != len(ref.X[0]) {
		t.Fatalf("%q: frame metadata id %q trace %q slab %d×%d", body, f.ID, f.Traceparent, f.Tensor().Rows, f.Tensor().Cols)
	}
}

// FuzzDecodeJSON runs the differential contract on arbitrary bytes through
// one reused frame, so state left by a declined body cannot leak either. Its
// seeds are FuzzDecodeInto's (decoderSeeds), binary frames included.
func FuzzDecodeJSON(f *testing.F) {
	for _, seed := range decoderSeeds(f) {
		f.Add(seed)
	}
	var frame Frame
	f.Fuzz(func(t *testing.T, body []byte) { checkDecodeJSON(t, &frame, body) })
}

// TestDecodeJSONFillsLikeDecodeInto pins the frame layout: one exactly sized
// slab with adjacent row views, a binary decode's ID and trace context
// cleared, zero allocations for a warm label-less decode, and growth reported
// for a batch taller than any before it.
func TestDecodeJSONFillsLikeDecodeInto(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x, y := randBatch(rng, 32, 12, true)
	labeled, _ := jsonEncode(x, y)
	unlabeled, _ := jsonEncode(x, nil)
	bin, err := AppendFrameTrace(nil, "stale-id", "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", Float64, x, y)
	if err != nil {
		t.Fatal(err)
	}
	var f, want Frame
	if err := f.DecodeInto(bin); err != nil {
		t.Fatal(err)
	}
	if err := want.DecodeInto(bin); err != nil {
		t.Fatal(err)
	}
	if !f.DecodeJSON(labeled) || f.Grew {
		t.Fatalf("warm labeled decode: ok/grew = %v", f.Grew)
	}
	sameBatch(t, &f, jsonBatch{want.X, want.Y}, labeled)
	if len(f.Tensor().Data) != 32*12 || cap(f.X[31]) != 12 || &f.X[1][0] != &f.Tensor().Data[12] {
		t.Fatal("rows are not capped views into one exactly sized slab")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if !f.DecodeJSON(unlabeled) {
			t.Fatal("declined")
		}
	})
	if allocs != 0 || f.Grew || f.Y != nil {
		t.Fatalf("warm label-less decode: %.1f allocs, grew %v, Y %v; want 0, false, nil", allocs, f.Grew, f.Y)
	}
	taller, _ := jsonEncode(append(x, x[0]), append(y, y[0]))
	if !f.DecodeJSON(taller) || !f.Grew {
		t.Fatal("a batch taller than any before it must report growth")
	}
}

var benchSink float64

// BenchmarkDecodeJSON decodes the routed workload's request shape, 32 × 12
// N(0,1) values with labels, and reports ns per x value. Its number
// sub-benchmarks convert the same 384 literals alone: the batch parser's
// one-pass scan against strconv.ParseFloat on the already-cut text.
func BenchmarkDecodeJSON(b *testing.B) {
	const rows, cols = 32, 12
	rng := rand.New(rand.NewSource(6))
	x, y := randBatch(rng, rows, cols, true)
	body, _ := jsonEncode(x, y)
	perValue := func(b *testing.B, values int) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*values), "ns/value")
	}
	b.Run("frame", func(b *testing.B) {
		var f Frame
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if !f.DecodeJSON(body) {
				b.Fatal("declined")
			}
		}
		perValue(b, rows*cols)
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if _, ok := jsonReference(body); !ok {
				b.Fatal("refused")
			}
		}
		perValue(b, rows*cols)
	})
	var lits [][]byte
	var strs []string
	for _, row := range x {
		enc, _ := json.Marshal(row)
		for _, lit := range bytes.Split(enc[1:len(enc)-1], []byte{','}) {
			lits, strs = append(lits, lit), append(strs, string(lit))
		}
	}
	b.Run("number/scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, lit := range lits {
				c := jsonCursor{buf: lit}
				benchSink += c.float()
			}
		}
		perValue(b, len(lits))
	})
	b.Run("number/strconv", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, s := range strs {
				v, _ := strconv.ParseFloat(s, 64)
				benchSink += v
			}
		}
		perValue(b, len(strs))
	})
}
