package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"sync"
	"testing"

	"freewayml/internal/wire"
)

// postInfer POSTs a JSON inference request to a stream's /infer endpoint.
func postInfer(t *testing.T, url, stream string, x [][]float64) (*http.Response, InferResponse) {
	t.Helper()
	body, err := json.Marshal(ProcessRequest{X: x})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/streams/"+stream+"/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out InferResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	resp.Body.Close()
	return resp, out
}

// postInferBinary POSTs a label-less wire frame to a stream's /infer endpoint.
func postInferBinary(t *testing.T, url, stream string, dtype byte, x [][]float64) (*http.Response, InferResponse) {
	t.Helper()
	frame, err := wire.AppendFrame(nil, "", dtype, x, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/streams/"+stream+"/infer", BinaryContentType, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	var out InferResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	resp.Body.Close()
	return resp, out
}

// trainStream drives labeled batches through a stream's /process endpoint.
func trainStream(t *testing.T, url, stream string, rng *rand.Rand, batches, n int) {
	t.Helper()
	for i := 0; i < batches; i++ {
		req := batchReq(rng, n, true)
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(url+"/v1/streams/"+stream+"/process", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s train batch %d: status %d", stream, i, resp.StatusCode)
		}
	}
}

func TestInferEndpointEndToEnd(t *testing.T) {
	_, ts := testServer(t)
	rng := rand.New(rand.NewSource(51))
	trainStream(t, ts.URL, "s1", rng, 12, 32)

	q := batchReq(rng, 8, false).X
	resp, out := postInfer(t, ts.URL, "s1", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("infer status %d", resp.StatusCode)
	}
	if len(out.Predictions) != 8 {
		t.Fatalf("predictions = %d", len(out.Predictions))
	}
	if out.Stream != "s1" {
		t.Errorf("stream = %q", out.Stream)
	}
	if out.Strategy != "multi-granularity" {
		t.Errorf("strategy = %q, want multi-granularity after 12 batches", out.Strategy)
	}
	if out.SnapshotBatch != 12 {
		t.Errorf("snapshot_batch = %d, want 12", out.SnapshotBatch)
	}
	if out.SnapshotAgeMS < 0 {
		t.Errorf("snapshot_age_ms = %v", out.SnapshotAgeMS)
	}

	// A fresh stream answers immediately from its warmup snapshot — the
	// read path never waits for training.
	resp, out = postInfer(t, ts.URL, "fresh", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh stream infer status %d", resp.StatusCode)
	}
	if out.Strategy != "warmup" || out.SnapshotBatch != 0 {
		t.Errorf("fresh stream: strategy=%q batch=%d", out.Strategy, out.SnapshotBatch)
	}
}

func TestInferEndpointRejections(t *testing.T) {
	_, ts := testServer(t)
	rng := rand.New(rand.NewSource(52))
	labeled := batchReq(rng, 4, true)

	// Labeled JSON body: 400 — training submissions belong to /process.
	body, _ := json.Marshal(labeled)
	resp, err := http.Post(ts.URL+"/v1/streams/s1/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("labeled JSON infer: status %d, want 400", resp.StatusCode)
	}

	// Labeled binary frame: 400 for the same reason.
	frame, err := wire.AppendFrame(nil, "", wire.Float64, labeled.X, labeled.Y)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/v1/streams/s1/infer", BinaryContentType, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("labeled binary infer: status %d, want 400", resp.StatusCode)
	}

	// Non-finite features: 422 — the pure read path cannot repair them.
	// (JSON cannot carry NaN at all, so only the binary framing reaches
	// this rejection.)
	frame, err = wire.AppendFrame(nil, "", wire.Float64, [][]float64{{1, math.NaN(), 0}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/v1/streams/s1/infer", BinaryContentType, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("NaN infer: status %d, want 422", resp.StatusCode)
	}

	// Ragged rows: 400.
	resp, _ = postInfer(t, ts.URL, "s1", [][]float64{{1, 2}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("ragged infer: status %d, want 400", resp.StatusCode)
	}

	// GET: 405.
	getResp, err := http.Get(ts.URL + "/v1/streams/s1/infer")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET infer: status %d, want 405", getResp.StatusCode)
	}

	// A frame addressed to a different stream: 400.
	q := batchReq(rng, 4, false)
	frame, err = wire.AppendFrame(nil, "elsewhere", wire.Float64, q.X, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/v1/streams/s1/infer", BinaryContentType, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("misaddressed frame: status %d, want 400", resp.StatusCode)
	}
}

// TestInferFormatsDifferential pins that float32 is an input format, not a
// compute tier: the same f32-representable queries sent to one server's
// /infer as JSON, binary-f64 and binary-f32 — sequentially, then
// concurrently — all get the identical InferResponse (snapshot wall-clock age
// stripped).
func TestInferFormatsDifferential(t *testing.T) {
	const (
		streams = 3
		trainN  = 12
		queryN  = 9
	)
	_, ts := testServer(t)
	for s := 0; s < streams; s++ {
		trainStream(t, ts.URL, fmt.Sprintf("st%d", s), rand.New(rand.NewSource(int64(60+s))), trainN, 32)
	}

	qrng := rand.New(rand.NewSource(77))
	type query struct {
		stream string
		x      [][]float64
	}
	var queries []query
	for round := 0; round < 3; round++ {
		for s := 0; s < streams; s++ {
			queries = append(queries, query{fmt.Sprintf("st%d", s), quantizeF32(batchReq(qrng, queryN, false)).X})
		}
	}

	// The JSON answers are the reference every other format must reproduce.
	want := make([]InferResponse, len(queries))
	for i, qu := range queries {
		resp, out := postInfer(t, ts.URL, qu.stream, qu.x)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reference query %d: status %d", i, resp.StatusCode)
		}
		out.SnapshotAgeMS = 0
		want[i] = out
	}
	check := func(t *testing.T, how string, i int, got InferResponse) {
		t.Helper()
		got.SnapshotAgeMS = 0
		if !reflect.DeepEqual(want[i], got) {
			t.Errorf("%s query %d (%s): responses diverge:\nwant: %+v\ngot:  %+v", how, i, queries[i].stream, want[i], got)
		}
	}

	for _, tc := range []struct {
		name string
		send func(t *testing.T, qu query) (*http.Response, InferResponse)
	}{
		{"json", func(t *testing.T, qu query) (*http.Response, InferResponse) {
			return postInfer(t, ts.URL, qu.stream, qu.x)
		}},
		{"binary-f64", func(t *testing.T, qu query) (*http.Response, InferResponse) {
			return postInferBinary(t, ts.URL, qu.stream, wire.Float64, qu.x)
		}},
		{"binary-f32", func(t *testing.T, qu query) (*http.Response, InferResponse) {
			return postInferBinary(t, ts.URL, qu.stream, wire.Float32, qu.x)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for i, qu := range queries {
				resp, out := tc.send(t, qu)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("sequential query %d: status %d", i, resp.StatusCode)
				}
				check(t, "sequential", i, out)
			}
			got := make([]InferResponse, len(queries))
			var wg sync.WaitGroup
			for i, qu := range queries {
				wg.Add(1)
				go func(i int, qu query) {
					defer wg.Done()
					resp, out := tc.send(t, qu)
					if resp.StatusCode != http.StatusOK {
						t.Errorf("concurrent query %d: status %d", i, resp.StatusCode)
						return
					}
					got[i] = out
				}(i, qu)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			for i := range queries {
				check(t, "concurrent", i, got[i])
			}
		})
	}
}
