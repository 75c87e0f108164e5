package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"reflect"
	"runtime"
	"testing"

	"freewayml/internal/wire"
)

// binFrame encodes one batch as a wire frame body for HTTP POSTing.
func binFrame(t *testing.T, id string, dtype byte, req ProcessRequest) []byte {
	t.Helper()
	b, err := wire.AppendFrame(nil, id, dtype, req.X, req.Y)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// postBinary POSTs a binary frame to the default stream's process endpoint
// and decodes the response.
func postBinary(t *testing.T, url string, frame []byte) (*http.Response, ProcessResponse) {
	t.Helper()
	resp, err := http.Post(url+defaultRoute+"/process", BinaryContentType, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	var out ProcessResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	resp.Body.Close()
	return resp, out
}

func TestBinaryProcessEndToEnd(t *testing.T) {
	_, ts := testServer(t)
	rng := rand.New(rand.NewSource(11))
	var last ProcessResponse
	for i := 0; i < 20; i++ {
		resp, out := postBinary(t, ts.URL, binFrame(t, "", wire.Float64, batchReq(rng, 32, true)))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if len(out.Predictions) != 32 {
			t.Fatalf("predictions = %d", len(out.Predictions))
		}
		last = out
	}
	if last.Accuracy < 0.8 {
		t.Errorf("service accuracy = %v", last.Accuracy)
	}
	stats := getStats(t, ts.URL)
	if stats.Batches != 20 || stats.Samples != 640 {
		t.Errorf("stats = %+v", stats)
	}
}

// TestWarmBinaryProcessDecodesInPlace: labelled binary /process requests of
// one shape re-decode into the pooled frame they arrived in — the learner
// copies what it keeps of a batch, so nothing takes the frame's slab away — and
// freeway_binary_decode_allocs_total stays at its warm-up value. GOMAXPROCS 1
// keeps every request on the one P whose pool slot holds the frame.
func TestWarmBinaryProcessDecodesInPlace(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop Puts")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s, ts := testServer(t)
	rng := rand.New(rand.NewSource(13))
	post := func() {
		t.Helper()
		if resp, _ := postBinary(t, ts.URL, binFrame(t, "", wire.Float64, batchReq(rng, 32, true))); resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
	}
	for i := 0; i < 4; i++ {
		post()
	}
	warm := s.cBinGrew.Value()
	for i := 0; i < 32; i++ {
		post()
	}
	if grew := s.cBinGrew.Value() - warm; grew != 0 {
		t.Errorf("32 warm binary /process requests grew the decode storage %d times, want 0", grew)
	}
}

// TestBinaryFrameAddressing: a frame may embed its stream id redundantly; a
// mismatch with the URL is a 400, a match (or an empty embedded id) is fine.
func TestBinaryFrameAddressing(t *testing.T) {
	_, ts := testServer(t)
	rng := rand.New(rand.NewSource(12))
	req := batchReq(rng, 4, true)
	resp, _ := postBinary(t, ts.URL, binFrame(t, "default", wire.Float64, req))
	if resp.StatusCode != http.StatusOK {
		t.Errorf("matching embedded id: status %d", resp.StatusCode)
	}
	resp, _ = postBinary(t, ts.URL, binFrame(t, "somewhere-else", wire.Float64, req))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("mismatched embedded id: status %d, want 400", resp.StatusCode)
	}
}

// TestBinaryMalformedFrames feeds corrupted frames through the HTTP binary
// path: every one must come back as the standard 400 JSON envelope — never a
// panic, never a hung connection. (The exhaustive corruption matrix lives in
// internal/wire; this verifies the serve-tier mapping.)
func TestBinaryMalformedFrames(t *testing.T) {
	_, ts := testServer(t)
	rng := rand.New(rand.NewSource(13))
	good := binFrame(t, "", wire.Float64, batchReq(rng, 4, true))

	corrupt := func(mut func(b []byte) []byte) []byte {
		b := append([]byte(nil), good...)
		return mut(b)
	}
	cases := map[string][]byte{
		"empty body":       {},
		"truncated header": good[:10],
		"bad magic":        corrupt(func(b []byte) []byte { b[0] = 'X'; return b }),
		"bad version":      corrupt(func(b []byte) []byte { b[4] = 99; return b }),
		"bad dtype":        corrupt(func(b []byte) []byte { b[5] = 7; return b }),
		"row overflow": corrupt(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[12:], 0xFFFFFFFF)
			binary.LittleEndian.PutUint32(b[16:], 0xFFFFFFFF)
			return b
		}),
		"truncated payload": good[:len(good)-3],
		"trailing garbage":  append(append([]byte(nil), good...), 1, 2, 3),
	}
	for name, body := range cases {
		resp, err := http.Post(ts.URL+defaultRoute+"/process", BinaryContentType, bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var env errorEnvelope
		decErr := json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
		if decErr != nil || env.Error.Code != http.StatusBadRequest || env.Error.Message == "" {
			t.Errorf("%s: malformed error envelope (err=%v, env=%+v)", name, decErr, env)
		}
	}
	// The server is still healthy after the abuse.
	resp, _ := postBinary(t, ts.URL, good)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-abuse frame: status %d", resp.StatusCode)
	}
}

// TestBinaryBodyCap: the binary path enforces the same body cap as JSON.
func TestBinaryBodyCap(t *testing.T) {
	_, ts := testServerOpts(t, WithMaxBodyBytes(1024))
	rng := rand.New(rand.NewSource(14))
	resp, _ := postBinary(t, ts.URL, binFrame(t, "", wire.Float64, batchReq(rng, 100, true)))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize frame: status %d, want 413", resp.StatusCode)
	}
	resp, _ = postBinary(t, ts.URL, binFrame(t, "", wire.Float64, batchReq(rng, 4, true)))
	if resp.StatusCode != http.StatusOK {
		t.Errorf("small frame after cap hit: status %d", resp.StatusCode)
	}
}

// quantizeF32 rounds every feature to float32 precision, so the f32 wire
// round-trip is lossless and the JSON path sees bit-identical values.
func quantizeF32(req ProcessRequest) ProcessRequest {
	for _, row := range req.X {
		for j, v := range row {
			row[j] = float64(float32(v))
		}
	}
	return req
}

// traceLines fetches a stream's decision trace and strips the fields that
// legitimately differ across runs: wall-time stage timings and the
// randomly minted per-request trace ids.
func traceLines(t *testing.T, url string) []map[string]any {
	t.Helper()
	resp, err := http.Get(url + defaultRoute + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out []map[string]any
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		delete(ev, "stages")
		delete(ev, "trace_id")
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func rawStats(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url + defaultRoute + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestJSONBinaryDifferential is the cross-format oracle: identical batch
// sequences driven through the JSON path and the binary path (against two
// fresh, identically seeded servers) must produce bitwise-identical
// predictions, responses, stats, and decision traces (timings stripped).
func TestJSONBinaryDifferential(t *testing.T) {
	for _, tc := range []struct {
		name  string
		dtype byte
	}{
		{"f64", wire.Float64},
		{"f32", wire.Float32},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, jsonTS := testServer(t)
			_, binTS := testServer(t)
			rng := rand.New(rand.NewSource(21))
			for i := 0; i < 12; i++ {
				req := batchReq(rng, 16, i%3 != 2) // mix labeled and inference batches
				if tc.dtype == wire.Float32 {
					req = quantizeF32(req)
				}
				jResp, jOut := postProcess(t, jsonTS.URL, req)
				bResp, bOut := postBinary(t, binTS.URL, binFrame(t, "", tc.dtype, req))
				if jResp.StatusCode != http.StatusOK || bResp.StatusCode != http.StatusOK {
					t.Fatalf("batch %d: statuses json=%d binary=%d", i, jResp.StatusCode, bResp.StatusCode)
				}
				if !reflect.DeepEqual(jOut, bOut) {
					t.Fatalf("batch %d: responses diverge:\njson:   %+v\nbinary: %+v", i, jOut, bOut)
				}
			}
			jStats, bStats := rawStats(t, jsonTS.URL), rawStats(t, binTS.URL)
			if !bytes.Equal(jStats, bStats) {
				t.Errorf("stats diverge:\njson:   %s\nbinary: %s", jStats, bStats)
			}
			jTrace, bTrace := traceLines(t, jsonTS.URL), traceLines(t, binTS.URL)
			if !reflect.DeepEqual(jTrace, bTrace) {
				t.Errorf("decision traces diverge (%d vs %d events)", len(jTrace), len(bTrace))
			}
		})
	}
}
