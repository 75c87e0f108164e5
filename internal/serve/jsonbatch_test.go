package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"freewayml/internal/core"
)

// jsonCorpus is internal/wire's DecodeJSON corpus — every class the fast
// parser accepts and every class it leaves to encoding/json — with the
// status and body /process and /infer answered at 90249dd, before the fast
// parser existed (2 features, 2 classes, stream c<i>, process then infer,
// snapshot_age_ms zeroed). Only the five bodies with bytes after the batch
// changed, on purpose: they trained the first value and answered 200.
var jsonCorpus = []struct{ body, process, infer string }{
	{"{\"x\":[[1,2]],\"y\":[0]}",
		"200 {\"stream\":\"c0\",\"predictions\":[0],\"pattern\":\"warmup\",\"strategy\":\"warmup\",\"shift_distance\":0,\"severity\":0,\"accuracy\":1}",
		"400 {\"error\":{\"code\":400,\"message\":\"infer is label-less: submit labeled batches to /process\"}}"},
	{"{\"x\":[[1,2],[3,4]],\"y\":[0,1]}",
		"200 {\"stream\":\"c1\",\"predictions\":[0,0],\"pattern\":\"warmup\",\"strategy\":\"warmup\",\"shift_distance\":0,\"severity\":0,\"accuracy\":0.5}",
		"400 {\"error\":{\"code\":400,\"message\":\"infer is label-less: submit labeled batches to /process\"}}"},
	{"{\"x\":[[1,2]]}",
		"200 {\"stream\":\"c2\",\"predictions\":[0],\"pattern\":\"warmup\",\"strategy\":\"warmup\",\"shift_distance\":0,\"severity\":0,\"accuracy\":-1}",
		"200 {\"stream\":\"c2\",\"predictions\":[0],\"strategy\":\"warmup\",\"snapshot_batch\":1,\"snapshot_age_ms\":0,\"knowledge_distance\":-1}"},
	{"{\"y\":[1],\"x\":[[1,2]]}",
		"200 {\"stream\":\"c3\",\"predictions\":[0],\"pattern\":\"warmup\",\"strategy\":\"warmup\",\"shift_distance\":0,\"severity\":0,\"accuracy\":0}",
		"400 {\"error\":{\"code\":400,\"message\":\"infer is label-less: submit labeled batches to /process\"}}"},
	{" {\t\"x\" :\r\n[ [ 1 , 2 ] , [ 3 , 4 ] ] , \"y\" : [ 0 , 1 ] } \n",
		"200 {\"stream\":\"c4\",\"predictions\":[0,0],\"pattern\":\"warmup\",\"strategy\":\"warmup\",\"shift_distance\":0,\"severity\":0,\"accuracy\":0.5}",
		"400 {\"error\":{\"code\":400,\"message\":\"infer is label-less: submit labeled batches to /process\"}}"},
	{"{\"x\":[[-0,0.5e-3]],\"y\":[-0]}",
		"200 {\"stream\":\"c5\",\"predictions\":[0],\"pattern\":\"warmup\",\"strategy\":\"warmup\",\"shift_distance\":0,\"severity\":0,\"accuracy\":1}",
		"400 {\"error\":{\"code\":400,\"message\":\"infer is label-less: submit labeled batches to /process\"}}"},
	{"{\"x\":[[1E+2,-1.25e2],[0e0,0.0]],\"y\":[1,0]}",
		"200 {\"stream\":\"c6\",\"predictions\":[0,0],\"pattern\":\"warmup\",\"strategy\":\"warmup\",\"shift_distance\":0,\"severity\":0,\"accuracy\":0.5}",
		"400 {\"error\":{\"code\":400,\"message\":\"infer is label-less: submit labeled batches to /process\"}}"},
	{"{\"x\":[[1e-400,4.9e-324]]}",
		"200 {\"stream\":\"c7\",\"predictions\":[0],\"pattern\":\"warmup\",\"strategy\":\"warmup\",\"shift_distance\":0,\"severity\":0,\"accuracy\":-1}",
		"200 {\"stream\":\"c7\",\"predictions\":[0],\"strategy\":\"warmup\",\"snapshot_batch\":1,\"snapshot_age_ms\":0,\"knowledge_distance\":-1}"},
	{"{\"x\":[[0.1,123456789012345678901234567890.5]]}",
		"200 {\"stream\":\"c8\",\"predictions\":[0],\"pattern\":\"warmup\",\"strategy\":\"warmup\",\"shift_distance\":0,\"severity\":0,\"accuracy\":-1}",
		"200 {\"stream\":\"c8\",\"predictions\":[0],\"strategy\":\"warmup\",\"snapshot_batch\":1,\"snapshot_age_ms\":0,\"knowledge_distance\":-1}"},
	{"{\"x\":[[1,2]],\"y\":[-1]}",
		"400 {\"error\":{\"code\":400,\"message\":\"stream: negative label -1\"}}",
		"400 {\"error\":{\"code\":400,\"message\":\"infer is label-less: submit labeled batches to /process\"}}"},
	{"{\"x\":[[1,2]],\"y\":[7]}",
		"400 {\"error\":{\"code\":400,\"message\":\"stream: label 7 outside [0,2)\"}}",
		"400 {\"error\":{\"code\":400,\"message\":\"infer is label-less: submit labeled batches to /process\"}}"},
	{"{\"x\":[[1,2,3]]}",
		"400 {\"error\":{\"code\":400,\"message\":\"stream: row width 3, want 2\"}}",
		"400 {\"error\":{\"code\":400,\"message\":\"stream: row width 3, want 2\"}}"},
	{"{\"x\":[[1,2]],\"z\":1}",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: json: unknown field \\\"z\\\"\"}}",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: json: unknown field \\\"z\\\"\"}}"},
	{"{\"X\":[[1,2]],\"Y\":[0]}",
		"200 {\"stream\":\"c13\",\"predictions\":[0],\"pattern\":\"warmup\",\"strategy\":\"warmup\",\"shift_distance\":0,\"severity\":0,\"accuracy\":1}",
		"400 {\"error\":{\"code\":400,\"message\":\"infer is label-less: submit labeled batches to /process\"}}"},
	{"{\"\\u0078\":[[1,2]]}",
		"200 {\"stream\":\"c14\",\"predictions\":[0],\"pattern\":\"warmup\",\"strategy\":\"warmup\",\"shift_distance\":0,\"severity\":0,\"accuracy\":-1}",
		"200 {\"stream\":\"c14\",\"predictions\":[0],\"strategy\":\"warmup\",\"snapshot_batch\":1,\"snapshot_age_ms\":0,\"knowledge_distance\":-1}"},
	{"{\"x\":[[1,2]],\"x\":[[3,4]]}",
		"200 {\"stream\":\"c15\",\"predictions\":[0],\"pattern\":\"warmup\",\"strategy\":\"warmup\",\"shift_distance\":0,\"severity\":0,\"accuracy\":-1}",
		"200 {\"stream\":\"c15\",\"predictions\":[0],\"strategy\":\"warmup\",\"snapshot_batch\":1,\"snapshot_age_ms\":0,\"knowledge_distance\":-1}"},
	{"{\"x\":[[1,2]],\"y\":[0],\"y\":[1]}",
		"200 {\"stream\":\"c16\",\"predictions\":[0],\"pattern\":\"warmup\",\"strategy\":\"warmup\",\"shift_distance\":0,\"severity\":0,\"accuracy\":0}",
		"400 {\"error\":{\"code\":400,\"message\":\"infer is label-less: submit labeled batches to /process\"}}"},
	{"null",
		"400 {\"error\":{\"code\":400,\"message\":\"stream: empty batch\"}}",
		"400 {\"error\":{\"code\":400,\"message\":\"stream: empty batch\"}}"},
	{"{\"x\":null}",
		"400 {\"error\":{\"code\":400,\"message\":\"stream: empty batch\"}}",
		"400 {\"error\":{\"code\":400,\"message\":\"stream: empty batch\"}}"},
	{"{\"x\":[[1,2]],\"y\":null}",
		"200 {\"stream\":\"c19\",\"predictions\":[0],\"pattern\":\"warmup\",\"strategy\":\"warmup\",\"shift_distance\":0,\"severity\":0,\"accuracy\":-1}",
		"200 {\"stream\":\"c19\",\"predictions\":[0],\"strategy\":\"warmup\",\"snapshot_batch\":1,\"snapshot_age_ms\":0,\"knowledge_distance\":-1}"},
	{"{\"x\":[[null,2]]}",
		"200 {\"stream\":\"c20\",\"predictions\":[0],\"pattern\":\"warmup\",\"strategy\":\"warmup\",\"shift_distance\":0,\"severity\":0,\"accuracy\":-1}",
		"200 {\"stream\":\"c20\",\"predictions\":[0],\"strategy\":\"warmup\",\"snapshot_batch\":1,\"snapshot_age_ms\":0,\"knowledge_distance\":-1}"},
	{"{\"x\":[null]}",
		"400 {\"error\":{\"code\":400,\"message\":\"stream: row width 0, want 2\"}}",
		"400 {\"error\":{\"code\":400,\"message\":\"stream: row width 0, want 2\"}}"},
	{"{\"x\":[[1,2],[3]]}",
		"400 {\"error\":{\"code\":400,\"message\":\"stream: ragged batch\"}}",
		"400 {\"error\":{\"code\":400,\"message\":\"stream: ragged batch\"}}"},
	{"{\"x\":[[1],[2,3]]}",
		"400 {\"error\":{\"code\":400,\"message\":\"stream: ragged batch\"}}",
		"400 {\"error\":{\"code\":400,\"message\":\"stream: ragged batch\"}}"},
	{"",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: EOF\"}}",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: EOF\"}}"},
	{"{}",
		"400 {\"error\":{\"code\":400,\"message\":\"stream: empty batch\"}}",
		"400 {\"error\":{\"code\":400,\"message\":\"stream: empty batch\"}}"},
	{"{\"x\":[]}",
		"400 {\"error\":{\"code\":400,\"message\":\"stream: empty batch\"}}",
		"400 {\"error\":{\"code\":400,\"message\":\"stream: empty batch\"}}"},
	{"{\"x\":[[]]}",
		"400 {\"error\":{\"code\":400,\"message\":\"stream: row width 0, want 2\"}}",
		"400 {\"error\":{\"code\":400,\"message\":\"stream: row width 0, want 2\"}}"},
	{"{\"y\":[0]}",
		"400 {\"error\":{\"code\":400,\"message\":\"stream: empty batch\"}}",
		"400 {\"error\":{\"code\":400,\"message\":\"infer is label-less: submit labeled batches to /process\"}}"},
	{"{\"x\":[[1.,2]]}",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: invalid character ',' after decimal point in numeric literal\"}}",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: invalid character ',' after decimal point in numeric literal\"}}"},
	{"{\"x\":[[01,2]]}",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: invalid character '1' after array element\"}}",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: invalid character '1' after array element\"}}"},
	{"{\"x\":[[1e999,2]]}",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: json: cannot unmarshal number 1e999 into Go struct field ProcessRequest.x of type float64\"}}",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: json: cannot unmarshal number 1e999 into Go struct field ProcessRequest.x of type float64\"}}"},
	{"{\"x\":[[-1e999,2]]}",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: json: cannot unmarshal number -1e999 into Go struct field ProcessRequest.x of type float64\"}}",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: json: cannot unmarshal number -1e999 into Go struct field ProcessRequest.x of type float64\"}}"},
	{"{\"x\":[[+1,2]]}",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: invalid character '+' looking for beginning of value\"}}",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: invalid character '+' looking for beginning of value\"}}"},
	{"{\"x\":[[.5,2]]}",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: invalid character '.' looking for beginning of value\"}}",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: invalid character '.' looking for beginning of value\"}}"},
	{"{\"x\":[[-,2]]}",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: invalid character ',' in numeric literal\"}}",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: invalid character ',' in numeric literal\"}}"},
	{"{\"x\":[[1e,2]]}",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: invalid character ',' in exponent of numeric literal\"}}",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: invalid character ',' in exponent of numeric literal\"}}"},
	{"{\"x\":[[0x10,2]]}",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: invalid character 'x' after array element\"}}",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: invalid character 'x' after array element\"}}"},
	{"{\"x\":[[NaN,2]]}",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: invalid character 'N' looking for beginning of value\"}}",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: invalid character 'N' looking for beginning of value\"}}"},
	{"{\"x\":[[1,2]],\"y\":[1.0]}",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: json: cannot unmarshal number 1.0 into Go struct field ProcessRequest.y of type int\"}}",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: json: cannot unmarshal number 1.0 into Go struct field ProcessRequest.y of type int\"}}"},
	{"{\"x\":[[1,2]],\"y\":[1e0]}",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: json: cannot unmarshal number 1e0 into Go struct field ProcessRequest.y of type int\"}}",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: json: cannot unmarshal number 1e0 into Go struct field ProcessRequest.y of type int\"}}"},
	{"{\"x\":[[1,2]],\"y\":[9223372036854775808]}",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: json: cannot unmarshal number 9223372036854775808 into Go struct field ProcessRequest.y of type int\"}}",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: json: cannot unmarshal number 9223372036854775808 into Go struct field ProcessRequest.y of type int\"}}"},
	{"{\"x\":[[1,2]],\"y\":[0,1]}",
		"400 {\"error\":{\"code\":400,\"message\":\"stream: label count mismatch\"}}",
		"400 {\"error\":{\"code\":400,\"message\":\"infer is label-less: submit labeled batches to /process\"}}"},
	{"{\"x\":[[1,2]],\"y\":[]}",
		"400 {\"error\":{\"code\":400,\"message\":\"stream: label count mismatch\"}}",
		"400 {\"error\":{\"code\":400,\"message\":\"infer is label-less: submit labeled batches to /process\"}}"},
	{"{\"x\":[[1,2],[3,4]],\"y\":[0]}",
		"400 {\"error\":{\"code\":400,\"message\":\"stream: label count mismatch\"}}",
		"400 {\"error\":{\"code\":400,\"message\":\"infer is label-less: submit labeled batches to /process\"}}"},
	{"{\"x\":[[1,2]],\"y\":[0]}{\"x\":[[3,4]],\"y\":[1]}",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: unexpected data after the JSON batch\"}}",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: unexpected data after the JSON batch\"}}"},
	{"{\"x\":[[1,2]],\"y\":[0]} trailing garbage",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: unexpected data after the JSON batch\"}}",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: unexpected data after the JSON batch\"}}"},
	{"{\"x\":[[1,2]],\"y\":[0]}]]]",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: unexpected data after the JSON batch\"}}",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: unexpected data after the JSON batch\"}}"},
	{"{\"x\":[[1,2]]} x",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: unexpected data after the JSON batch\"}}",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: unexpected data after the JSON batch\"}}"},
	{"{\"x\":[[1,2]]}{}",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: unexpected data after the JSON batch\"}}",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: unexpected data after the JSON batch\"}}"},
	{"{\"x\":\"a\"}",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: json: cannot unmarshal string into Go struct field ProcessRequest.x of type [][]float64\"}}",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: json: cannot unmarshal string into Go struct field ProcessRequest.x of type [][]float64\"}}"},
	{"{\"x\":[[\"1\",2]]}",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: json: cannot unmarshal string into Go struct field ProcessRequest.x of type float64\"}}",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: json: cannot unmarshal string into Go struct field ProcessRequest.x of type float64\"}}"},
	{"{\"x\":[[true,2]]}",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: json: cannot unmarshal bool into Go struct field ProcessRequest.x of type float64\"}}",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: json: cannot unmarshal bool into Go struct field ProcessRequest.x of type float64\"}}"},
	{"{\"x\":[[[1,2]]]}",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: json: cannot unmarshal array into Go struct field ProcessRequest.x of type float64\"}}",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: json: cannot unmarshal array into Go struct field ProcessRequest.x of type float64\"}}"},
	{"{\"x\":[1,2]}",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: json: cannot unmarshal number into Go struct field ProcessRequest.x of type []float64\"}}",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: json: cannot unmarshal number into Go struct field ProcessRequest.x of type []float64\"}}"},
	{"[[1,2]]",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: json: cannot unmarshal array into Go value of type serve.ProcessRequest\"}}",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: json: cannot unmarshal array into Go value of type serve.ProcessRequest\"}}"},
	{"{\"x\":[[1,2]],}",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: invalid character '}' looking for beginning of object key string\"}}",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: invalid character '}' looking for beginning of object key string\"}}"},
	{"{\"x\":[[1,2,]]}",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: invalid character ']' looking for beginning of value\"}}",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: invalid character ']' looking for beginning of value\"}}"},
	{"{\"x\":[[1 2]]}",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: invalid character '2' after array element\"}}",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: invalid character '2' after array element\"}}"},
	{"{\"x\":[[1,2]],\"y\":[0]",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: unexpected EOF\"}}",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: unexpected EOF\"}}"},
	{"{\"x\":[[1,2]] \"y\":[0]}",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: invalid character '\\\"' after object key:value pair\"}}",
		"400 {\"error\":{\"code\":400,\"message\":\"bad request: invalid character '\\\"' after object key:value pair\"}}"},
}

var snapshotAgeRE = regexp.MustCompile(`"snapshot_age_ms":[-+.eE0-9]+`)

func TestJSONCorpusAnswersUnchanged(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Shift.WarmupPoints = 64
	s, err := New(cfg, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i, tc := range jsonCorpus {
		for k, want := range []string{tc.process, tc.infer} {
			action := []string{"process", "infer"}[k]
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, fmt.Sprintf("/v1/streams/c%d/%s", i, action), strings.NewReader(tc.body))
			req.Header.Set("Content-Type", "application/json")
			s.ServeHTTP(rec, req)
			body := snapshotAgeRE.ReplaceAllString(strings.TrimSuffix(rec.Body.String(), "\n"), `"snapshot_age_ms":0`)
			if got := fmt.Sprintf("%d %s", rec.Code, body); got != want {
				t.Errorf("%s %q:\n got %s\nwant %s", action, tc.body, got, want)
			}
		}
	}
}
