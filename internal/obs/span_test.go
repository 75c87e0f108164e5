package obs

import (
	"strings"
	"testing"
)

func TestTraceContextRoundTrip(t *testing.T) {
	tc := NewTraceContext()
	if !tc.Valid() {
		t.Fatalf("minted context invalid: %+v", tc)
	}
	tp := tc.Traceparent()
	if len(tp) != 55 {
		t.Fatalf("traceparent %q: len %d, want 55", tp, len(tp))
	}
	got, ok := ParseTraceparent(tp)
	if !ok {
		t.Fatalf("ParseTraceparent(%q) rejected", tp)
	}
	if got != tc {
		t.Fatalf("round trip: got %+v, want %+v", got, tc)
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	bad := []string{
		"",
		"00-abc-def-01",
		"00-" + strings.Repeat("0", 32) + "-" + strings.Repeat("a", 16) + "-01", // all-zero trace id
		"00-" + strings.Repeat("a", 32) + "-" + strings.Repeat("0", 16) + "-01", // all-zero span id
		"00-" + strings.Repeat("A", 32) + "-" + strings.Repeat("a", 16) + "-01", // uppercase hex
		"zz-" + strings.Repeat("a", 32) + "-" + strings.Repeat("a", 16) + "-01", // bad version
		"00x" + strings.Repeat("a", 32) + "-" + strings.Repeat("a", 16) + "-01", // bad separator
	}
	for _, s := range bad {
		if _, ok := ParseTraceparent(s); ok {
			t.Errorf("ParseTraceparent(%q) accepted, want reject", s)
		}
	}
	// Future versions and trailing members must parse (W3C forward compat).
	good := "01-" + strings.Repeat("a", 32) + "-" + strings.Repeat("b", 16) + "-01-extra"
	if _, ok := ParseTraceparent(good); !ok {
		t.Errorf("ParseTraceparent(%q) rejected, want accept", good)
	}
}

func TestNewIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if len(id) != 32 || seen[id] {
			t.Fatalf("trace id %q duplicate or malformed at i=%d", id, i)
		}
		seen[id] = true
	}
}

// TestSpansOfTrace: the /v1/spans?id= and /v1/cluster/trace filter keeps a
// trace's retained spans in insertion order; evicted ones are gone.
func TestSpansOfTrace(t *testing.T) {
	r := NewRing[Span](4)
	for i := 0; i < 6; i++ {
		id := "t1"
		if i%2 == 1 {
			id = "t2"
		}
		r.Add(Span{TraceID: id, Attempt: i})
	}
	got := SpansOfTrace(r.Last(0), "t1")
	if len(got) != 2 || got[0].Attempt != 2 || got[1].Attempt != 4 {
		t.Fatalf("SpansOfTrace(t1) = %+v", got)
	}
	if got := SpansOfTrace(r.Last(0), "none"); got != nil {
		t.Fatalf("SpansOfTrace(none) = %+v, want nil", got)
	}
}
