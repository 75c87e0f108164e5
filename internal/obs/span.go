package obs

import (
	cryptorand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"
)

// Trace context: a dependency-free subset of the W3C Trace Context format.
// A traceparent string is "00-<32 hex trace id>-<16 hex span id>-<2 hex
// flags>". The trace id names the whole request; each hop (router attempt,
// worker process call) mints its own span id and records the incoming span
// id as its parent, so spans from every node chain into one tree under the
// shared trace id.

// TraceparentHeader is the HTTP header carrying trace context — the W3C
// Trace Context header (case-insensitive per HTTP; spelled in Go's
// canonical MIME form so Header.Get/Set take their no-alloc fast path).
const TraceparentHeader = "Traceparent"

// Response headers shared by the serving and routing tiers, defined here so
// both tiers (and the load generator reading them) agree on one spelling.
const (
	// TraceIDHeader echoes the request's trace id on responses.
	TraceIDHeader = "X-Freeway-Trace"
	// WorkerMicrosHeader reports the worker-side wall time of a process call.
	WorkerMicrosHeader = "X-Freeway-Worker-Micros"
	// RouterMicrosHeader reports the router-side wall time up to the first
	// response byte (attempt loop + backoff, excluding body relay).
	RouterMicrosHeader = "X-Freeway-Router-Micros"
	// AttemptsHeader reports how many forward attempts the router made.
	AttemptsHeader = "X-Freeway-Attempts"
)

// idSource is a locked PRNG for span/trace id minting. Seeded from the OS
// entropy pool once at startup; after that, id generation never touches the
// kernel — cheap enough for the per-request hot path.
var idSource = struct {
	mu sync.Mutex
	r  *rand.Rand
}{r: rand.New(rand.NewSource(cryptoSeed()))}

func cryptoSeed() int64 {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		return time.Now().UnixNano()
	}
	return int64(binary.LittleEndian.Uint64(b[:]))
}

func randHex(n int) string {
	var buf [16]byte
	idSource.mu.Lock()
	idSource.r.Read(buf[:n])
	idSource.mu.Unlock()
	// An all-zero id is invalid per the W3C spec; nudge it.
	zero := true
	for _, c := range buf[:n] {
		if c != 0 {
			zero = false
			break
		}
	}
	if zero {
		buf[0] = 1
	}
	var dst [32]byte
	hex.Encode(dst[:], buf[:n])
	return string(dst[:2*n])
}

// NewTraceID mints a 32-hex-char (128-bit) trace id.
func NewTraceID() string { return randHex(16) }

// NewSpanID mints a 16-hex-char (64-bit) span id.
func NewSpanID() string { return randHex(8) }

// TraceContext is a parsed traceparent: the request-wide trace id and the
// span id of the sending hop (the parent of any span the receiver records).
type TraceContext struct {
	TraceID string
	SpanID  string
}

// Valid reports whether both ids are present and well-formed.
func (tc TraceContext) Valid() bool {
	return isHex(tc.TraceID, 32) && isHex(tc.SpanID, 16)
}

// Traceparent renders the context in W3C form with the sampled flag set.
func (tc TraceContext) Traceparent() string {
	return "00-" + tc.TraceID + "-" + tc.SpanID + "-01"
}

// NewTraceContext mints a fresh root context.
func NewTraceContext() TraceContext {
	return TraceContext{TraceID: NewTraceID(), SpanID: NewSpanID()}
}

// ParseTraceparent parses a traceparent string. It accepts any 2-hex
// version byte (future-proof, per the W3C spec's version-independent
// parsing rule) and ignores trailing fields beyond the flags.
func ParseTraceparent(s string) (TraceContext, bool) {
	// "vv-<32>-<16>-ff" = 2+1+32+1+16+1+2 = 55 bytes minimum.
	if len(s) < 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return TraceContext{}, false
	}
	if !isHex(s[:2], 2) {
		return TraceContext{}, false
	}
	tc := TraceContext{TraceID: s[3:35], SpanID: s[36:52]}
	if !tc.Valid() || allZero(tc.TraceID) || allZero(tc.SpanID) {
		return TraceContext{}, false
	}
	return tc, true
}

func isHex(s string, n int) bool {
	if len(s) != n {
		return false
	}
	for i := 0; i < n; i++ {
		c := s[i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return false
		}
	}
	return true
}

func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}

// Span is one hop's record of its part in a traced request. Router hops
// fill the retry fields (Attempt/Owner/Breaker/BackoffMicros); worker hops
// fill Stream/Rows. All fields are flat so a span JSON-encodes to one
// line for /v1/spans and /v1/cluster/trace.
type Span struct {
	TraceID string `json:"trace_id"`
	SpanID  string `json:"span_id"`
	// Parent is the span id of the upstream hop ("" for a root span).
	Parent string `json:"parent,omitempty"`
	// Name is the operation ("router.forward", "worker.process").
	Name string `json:"name"`
	// Service identifies the node that recorded the span (router listen
	// address or worker id).
	Service string `json:"service,omitempty"`
	// Stream is the stream id the request targeted.
	Stream string `json:"stream,omitempty"`
	// Proto is the request encoding: "json" or "binary".
	Proto string `json:"proto,omitempty"`
	// StartUnixNano orders spans within a trace.
	StartUnixNano int64 `json:"start_unix_nano"`
	// DurationMicros is the hop's wall time.
	DurationMicros float64 `json:"duration_micros"`
	// Attempt is the router's 0-based retry attempt for this hop.
	Attempt int `json:"attempt,omitempty"`
	// Owner is the worker address the router sent this attempt to.
	Owner string `json:"owner,omitempty"`
	// Breaker is the owner's circuit-breaker state observed at the end of
	// the attempt: "closed" (healthy) or "open" (ejected).
	Breaker string `json:"breaker,omitempty"`
	// BackoffMicros is the retry backoff slept before this attempt.
	BackoffMicros float64 `json:"backoff_micros,omitempty"`
	// Rows is the batch row count a worker span processed.
	Rows int `json:"rows,omitempty"`
	// Status is "ok" or "error"; Err carries the failure detail.
	Status string `json:"status"`
	Err    string `json:"err,omitempty"`
}

// SpansOfTrace returns the spans with the given trace id, in the order given
// — over a ring's Last(0), insertion order. A ring holds a few thousand
// spans, so the scan is cheap next to the HTTP round trip that asks for it.
func SpansOfTrace(spans []Span, traceID string) []Span {
	var out []Span
	for _, s := range spans {
		if s.TraceID == traceID {
			out = append(out, s)
		}
	}
	return out
}

// WriteSpansJSON encodes spans as a JSON array.
func WriteSpansJSON(w io.Writer, spans []Span) error {
	if spans == nil {
		spans = []Span{}
	}
	return json.NewEncoder(w).Encode(spans)
}

// FormatDurationMicros converts a duration to fractional microseconds for
// span records.
func FormatDurationMicros(d time.Duration) float64 {
	return float64(d.Nanoseconds()) / 1e3
}

// SpanError renders an error for the Span.Err field ("" for nil).
func SpanError(err error) string {
	if err == nil {
		return ""
	}
	return fmt.Sprint(err)
}
