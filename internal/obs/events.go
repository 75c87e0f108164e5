package obs

// Cluster timeline event types recorded by the router. Kept as plain
// strings (not an enum) so workers or future components can add their own
// types without touching this package.
const (
	EventBreakerOpen  = "breaker_open"  // worker ejected after consecutive failures
	EventBreakerClose = "breaker_close" // worker rejoined after a successful probe
	EventMigration    = "migration"     // a stream's sessions moved between workers
	EventRestore      = "checkpoint_restore"
	EventStaleFlush   = "stale_flush" // rejoining worker dropped stale sessions
)

// ClusterEvent is one structured timeline entry: what happened, where, and
// (when the event was caused by a traced request) which trace to follow.
type ClusterEvent struct {
	// UnixNano timestamps the event.
	UnixNano int64 `json:"unix_nano"`
	// Type is one of the Event* constants.
	Type string `json:"type"`
	// Worker is the worker address the event concerns.
	Worker string `json:"worker,omitempty"`
	// Stream is the affected stream id (migrations).
	Stream string `json:"stream,omitempty"`
	// TraceID links the event to the request that caused it, when any.
	TraceID string `json:"trace_id,omitempty"`
	// Detail is a human-readable elaboration.
	Detail string `json:"detail,omitempty"`
}
