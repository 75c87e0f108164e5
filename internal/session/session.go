package session

import (
	"context"
	"errors"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"freewayml/internal/core"
	"freewayml/internal/stream"
)

// errSessionClosed is the internal sentinel a Session returns when a caller
// raced an eviction: the manager retries against a fresh session, so it
// never escapes to users.
var errSessionClosed = errors.New("session: closed")

// Session is one named stream: a learner plus its labelled observer and the
// per-stream bookkeeping (idle clock, checkpoint counters). The stream's batch
// sequence is the learner's own count of completed batches (core.Learner.Seq),
// which its checkpoint carries, so a restored stream continues it.
// Sessions are created by the Manager and torn down by eviction or
// Manager.Close; they are never handed out for direct mutation.
type Session struct {
	id  string
	mgr *Manager

	// mu serializes Process/checkpoint/teardown. Lock order is
	// Manager.mu → Session.mu; a Session.mu holder must never take
	// Manager.mu (eviction holds both while waiting out an in-flight
	// Process).
	// learner is set at construction and never reassigned, so the lock-free
	// inference plane (Infer) reads it without mu.
	mu       sync.Mutex
	learner  *core.Learner
	observer *core.Observer
	closed   bool
	restored bool

	// lastUsed is the idle clock (unix nanoseconds), read by the TTL
	// sweeper and the LRU spill without taking mu.
	lastUsed atomic.Int64

	ckptSaves atomic.Int64
	ckptErrs  atomic.Int64
}

// Observer returns the session's labelled observability layer.
func (s *Session) Observer() *core.Observer { return s.observer }

// Restored reports whether the session was rehydrated from a checkpoint at
// creation.
func (s *Session) Restored() bool { return s.restored }

// touch advances the idle clock.
func (s *Session) touch() { s.lastUsed.Store(time.Now().UnixNano()) }

// process runs one batch through the session's learner, overwriting the
// batch's Seq with the per-stream sequence number: the count of batches the
// learner has completed, so a batch it refuses takes no number. The caller's
// batch is handed to the learner as-is — no row copies — so the binary ingest
// path can pass decoded storage straight through.
// Returns errSessionClosed when the session was evicted before the lock was
// acquired.
func (s *Session) process(ctx context.Context, b stream.Batch) (core.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return core.Result{}, errSessionClosed
	}
	s.touch()
	b.Seq = s.learner.Seq()
	res, err := s.learner.Process(ctx, b)
	if err == nil && s.mgr.ckptEvery > 0 && s.mgr.ckptPath(s.id) != "" && s.learner.Seq()%s.mgr.ckptEvery == 0 {
		s.checkpointLocked()
	}
	return res, err
}

// Infer predicts one label-less batch from the learner's published model
// snapshot. This is the lock-free read path: it never takes s.mu — only the
// idle clock is touched — so inference proceeds concurrently with training,
// checkpointing, and teardown on the same stream. A session that was
// evicted mid-request still answers from its last published snapshot.
func (s *Session) Infer(ctx context.Context, x [][]float64) (core.InferResult, error) {
	s.touch()
	return s.learner.Infer(ctx, x)
}

// checkpointLocked snapshots the learner to the session's checkpoint path.
// Failures are counted and logged, never fatal: a stream keeps serving with
// a stale checkpoint rather than dying on a full disk. Callers hold s.mu.
func (s *Session) checkpointLocked() {
	path := s.mgr.ckptPath(s.id)
	if path == "" {
		return
	}
	if err := s.learner.SaveCheckpointFile(path); err != nil {
		s.ckptErrs.Add(1)
		s.mgr.cCkptErrs.Inc()
		s.mgr.cCkptErrsProc.Inc()
		log.Printf("session %q: checkpoint to %s failed: %v", s.id, path, err)
		return
	}
	s.ckptSaves.Add(1)
	s.mgr.cCkptSaves.Inc()
}

// teardown finishes the session: it waits out any in-flight Process (by
// taking mu), marks the session closed so late callers retry against a
// fresh one, writes a final checkpoint when the session did any work, and
// closes the learner. Idempotent.
func (s *Session) teardown(checkpoint bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if checkpoint && s.learner.Seq() > 0 {
		s.checkpointLocked()
	}
	return s.learner.Close()
}

// Stats is one session's point-in-time summary.
type Stats struct {
	ID       string `json:"id"`
	Batches  int    `json:"batches"`
	Samples  int    `json:"samples"`
	Seq      int    `json:"seq"`
	Restored bool   `json:"restored"`

	GAcc             float64 `json:"g_acc"`
	SI               float64 `json:"si"`
	KnowledgeEntries int     `json:"knowledge_entries"`
	KnowledgeBytes   int     `json:"knowledge_bytes"`

	Health core.Stats `json:"health"`

	CheckpointSaves  int64 `json:"checkpoint_saves"`
	CheckpointErrors int64 `json:"checkpoint_errors"`

	IdleSeconds float64 `json:"idle_seconds"`
}

// Snapshot summarizes the session. Safe concurrently with Process.
func (s *Session) Snapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.learner.Metrics()
	return Stats{
		ID:       s.id,
		Batches:  m.Batches(),
		Samples:  m.Samples(),
		Seq:      s.learner.Seq(),
		Restored: s.restored,

		GAcc:             m.GAcc(),
		SI:               m.SI(),
		KnowledgeEntries: s.learner.KnowledgeStore().Len(),
		KnowledgeBytes:   s.learner.KnowledgeStore().MemoryBytes(),

		Health: s.learner.Stats(),

		CheckpointSaves:  s.ckptSaves.Load(),
		CheckpointErrors: s.ckptErrs.Load(),

		IdleSeconds: time.Since(time.Unix(0, s.lastUsed.Load())).Seconds(),
	}
}
