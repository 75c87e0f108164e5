// Package session hosts many named FreewayML streams inside one process.
// Each stream ("session") owns its own learner — and with it its own shift
// detector, adaptive window, guard, watchdogs, and labelled observer — so
// concurrent streams never contaminate each other's drift statistics or
// historical knowledge.
//
// Lifecycle: sessions are created on first use, evicted after an idle TTL,
// and bounded by a max-session cap with least-recently-used spill. Eviction
// and shutdown checkpoint the session (when a checkpoint directory is
// configured) so the stream resumes where it left off the next time its id
// appears — the same crash-safe envelope a single-learner deployment uses,
// one file per stream.
//
// Concurrency: the session map is lock-striped across N shards (hash of the
// stream id picks the shard), so lookups, creations, and evictions on
// different shards never serialize, and an eviction's checkpoint write
// stalls only its own shard instead of the whole process. Aggregate views
// (List, Len, Aggregate, SweepOnce) visit shards one at a time — there is
// no stop-the-world lock anywhere in the manager.
package session

import (
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"io/fs"
	"log"
	"math"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"freewayml/internal/core"
	"freewayml/internal/obs"
	"freewayml/internal/stream"
)

// DefaultMaxSessions bounds resident sessions when Config.MaxSessions is 0.
const DefaultMaxSessions = 64

// maxShards caps the shard count: past this, shard iteration cost (List,
// sweep, LRU scan) outweighs any contention win.
const maxShards = 256

// maxProcessRetries bounds how often Process retries after losing a race
// with an eviction. Two would suffice in practice (a fresh session is
// touched on creation, so it cannot be the next LRU victim while in use);
// the bound exists so a pathological schedule degrades to an error instead
// of a livelock.
const maxProcessRetries = 8

// idPattern constrains stream ids: they appear in URLs, metric labels, and
// checkpoint file names, so they must be short and path/label-safe.
var idPattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

// ErrBadID rejects a stream id that is empty, too long, or carries
// characters unsafe for URLs, metric labels, or file names.
var ErrBadID = errors.New("session: invalid stream id")

// ErrClosed reports an operation on a closed Manager.
var ErrClosed = errors.New("session: manager closed")

// Config configures a Manager.
type Config struct {
	// Learner is the template config every session's learner is built from.
	Learner core.Config
	// Dim and Classes fix the stream shape every session serves.
	Dim, Classes int

	// MaxSessions bounds resident sessions; creating one past the bound
	// evicts the least-recently-used (0 selects DefaultMaxSessions, < 0 is
	// invalid).
	MaxSessions int
	// TTL evicts sessions idle for longer than this (0 disables the
	// sweeper; eviction then happens only via the LRU bound).
	TTL time.Duration

	// Shards sets the lock-stripe count for the session map (rounded up to
	// a power of two, capped at 256). 0 selects an automatic count sized to
	// GOMAXPROCS; 1 degrades to a single-lock manager — the baseline the
	// bench-serve gate compares against. Negative is invalid.
	Shards int

	// CheckpointDir, when set, persists one checkpoint envelope per session
	// (<dir>/<id>.ckpt): written on eviction and shutdown, read back when
	// the id reappears. Empty disables persistence.
	CheckpointDir string
	// CheckpointEvery additionally snapshots a live session every N
	// processed batches (0 = only on eviction/shutdown).
	CheckpointEvery int

	// Registry receives every session's metrics, each series labelled with
	// stream=<id> (nil builds a private registry).
	Registry *obs.Registry
	// TraceCap sets each session's decision-trace ring capacity (<= 0
	// selects the observer default of 1024).
	TraceCap int
}

// shard is one lock stripe of the session map. Lock order is
// shard.mu → Session.mu (teardown under the shard lock waits out in-flight
// Process calls; Session.mu holders never take a shard lock), and a
// goroutine never holds two shard locks at once.
type shard struct {
	mu       sync.RWMutex
	sessions map[string]*Session
}

// Manager hosts named sessions: create-on-first-use, TTL eviction, LRU
// spill, and aggregate accounting. All methods are safe for concurrent use.
type Manager struct {
	cfg Config
	reg *obs.Registry

	shards []shard
	mask   uint64       // len(shards)-1 (shard count is a power of two)
	seed   maphash.Seed // per-manager hash seed for shard selection
	count  atomic.Int64 // resident sessions across all shards
	closed atomic.Bool

	stop    chan struct{} // closes the TTL sweeper
	sweeper sync.WaitGroup

	gActive       *obs.Gauge
	cCreated      *obs.Counter
	cRestored     *obs.Counter
	cRestoreErrs  *obs.Counter
	cEvictTTL     *obs.Counter
	cEvictLRU     *obs.Counter
	cCkptSaves    *obs.Counter
	cCkptErrs     *obs.Counter
	cCkptErrsProc *obs.Counter

	ckptEvery int
}

// shardCount resolves the configured stripe count: an explicit value is
// rounded up to a power of two; auto (0) sizes to GOMAXPROCS so the stripe
// count tracks the parallelism actually available.
func shardCount(configured int) int {
	n := configured
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		n = 1
	}
	if n > maxShards {
		n = maxShards
	}
	// Round up to a power of two so shard selection is a mask, not a mod.
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// NewManager validates the config and starts the TTL sweeper (when a TTL is
// set). Callers own the returned manager and must Close it.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.MaxSessions < 0 {
		return nil, errors.New("session: MaxSessions must be >= 0")
	}
	if cfg.MaxSessions == 0 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	if cfg.TTL < 0 {
		return nil, errors.New("session: TTL must be >= 0")
	}
	if cfg.Shards < 0 {
		return nil, errors.New("session: Shards must be >= 0")
	}
	if cfg.CheckpointEvery < 0 {
		return nil, errors.New("session: CheckpointEvery must be >= 0")
	}
	if err := cfg.Learner.Validate(); err != nil {
		return nil, err
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	n := shardCount(cfg.Shards)
	m := &Manager{
		cfg:    cfg,
		reg:    reg,
		shards: make([]shard, n),
		mask:   uint64(n - 1),
		seed:   maphash.MakeSeed(),
		stop:   make(chan struct{}),

		gActive:      reg.Gauge("freeway_sessions_active", "Sessions currently resident."),
		cCreated:     reg.Counter("freeway_sessions_created_total", "Sessions created (first use of a stream id)."),
		cRestored:    reg.Counter("freeway_sessions_restored_total", "Sessions rehydrated from a checkpoint at creation."),
		cRestoreErrs: reg.Counter("freeway_sessions_restore_errors_total", "Checkpoint restores that failed (corrupt or mismatched envelope; the session started fresh instead)."),
		cEvictTTL:    reg.Counter("freeway_sessions_evicted_total", "Sessions evicted, by reason.", "reason", "ttl"),
		cEvictLRU:    reg.Counter("freeway_sessions_evicted_total", "Sessions evicted, by reason.", "reason", "lru"),
		cCkptSaves:   reg.Counter("freeway_session_checkpoint_saves_total", "Session checkpoints written."),
		cCkptErrs:    reg.Counter("freeway_session_checkpoint_errors_total", "Session checkpoint writes that failed."),
		// The canonical process-wide failure series: checkpoint-on-evict and
		// checkpoint-on-migrate are best-effort, so this counter (plus the
		// stream id in the log line) is how a quietly failing disk surfaces.
		cCkptErrsProc: reg.Counter("freeway_checkpoint_errors_total", "Checkpoint writes that failed, process-wide."),

		ckptEvery: cfg.CheckpointEvery,
	}
	for i := range m.shards {
		m.shards[i].sessions = make(map[string]*Session)
	}
	if cfg.TTL > 0 {
		interval := cfg.TTL / 4
		if interval < 10*time.Millisecond {
			interval = 10 * time.Millisecond
		}
		m.sweeper.Add(1)
		go m.sweep(interval)
	}
	return m, nil
}

// Registry returns the registry carrying every session's labelled series
// and the manager's aggregates.
func (m *Manager) Registry() *obs.Registry { return m.reg }

// MaxSessions returns the resolved resident-session bound.
func (m *Manager) MaxSessions() int { return m.cfg.MaxSessions }

// shard maps a stream id to its lock stripe.
func (m *Manager) shard(id string) *shard {
	h := maphash.String(m.seed, id)
	return &m.shards[h&m.mask]
}

// ckptPath maps a stream id to its checkpoint file — the one its saves go to
// and a fresh session is rehydrated from ("" when persistence is off). Ids
// are pre-validated against idPattern, so the join cannot escape the
// directory.
func (m *Manager) ckptPath(id string) string {
	if m.cfg.CheckpointDir == "" {
		return ""
	}
	return filepath.Join(m.cfg.CheckpointDir, id+".ckpt")
}

// lookup is the contention-free residency check: a shard read-lock map hit.
// It is the fast path Ensure and the Process retry loop go through before
// paying for the shard write lock.
func (m *Manager) lookup(id string) (*Session, bool) {
	sh := m.shard(id)
	sh.mu.RLock()
	s, ok := sh.sessions[id]
	sh.mu.RUnlock()
	return s, ok
}

// Ensure returns the session for id, creating (and possibly restoring) it
// on first use. Creating past the MaxSessions bound evicts the
// least-recently-used idle session (possibly on another shard).
func (m *Manager) Ensure(id string) (*Session, error) {
	if !idPattern.MatchString(id) {
		return nil, fmt.Errorf("%w: %q", ErrBadID, id)
	}
	if m.closed.Load() {
		return nil, ErrClosed
	}
	if s, ok := m.lookup(id); ok {
		return s, nil
	}
	sh := m.shard(id)
	sh.mu.Lock()
	// Re-check under the write lock: the closed flag (Close drains each
	// shard under its lock, so a session inserted after this check is
	// guaranteed to be seen by Close) and residency (another goroutine may
	// have created the id while we waited for the lock).
	if m.closed.Load() {
		sh.mu.Unlock()
		return nil, ErrClosed
	}
	if s, ok := sh.sessions[id]; ok {
		sh.mu.Unlock()
		return s, nil
	}
	s, err := m.newSession(id)
	if err != nil {
		sh.mu.Unlock()
		return nil, err
	}
	sh.sessions[id] = s
	n := m.count.Add(1)
	m.gActive.Set(float64(n))
	sh.mu.Unlock()

	// Enforce the global bound without holding any shard lock: the LRU
	// victim may live on another shard, and taking two shard locks at once
	// would need a lock order. The new session was just touched, so it is
	// never its own victim unless the bound is smaller than the number of
	// concurrent creators.
	m.enforceBound()
	return s, nil
}

// newSession builds one session: learner from the template config, observer
// labelled with the stream id, checkpoint restore when the id has history
// on disk. Callers hold the id's shard write lock, which is what makes the
// restore read atomic with respect to an eviction's checkpoint write on the
// same shard.
func (m *Manager) newSession(id string) (*Session, error) {
	l, err := core.NewLearner(m.cfg.Learner, m.cfg.Dim, m.cfg.Classes)
	if err != nil {
		return nil, fmt.Errorf("session %q: %w", id, err)
	}
	o := core.NewObserverLabeled(m.reg, m.cfg.TraceCap, "stream", id)
	l.SetObserver(o)
	s := &Session{id: id, mgr: m, learner: l, observer: o}
	s.touch()
	if path := m.ckptPath(id); path != "" {
		switch err := l.LoadCheckpointFile(path); {
		case err == nil:
			s.restored = true
			s.seq = l.Metrics().Batches()
			m.cRestored.Inc()
		case errors.Is(err, fs.ErrNotExist):
			// First use of this id: nothing to restore.
		default:
			// A corrupt or mismatched checkpoint degrades to a fresh
			// session (the failed load left the learner untouched) rather
			// than making the stream id unusable. The CRC envelope is what
			// catches a torn file here — the failover path depends on a bad
			// checkpoint being skipped, never half-loaded.
			m.cRestoreErrs.Inc()
			log.Printf("session %q: checkpoint restore from %s failed, starting fresh: %v", id, path, err)
		}
	}
	m.cCreated.Inc()
	return s, nil
}

// enforceBound evicts least-recently-used sessions until the resident count
// is back under MaxSessions. Transient overshoot is possible (a session is
// inserted before the bound is checked) but every Ensure that pushed past
// the bound pulls it back before returning.
func (m *Manager) enforceBound() {
	for m.count.Load() > int64(m.cfg.MaxSessions) {
		if !m.evictLRU() {
			return
		}
	}
}

// evictLRU finds and evicts the least-recently-used session. The scan takes
// each shard's read lock in turn (never two at once); the eviction re-checks
// the victim under its shard's write lock, so losing a race with a
// concurrent Process touch or a faster evictor just means another pass.
//
// The scan is best-effort: a shard whose lock is held (typically by another
// eviction's checkpoint write, or a creation's restore) is skipped on the
// first pass rather than waited for — otherwise every evictor's scan would
// queue behind every in-flight teardown and concurrent evictions on
// different shards could never overlap their checkpoint I/O. A busy shard's
// sessions are active by definition, so they are poor LRU victims anyway;
// if every shard is busy the scan falls back to blocking so the bound is
// still enforced.
// Reports whether a session was evicted.
func (m *Manager) evictLRU() bool {
	for attempt := 0; attempt < 4; attempt++ {
		var victim *Session
		oldest := int64(math.MaxInt64)
		scanned := 0
		for i := range m.shards {
			sh := &m.shards[i]
			if !sh.mu.TryRLock() {
				continue
			}
			scanned++
			for _, s := range sh.sessions {
				if t := s.lastUsed.Load(); t < oldest {
					oldest = t
					victim = s
				}
			}
			sh.mu.RUnlock()
		}
		if victim == nil && scanned < len(m.shards) {
			// Every candidate shard was busy: block on a full scan rather
			// than give up, so MaxSessions cannot be overrun by a burst of
			// concurrent creators.
			for i := range m.shards {
				sh := &m.shards[i]
				sh.mu.RLock()
				for _, s := range sh.sessions {
					if t := s.lastUsed.Load(); t < oldest {
						oldest = t
						victim = s
					}
				}
				sh.mu.RUnlock()
			}
		}
		if victim == nil {
			return false
		}
		sh := m.shard(victim.id)
		sh.mu.Lock()
		if sh.sessions[victim.id] != victim {
			sh.mu.Unlock()
			continue // raced another evictor; rescan
		}
		delete(sh.sessions, victim.id)
		n := m.count.Add(-1)
		m.cEvictLRU.Inc()
		m.gActive.Set(float64(n))
		// Teardown (final checkpoint) runs under the shard lock so a
		// recreation of the same id — which takes this lock — cannot read
		// the checkpoint before it is written. Only this shard stalls.
		err := victim.teardown(true)
		sh.mu.Unlock()
		if err != nil {
			log.Printf("session %q: close on LRU eviction: %v", victim.id, err)
		}
		return true
	}
	return false
}

// ProcessBatch routes one batch to the session for id, creating it on first
// use (Seq is assigned by the session). The learner copies whatever it keeps
// of the batch, so the caller may reuse its rows and labels once
// ProcessBatch returns. Losing a race with an eviction retries against a
// fresh session — callers never observe a closed-session error.
// Each retry re-checks residency through the read-locked fast path first,
// so a stream that was already recreated (or was never evicted — e.g. the
// victim was a different session) does not pay the shard write lock again.
func (m *Manager) ProcessBatch(ctx context.Context, id string, b stream.Batch) (core.Result, error) {
	for attempt := 0; attempt < maxProcessRetries; attempt++ {
		s, ok := m.lookup(id)
		if !ok {
			var err error
			if s, err = m.Ensure(id); err != nil {
				return core.Result{}, err
			}
		}
		// Advance the idle clock before taking the session lock: under heavy
		// eviction pressure a goroutine can be descheduled long enough after
		// Ensure that its fresh session ages into the LRU victim, and a
		// starved caller could lose every retry. Touching here shrinks that
		// window from scheduler latency to one victim-scan.
		s.touch()
		res, err := s.process(ctx, b)
		if errors.Is(err, errSessionClosed) {
			if m.closed.Load() {
				return core.Result{}, ErrClosed
			}
			continue
		}
		return res, err
	}
	return core.Result{}, fmt.Errorf("session %q: evicted %d times in a row during processing", id, maxProcessRetries)
}

// Infer routes one label-less batch to the inference plane of the session
// for id, creating the session on first use. Unlike ProcessBatch there is
// no closed-session retry loop: the read path never takes Session.mu, so an
// eviction cannot race it into an error — a session evicted mid-request
// simply answers from its last published snapshot.
func (m *Manager) Infer(ctx context.Context, id string, x [][]float64) (core.InferResult, error) {
	s, ok := m.lookup(id)
	if !ok {
		var err error
		if s, err = m.Ensure(id); err != nil {
			return core.InferResult{}, err
		}
	}
	return s.Infer(ctx, x)
}

// Get returns the resident session for id (ok=false when absent — Get never
// creates). Invalid ids are simply not resident.
func (m *Manager) Get(id string) (*Session, bool) {
	if !idPattern.MatchString(id) {
		return nil, false
	}
	return m.lookup(id)
}

// List returns the resident stream ids, sorted. Shards are visited one at a
// time, so the listing is a consistent snapshot per shard, not across the
// whole map — ids created or evicted mid-walk may or may not appear, which
// is the same guarantee a stop-the-world listing gives a caller that acts
// on it after the lock is released.
func (m *Manager) List() []string {
	ids := make([]string, 0, m.count.Load())
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		for id := range sh.sessions {
			ids = append(ids, id)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(ids)
	return ids
}

// Len returns the resident session count.
func (m *Manager) Len() int { return int(m.count.Load()) }

// Evict removes the session for id right now (checkpointing it), as if its
// TTL had expired. Reports whether the id was resident.
func (m *Manager) Evict(id string) (bool, error) { return m.remove(id, true) }

// Discard removes the session for id without writing a final checkpoint.
// This is the distributed tier's stale-flush: a rejoined worker may still
// hold a session whose stream was served elsewhere while the worker was out
// of the ring, so its in-memory state is behind the checkpoint on disk —
// persisting it would clobber the fresh one. Reports whether the id was
// resident.
func (m *Manager) Discard(id string) (bool, error) { return m.remove(id, false) }

func (m *Manager) remove(id string, checkpoint bool) (bool, error) {
	if !idPattern.MatchString(id) {
		return false, nil
	}
	sh := m.shard(id)
	sh.mu.Lock()
	s, ok := sh.sessions[id]
	if !ok {
		sh.mu.Unlock()
		return false, nil
	}
	delete(sh.sessions, id)
	n := m.count.Add(-1)
	m.cEvictTTL.Inc()
	m.gActive.Set(float64(n))
	err := s.teardown(checkpoint)
	sh.mu.Unlock()
	return true, err
}

// SweepOnce evicts every session idle for longer than the TTL, returning
// how many were evicted. The background sweeper calls it periodically; it
// is exported so tests can drive eviction deterministically. A zero TTL
// makes it a no-op. Each shard is swept under its own lock, so a sweep
// stalls at most one stripe of the session map at a time.
func (m *Manager) SweepOnce() int {
	if m.cfg.TTL <= 0 || m.closed.Load() {
		return 0
	}
	cutoff := time.Now().Add(-m.cfg.TTL).UnixNano()
	n := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		for id, s := range sh.sessions {
			if s.lastUsed.Load() > cutoff {
				continue
			}
			delete(sh.sessions, id)
			m.count.Add(-1)
			m.cEvictTTL.Inc()
			n++
			if err := s.teardown(true); err != nil {
				log.Printf("session %q: close on TTL eviction: %v", id, err)
			}
		}
		sh.mu.Unlock()
	}
	if n > 0 {
		m.gActive.Set(float64(m.count.Load()))
	}
	return n
}

// sweep is the TTL sweeper goroutine.
func (m *Manager) sweep(interval time.Duration) {
	defer m.sweeper.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
			m.SweepOnce()
		}
	}
}

// AggregateStats sums the manager-level accounting across all sessions,
// resident and evicted.
type AggregateStats struct {
	Active           int   `json:"active"`
	Created          int64 `json:"created"`
	Restored         int64 `json:"restored"`
	RestoreErrors    int64 `json:"restore_errors"`
	EvictedTTL       int64 `json:"evicted_ttl"`
	EvictedLRU       int64 `json:"evicted_lru"`
	CheckpointSaves  int64 `json:"checkpoint_saves"`
	CheckpointErrors int64 `json:"checkpoint_errors"`
}

// Aggregate returns the manager-level accounting. It reads only atomics —
// no shard lock is taken, so a stats scrape never stalls serving.
func (m *Manager) Aggregate() AggregateStats {
	return AggregateStats{
		Active:           int(m.count.Load()),
		Created:          m.cCreated.Value(),
		Restored:         m.cRestored.Value(),
		RestoreErrors:    m.cRestoreErrs.Value(),
		EvictedTTL:       m.cEvictTTL.Value(),
		EvictedLRU:       m.cEvictLRU.Value(),
		CheckpointSaves:  m.cCkptSaves.Value(),
		CheckpointErrors: m.cCkptErrs.Value(),
	}
}

// Close tears down every session (checkpointing each) and stops the
// sweeper. Idempotent: the second call returns nil. Returns the first
// session-close error.
func (m *Manager) Close() error {
	if !m.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(m.stop)
	m.sweeper.Wait()
	var first error
	for i := range m.shards {
		sh := &m.shards[i]
		// Drain the shard under its lock: any Ensure that won an insert
		// race before the closed flag was visible has already released the
		// lock, so its session is in the map and torn down here.
		sh.mu.Lock()
		sessions := sh.sessions
		sh.sessions = make(map[string]*Session)
		sh.mu.Unlock()
		for _, s := range sessions {
			m.count.Add(-1)
			if err := s.teardown(true); err != nil && first == nil {
				first = err
			}
		}
	}
	m.gActive.Set(0)
	return first
}
