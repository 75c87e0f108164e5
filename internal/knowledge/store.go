// Package knowledge implements FreewayML's historical knowledge reuse
// (paper Sec. IV-D): preservation of (distribution, model-snapshot) pairs
// selected by the ASW's disorder against a threshold β, nearest-distribution
// matching when a severe shift occurs, and the KdgBuffer capacity policy of
// Sec. V-A3 — when the buffer fills, the older half is spilled to local
// storage and dropped from memory, with matching still covering spilled
// entries through an in-memory index of their distributions.
//
// Concurrency: each learner owns one store. It is a read-mostly index —
// the learner's inference-plane snapshot readers Match against it while its
// training path occasionally Preserves. Mutations run under a write lock
// and publish an immutable match index (an atomic.Pointer swap); Match and
// NearestDistance read the published index without taking any lock, so
// concurrent readers never serialize, not against each other and not
// against a preserve. Cached squared norms turn
// each distance evaluation into one dot product instead of a full
// subtract-square-sum pass, and spill-file reads (with their CRC
// verification) happen outside every lock.
package knowledge

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"freewayml/internal/linalg"
)

// Entry is one preserved knowledge pair (d_i, k_i).
type Entry struct {
	// Distribution is d_i: the centroid of the data distribution the model
	// was trained on, in the detector's projected space. Treated as
	// immutable once stored: replacement swaps in a fresh clone, so a
	// published match index may safely alias it.
	Distribution linalg.Vector
	// Snapshot is k_i: the serialized model parameters. Immutable once
	// stored, like Distribution.
	Snapshot []byte
	// Source records which model was preserved ("long" or "short").
	Source string
	// Batch is the stream position at preservation time.
	Batch int

	spilled bool   // Snapshot lives on disk, not in memory
	path    string // spill file, when spilled
}

// matchEntry is one row of the published match index: the distribution, its
// cached squared norm, and either the in-memory snapshot or the spill path.
type matchEntry struct {
	dist   linalg.Vector
	sqnorm float64 // cached |dist|², so matching is a dot-product scan
	snap   []byte  // nil when the snapshot is spilled
	path   string  // spill file when snap is nil
	source string
	batch  int
}

// matchIndex is an immutable snapshot of the store's matchable state,
// published wholesale on every mutation and read lock-free.
type matchIndex struct {
	entries []matchEntry
}

// Store is the KdgBuffer. It is safe for concurrent use: the training path
// preserves knowledge while the inference path's readers match it lock-free
// against the published index.
type Store struct {
	// mu serializes mutations (Preserve, Import, spilling) and guards
	// entries, memBytes, and nextID. The read path never takes it.
	mu       sync.RWMutex
	capacity int
	spillDir string // "" disables spilling (oldest entries are dropped instead)
	// spillTag makes this store's spill file names unique among every
	// store, in this process or another, that shares spillDir.
	spillTag string
	fs       FS
	entries  []Entry
	nextID   int
	memBytes int

	// idx is the immutable published match index (never nil after New).
	idx atomic.Pointer[matchIndex]

	// Fault counters: spill writes that failed (entry retained in memory)
	// and spilled snapshots that could not be read back (entry skipped).
	// Atomic so the lock-free match path can record load failures.
	spillFailures atomic.Int64
	loadFailures  atomic.Int64

	// Usage counters for observability (see Counters).
	preserves    atomic.Int64
	replacements atomic.Int64
	matches      atomic.Int64
	matchHits    atomic.Int64
}

// storeSeq numbers the stores of this process, for their spill tags.
var storeSeq atomic.Uint64

// NewStore returns a store holding at most capacity entries in memory.
// spillDir, when non-empty, receives the older half of the buffer each time
// capacity is reached (the directory is created if needed); when empty,
// the older half is discarded instead.
func NewStore(capacity int, spillDir string) (*Store, error) {
	return NewStoreFS(capacity, spillDir, OSFS{})
}

// NewStoreFS is NewStore with an explicit filesystem — the seam the
// fault-injection harness uses to exercise spill-path failures.
func NewStoreFS(capacity int, spillDir string, fs FS) (*Store, error) {
	if capacity < 1 {
		return nil, errors.New("knowledge: capacity must be >= 1")
	}
	if fs == nil {
		fs = OSFS{}
	}
	if spillDir != "" {
		if err := fs.MkdirAll(spillDir, 0o755); err != nil {
			return nil, fmt.Errorf("knowledge: create spill dir: %w", err)
		}
	}
	tag := fmt.Sprintf("%d-%d", os.Getpid(), storeSeq.Add(1))
	s := &Store{capacity: capacity, spillDir: spillDir, spillTag: tag, fs: fs}
	s.idx.Store(&matchIndex{})
	return s, nil
}

// publishLocked rebuilds the immutable match index from the current
// entries and atomically swaps it in. Callers hold mu for writing. The
// index aliases each entry's Distribution and Snapshot, which is safe
// because both are replaced wholesale (never mutated in place) — a reader
// on the old index keeps a consistent view until its scan completes.
func (s *Store) publishLocked() {
	ents := make([]matchEntry, len(s.entries))
	for i := range s.entries {
		e := &s.entries[i]
		ents[i] = matchEntry{
			dist:   e.Distribution,
			sqnorm: e.Distribution.Dot(e.Distribution),
			source: e.Source,
			batch:  e.Batch,
		}
		if e.spilled {
			ents[i].path = e.path
		} else {
			ents[i].snap = e.Snapshot
		}
	}
	s.idx.Store(&matchIndex{entries: ents})
}

// Preserve stores a knowledge pair. When the in-memory count reaches
// capacity, the older half is spilled to disk (or dropped without a spill
// directory).
func (s *Store) Preserve(dist linalg.Vector, snapshot []byte, source string, batch int) error {
	return s.PreserveOrReplace(dist, snapshot, source, batch, 0)
}

// PreserveOrReplace stores a knowledge pair, but when an existing entry's
// distribution lies within radius of the new one — the same regime — that
// entry is overwritten in place instead: the mapping d_i → k_i should hold
// the freshest knowledge for each distribution, or an early, barely-trained
// snapshot could shadow a mature one forever. radius 0 always appends.
func (s *Store) PreserveOrReplace(dist linalg.Vector, snapshot []byte, source string, batch int, radius float64) error {
	if len(dist) == 0 {
		return errors.New("knowledge: empty distribution")
	}
	if len(snapshot) == 0 {
		return errors.New("knowledge: empty snapshot")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.publishLocked()

	if radius > 0 {
		best := -1
		bestD := radius
		for i := range s.entries {
			if d := dist.Distance(s.entries[i].Distribution); d <= bestD {
				best, bestD = i, d
			}
		}
		if best >= 0 {
			s.replacements.Add(1)
			e := &s.entries[best]
			if e.spilled {
				_ = s.fs.Remove(e.path)
				e.spilled = false
				e.path = ""
			} else {
				s.memBytes -= len(e.Snapshot)
			}
			e.Distribution = dist.Clone()
			e.Snapshot = append([]byte(nil), snapshot...)
			e.Source = source
			e.Batch = batch
			s.memBytes += len(snapshot)
			return nil
		}
	}

	s.preserves.Add(1)
	s.entries = append(s.entries, Entry{
		Distribution: dist.Clone(),
		Snapshot:     append([]byte(nil), snapshot...),
		Source:       source,
		Batch:        batch,
	})
	s.memBytes += len(snapshot)
	if s.inMemoryCountLocked() >= s.capacity {
		return s.spillHalfLocked()
	}
	return nil
}

func (s *Store) inMemoryCountLocked() int {
	n := 0
	for _, e := range s.entries {
		if !e.spilled {
			n++
		}
	}
	return n
}

// spillHalfLocked moves the older half of the in-memory entries to disk
// (keeping their distributions in memory for matching), or drops them when
// no spill directory is configured. Spill files carry a small CRC-framed
// header and are committed atomically (temp + fsync + rename); an entry
// whose spill write fails stays in memory and is counted — a sick disk
// degrades memory bounds, never knowledge.
func (s *Store) spillHalfLocked() error {
	half := s.inMemoryCountLocked() / 2
	if half == 0 {
		return nil
	}
	kept := s.entries[:0]
	moved := 0
	for i := range s.entries {
		e := s.entries[i]
		if e.spilled || moved >= half {
			kept = append(kept, e)
			continue
		}
		moved++
		if s.spillDir == "" {
			s.memBytes -= len(e.Snapshot)
			continue // dropped
		}
		path := filepath.Join(s.spillDir, fmt.Sprintf("kdg-%s-%06d.bin", s.spillTag, s.nextID))
		s.nextID++
		if err := writeFileAtomic(s.fs, path, frameSpill(e.Snapshot), 0o644); err != nil {
			s.spillFailures.Add(1)
			kept = append(kept, e) // retained in memory instead
			continue
		}
		s.memBytes -= len(e.Snapshot)
		e.Snapshot = nil
		e.spilled = true
		e.path = path
		kept = append(kept, e)
	}
	s.entries = kept
	return nil
}

// spillMagic heads every spill file, followed by a CRC32-IEEE of the
// payload: a flipped bit in a parameter image decodes into a silently wrong
// model weight, so bit rot must be detected before a snapshot is ever restored.
var spillMagic = [4]byte{'K', 'D', 'G', 'S'}

// spillHeaderLen is the framed prefix: magic (4 bytes) + CRC32 (4 bytes).
const spillHeaderLen = 8

// frameSpill prepends the magic + CRC header to a snapshot payload.
func frameSpill(data []byte) []byte {
	buf := make([]byte, spillHeaderLen+len(data))
	copy(buf[:4], spillMagic[:])
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(data))
	copy(buf[spillHeaderLen:], data)
	return buf
}

// readSpill loads a spill file and verifies its frame. It takes no store
// lock: checksum verification is pure CPU over a private buffer, and
// holding a lock across disk reads would stall every writer (and, before
// the published-index design, every other matcher) behind one slow file.
func readSpill(fsys FS, path string) ([]byte, error) {
	raw, err := fsys.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) < spillHeaderLen || !bytes.Equal(raw[:4], spillMagic[:]) {
		return nil, fmt.Errorf("knowledge: spill file %s: bad header", filepath.Base(path))
	}
	if crc32.ChecksumIEEE(raw[spillHeaderLen:]) != binary.LittleEndian.Uint32(raw[4:8]) {
		return nil, fmt.Errorf("knowledge: spill file %s: CRC mismatch", filepath.Base(path))
	}
	return raw[spillHeaderLen:], nil
}

// Match finds the stored entry whose distribution is nearest to y and
// returns its snapshot and distance. The scan runs lock-free against the
// published index using cached norms: argmin |y - d_i| = argmin
// (|d_i|² - 2·y·d_i), one dot product per entry. Spilled snapshots are
// transparently loaded from disk and CRC-verified — outside any lock; an
// unreadable or corrupt spill file demotes that entry (skipped and counted)
// and the next-nearest entry is tried instead, so one bad file degrades
// match quality rather than failing knowledge reuse. ok is false when the
// store is empty or nothing is readable.
func (s *Store) Match(y linalg.Vector) (snapshot []byte, dist float64, ok bool, err error) {
	s.matches.Add(1)
	idx := s.idx.Load()
	n := len(idx.entries)
	if n == 0 {
		return nil, 0, false, nil
	}
	ysq := y.Dot(y)
	var skipped []bool // allocated only after the first demotion
	for {
		best := -1
		bestScore := math.Inf(1)
		for i := range idx.entries {
			if skipped != nil && skipped[i] {
				continue
			}
			e := &idx.entries[i]
			// score = |d_i|² - 2·y·d_i; |y - d_i|² = |y|² + score.
			if score := e.sqnorm - 2*y.Dot(e.dist); score < bestScore {
				best, bestScore = i, score
			}
		}
		if best < 0 {
			return nil, 0, false, nil
		}
		d2 := ysq + bestScore
		if d2 < 0 {
			d2 = 0 // float cancellation for a near-exact match
		}
		e := &idx.entries[best]
		if e.snap != nil {
			s.matchHits.Add(1)
			return e.snap, math.Sqrt(d2), true, nil
		}
		data, err := readSpill(s.fs, e.path)
		if err != nil {
			s.loadFailures.Add(1)
			if skipped == nil {
				skipped = make([]bool, n)
			}
			skipped[best] = true
			continue
		}
		s.matchHits.Add(1)
		return data, math.Sqrt(d2), true, nil
	}
}

// NearestDistance returns the distance from y to the closest stored
// distribution (+Inf when empty), without loading any snapshot — the cheap
// check the strategy selector runs during pattern detection. Lock-free,
// like Match.
func (s *Store) NearestDistance(y linalg.Vector) float64 {
	idx := s.idx.Load()
	if len(idx.entries) == 0 {
		return math.Inf(1)
	}
	ysq := y.Dot(y)
	bestScore := math.Inf(1)
	for i := range idx.entries {
		e := &idx.entries[i]
		if score := e.sqnorm - 2*y.Dot(e.dist); score < bestScore {
			bestScore = score
		}
	}
	d2 := ysq + bestScore
	if d2 < 0 {
		d2 = 0
	}
	return math.Sqrt(d2)
}

// Len returns the total number of entries (in memory + spilled).
func (s *Store) Len() int {
	return len(s.idx.Load().entries)
}

// MemoryBytes returns the bytes of snapshot data held in memory — the
// Table IV space-overhead measurement.
func (s *Store) MemoryBytes() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.memBytes
}

// SpilledCount returns how many entries live on disk.
func (s *Store) SpilledCount() int {
	idx := s.idx.Load()
	n := 0
	for i := range idx.entries {
		if idx.entries[i].snap == nil {
			n++
		}
	}
	return n
}

// EntrySnapshot is the serializable form of a stored knowledge pair.
type EntrySnapshot struct {
	Distribution linalg.Vector
	Snapshot     []byte
	Source       string
	Batch        int
}

// Export returns every entry with its snapshot materialized (spilled
// entries are read back from disk), for checkpointing. File reads and CRC
// verification run against the published index without holding the store
// lock, so a checkpoint of a large spilled store never stalls preserves or
// matches. An unreadable spill file loses only that entry: it is skipped
// and counted, so one corrupt file cannot block a checkpoint of everything
// else.
func (s *Store) Export() ([]EntrySnapshot, error) {
	idx := s.idx.Load()
	out := make([]EntrySnapshot, 0, len(idx.entries))
	for i := range idx.entries {
		e := &idx.entries[i]
		snap := e.snap
		if snap == nil {
			data, err := readSpill(s.fs, e.path)
			if err != nil {
				s.loadFailures.Add(1)
				continue
			}
			snap = data
		}
		out = append(out, EntrySnapshot{
			Distribution: e.dist.Clone(),
			Snapshot:     append([]byte(nil), snap...),
			Source:       e.source,
			Batch:        e.batch,
		})
	}
	return out, nil
}

// Import replaces the store's contents with the exported entries (all held
// in memory; the next capacity overflow re-spills as usual). Individually
// invalid entries — the degraded-restore case, e.g. a checkpoint whose
// knowledge section was written while a spill file was corrupt — are
// skipped and reported via the returned count instead of failing the whole
// restore.
func (s *Store) Import(entries []EntrySnapshot) (skipped int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.publishLocked()
	s.entries = s.entries[:0]
	s.memBytes = 0
	for _, e := range entries {
		if len(e.Distribution) == 0 || len(e.Snapshot) == 0 {
			skipped++
			continue
		}
		s.entries = append(s.entries, Entry{
			Distribution: e.Distribution.Clone(),
			Snapshot:     append([]byte(nil), e.Snapshot...),
			Source:       e.Source,
			Batch:        e.Batch,
		})
		s.memBytes += len(e.Snapshot)
	}
	return skipped, nil
}

// Counters are the store's cumulative usage counts for observability.
type Counters struct {
	// Preserves counts appended entries; Replacements counts same-regime
	// in-place overwrites (PreserveOrReplace within radius).
	Preserves    int
	Replacements int
	// Matches counts Match calls; MatchHits those that returned a snapshot.
	Matches   int
	MatchHits int
}

// Counters returns the store's cumulative usage counts.
func (s *Store) Counters() Counters {
	return Counters{
		Preserves:    int(s.preserves.Load()),
		Replacements: int(s.replacements.Load()),
		Matches:      int(s.matches.Load()),
		MatchHits:    int(s.matchHits.Load()),
	}
}

// SpillFailures counts spill writes that failed; the affected entries were
// retained in memory instead of spilled.
func (s *Store) SpillFailures() int {
	return int(s.spillFailures.Load())
}

// LoadFailures counts spilled snapshots that could not be read back; the
// affected entries were skipped by Match or Export.
func (s *Store) LoadFailures() int {
	return int(s.loadFailures.Load())
}

// Policy decides which model's knowledge to preserve when an ASW closes
// (paper Sec. IV-D1): disorder above β means the window was localized and
// the stable long-granularity model is preserved; disorder below β means an
// orderly directional shift, where the short-granularity model holds the
// most recent (post-shift) distribution and is preserved as well.
type Policy struct {
	// Beta is the normalized-disorder threshold β.
	Beta float64
}

// Decision describes which snapshots to preserve.
type Decision struct {
	SaveLong  bool
	SaveShort bool
}

// Decide applies the β rule to a window's normalized disorder.
func (p Policy) Decide(disorder float64) Decision {
	if disorder >= p.Beta {
		return Decision{SaveLong: true}
	}
	return Decision{SaveLong: true, SaveShort: true}
}
