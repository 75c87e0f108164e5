package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"

	"freewayml/internal/cluster"
	"freewayml/internal/knowledge"
	"freewayml/internal/metrics"
	"freewayml/internal/shift"
	"freewayml/internal/strategy"
)

// checkpoint is the gob-serialized durable state of a Learner: everything
// needed to stop a deployed stream and resume it later with identical
// behaviour — model parameters, the shift detector (whose PCA space anchors
// every stored distribution), the knowledge store, the coherent
// experience, and the prequential metrics. The ASW contents, pending
// fixed-frequency buffers and a window close in flight are intentionally NOT
// serialized: they hold at most a few batches of transient training data that
// the resumed stream replaces within one window; a checkpoint stays small, the
// long model is saved as it stands, and the window restarts cleanly.
type checkpoint struct {
	Version      int
	ModelFamily  string
	Dim, Classes int
	Batch        int
	Models       strategy.EnsembleState
	Detector     shift.State
	Knowledge    []knowledge.EntrySnapshot
	Experience   cluster.ExpBufferState
	Metrics      metrics.PrequentialState
}

// checkpointVersion guards the on-disk format. Since version 2 each model
// is its parameter image (nn.Network.AppendSnapshot).
const checkpointVersion = 2

// Checkpoint envelope: every checkpoint is framed as
//
//	magic "FWCP" (4 bytes) | version uint32 | payload length uint64 |
//	CRC32-IEEE of payload uint32 | gob payload
//
// (integers little-endian). The magic rejects files that were never
// checkpoints, the length detects truncation before gob sees a byte, and
// the CRC detects bit rot — gob happily mis-decodes flipped bits into
// silently wrong weights, which is the worst possible failure for a model
// restore.
var checkpointMagic = [4]byte{'F', 'W', 'C', 'P'}

// envelopeVersion is the framing version (independent of the gob payload's
// checkpointVersion).
const envelopeVersion = 1

// maxCheckpointBytes caps the declared payload length so a corrupt header
// cannot trigger a multi-gigabyte allocation.
const maxCheckpointBytes = 1 << 33

// ErrCheckpointCorrupt marks a checkpoint that failed envelope
// verification: truncated, bit-flipped, or not a checkpoint at all. The
// learner's in-memory state is untouched when LoadCheckpoint returns it.
var ErrCheckpointCorrupt = errors.New("core: checkpoint corrupt")

// writeEnvelope frames the payload and writes it to w.
func writeEnvelope(w io.Writer, payload []byte) error {
	var header [20]byte
	copy(header[:4], checkpointMagic[:])
	binary.LittleEndian.PutUint32(header[4:8], envelopeVersion)
	binary.LittleEndian.PutUint64(header[8:16], uint64(len(payload)))
	binary.LittleEndian.PutUint32(header[16:20], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(header[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readEnvelope verifies the framing and returns the payload.
func readEnvelope(r io.Reader) ([]byte, error) {
	var header [20]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrCheckpointCorrupt, err)
	}
	if !bytes.Equal(header[:4], checkpointMagic[:]) {
		return nil, fmt.Errorf("%w: bad magic (not a freewayml checkpoint)", ErrCheckpointCorrupt)
	}
	if v := binary.LittleEndian.Uint32(header[4:8]); v != envelopeVersion {
		return nil, fmt.Errorf("core: checkpoint envelope version %d, want %d", v, envelopeVersion)
	}
	n := binary.LittleEndian.Uint64(header[8:16])
	if n > maxCheckpointBytes {
		return nil, fmt.Errorf("%w: implausible payload length %d", ErrCheckpointCorrupt, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: truncated payload: %v", ErrCheckpointCorrupt, err)
	}
	if sum := crc32.ChecksumIEEE(payload); sum != binary.LittleEndian.Uint32(header[16:20]) {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrCheckpointCorrupt)
	}
	return payload, nil
}

// SaveCheckpoint serializes the learner's durable state. Call it between
// Process calls, never concurrently with one.
func (l *Learner) SaveCheckpoint(w io.Writer) error {
	entries, err := l.kdg.Export()
	if err != nil {
		return fmt.Errorf("core: checkpoint knowledge: %w", err)
	}
	cp := checkpoint{
		Version:     checkpointVersion,
		ModelFamily: l.cfg.ModelFamily,
		Dim:         l.dim,
		Classes:     l.classes,
		Batch:       l.batch,
		Models:      l.ens.ExportState(),
		Detector:    l.det.State(),
		Knowledge:   entries,
		Experience:  l.exp.Export(),
		Metrics:     l.preq.Export(),
	}

	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(cp); err != nil {
		return fmt.Errorf("core: encode checkpoint: %w", err)
	}
	if err := writeEnvelope(w, payload.Bytes()); err != nil {
		return fmt.Errorf("core: write checkpoint: %w", err)
	}
	return nil
}

// SaveCheckpointFile atomically writes a checkpoint to path: the envelope
// goes to a temp file in the same directory, is fsynced, and is renamed
// over the destination, so a crash at any point leaves either the previous
// checkpoint or the new one — never a torn file.
func (l *Learner) SaveCheckpointFile(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*.tmp")
	if err != nil {
		return fmt.Errorf("core: checkpoint temp file: %w", err)
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err := l.SaveCheckpoint(tmp); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("core: sync checkpoint: %w", err)
	}
	name := tmp.Name()
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("core: close checkpoint: %w", err)
	}
	tmp = nil
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return fmt.Errorf("core: commit checkpoint: %w", err)
	}
	// Durability of the rename itself requires a directory fsync; failure
	// here is not fatal (the data file is already complete and consistent).
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// LoadCheckpointFile restores a checkpoint written by SaveCheckpointFile.
func (l *Learner) LoadCheckpointFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("core: open checkpoint: %w", err)
	}
	defer f.Close()
	return l.LoadCheckpoint(f)
}

// LoadCheckpoint restores a learner from a checkpoint written by a learner
// with the same configuration and stream shape. The envelope (magic,
// version, length, CRC) is verified before anything is decoded and every
// compatibility check runs before anything is restored, so a corrupt or
// mismatched checkpoint returns an error with the learner's in-memory
// state — and its predictions — unchanged. Individually invalid knowledge
// entries degrade the restore (skipped and counted in Stats) instead of
// failing it.
func (l *Learner) LoadCheckpoint(r io.Reader) error {
	payload, err := readEnvelope(r)
	if err != nil {
		return err
	}
	var cp checkpoint
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&cp); err != nil {
		return fmt.Errorf("%w: decode: %v", ErrCheckpointCorrupt, err)
	}
	if cp.Version != checkpointVersion {
		return fmt.Errorf("core: checkpoint version %d, want %d", cp.Version, checkpointVersion)
	}
	if cp.ModelFamily != l.cfg.ModelFamily {
		return fmt.Errorf("core: checkpoint family %q, learner is %q", cp.ModelFamily, l.cfg.ModelFamily)
	}
	if cp.Dim != l.dim || cp.Classes != l.classes {
		return fmt.Errorf("core: checkpoint shape %dx%d, learner is %dx%d",
			cp.Dim, cp.Classes, l.dim, l.classes)
	}

	// Nothing is applied before every section has been checked, so a refused
	// checkpoint leaves the learner as it was: the detector and the
	// experience here, the model images by ImportState, which applies first.
	if err := l.det.CheckState(cp.Detector); err != nil {
		return fmt.Errorf("core: restore detector: %w", err)
	}
	if err := cp.Experience.Check(); err != nil {
		return fmt.Errorf("core: restore experience: %w", err)
	}
	if err := l.ens.ImportState(cp.Models); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	// A knowledge entry whose image does not fit the model is skipped, as an
	// empty one is: matched on a later batch, it could not be restored.
	net, total := l.ens.ShortModel().Net(), len(cp.Knowledge)
	entries := slices.DeleteFunc(cp.Knowledge, func(e knowledge.EntrySnapshot) bool { return net.CheckSnapshot(e.Snapshot) != nil })
	if err := l.det.RestoreState(cp.Detector); err != nil {
		return fmt.Errorf("core: restore detector: %w", err)
	}
	skipped, err := l.kdg.Import(entries)
	if err != nil {
		return fmt.Errorf("core: restore knowledge: %w", err)
	}
	if skipped += total - len(entries); skipped > 0 {
		l.health.mu.Lock()
		l.health.knowledgeSkipped += skipped
		l.health.mu.Unlock()
	}
	if err := l.exp.Import(cp.Experience); err != nil {
		return fmt.Errorf("core: restore experience: %w", err)
	}
	l.preq.Import(cp.Metrics)
	l.batch = cp.Batch
	// The restored parameters must reach the inference plane too: republish
	// so readers stop serving the pre-restore snapshot.
	l.publishSnapshot()
	return nil
}
