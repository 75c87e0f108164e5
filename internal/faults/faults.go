// Package faults is the fault-injection harness behind FreewayML's
// robustness tests. It produces the corruptions real streams and real
// disks actually deliver — NaN/Inf feature values, ragged batches,
// truncated and bit-flipped checkpoint files, and a filesystem that fails
// on schedule — so the guard, the divergence watchdog, and the crash-safe
// persistence layer can each be demonstrated against the fault they exist
// for. Everything here is deterministic: the same injection call always
// corrupts the same positions.
package faults

import (
	"errors"
	"math"
	"os"
	"sync"

	"freewayml/internal/knowledge"
)

// InjectNaN overwrites every stride-th feature value with NaN, starting at
// the first, and returns how many values were replaced. The input is
// mutated in place (tests own their batches).
func InjectNaN(x [][]float64, stride int) int {
	return inject(x, stride, math.NaN())
}

// InjectInf overwrites every stride-th feature value with +Inf (sign >= 0)
// or -Inf and returns how many values were replaced.
func InjectInf(x [][]float64, stride int, sign int) int {
	v := math.Inf(1)
	if sign < 0 {
		v = math.Inf(-1)
	}
	return inject(x, stride, v)
}

func inject(x [][]float64, stride int, v float64) int {
	if stride < 1 {
		stride = 1
	}
	n, k := 0, 0
	for i := range x {
		for j := range x[i] {
			if k%stride == 0 {
				x[i][j] = v
				n++
			}
			k++
		}
	}
	return n
}

// Ragged returns a copy of the batch with the middle row truncated by one
// element — the classic partially-delivered record.
func Ragged(x [][]float64) [][]float64 {
	out := make([][]float64, len(x))
	copy(out, x)
	if len(out) > 0 {
		mid := len(out) / 2
		row := out[mid]
		if len(row) > 0 {
			out[mid] = append([]float64(nil), row[:len(row)-1]...)
		}
	}
	return out
}

// Truncated returns the first frac of the data (a crash mid-write).
func Truncated(data []byte, frac float64) []byte {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	n := int(float64(len(data)) * frac)
	return append([]byte(nil), data[:n]...)
}

// FlipBit returns a copy of data with one bit inverted (bit rot). The bit
// index wraps, so any non-negative value is valid for non-empty data.
func FlipBit(data []byte, bit int) []byte {
	out := append([]byte(nil), data...)
	if len(out) == 0 {
		return out
	}
	bit %= len(out) * 8
	if bit < 0 {
		bit += len(out) * 8
	}
	out[bit/8] ^= 1 << (bit % 8)
	return out
}

// ErrInjected is the error every scheduled FailingFS fault returns.
var ErrInjected = errors.New("faults: injected I/O failure")

// FailingFS wraps a knowledge.FS and fails operations on schedule. The
// zero schedule never fails; a knob of n >= 0 makes the n-th and every
// later call of that kind fail (0 = all fail).
type FailingFS struct {
	// Inner is the real filesystem; nil means knowledge.OSFS.
	Inner knowledge.FS
	// FailWritesAfter / FailReadsAfter / FailRenamesAfter arm the
	// respective operation: calls numbered >= the value (0-based) fail
	// with ErrInjected. Negative (the zero value is made negative by
	// NewFailingFS) disarms.
	FailWritesAfter  int
	FailReadsAfter   int
	FailRenamesAfter int

	mu      sync.Mutex
	writes  int
	reads   int
	renames int
}

// NewFailingFS returns a FailingFS over inner with every fault disarmed.
func NewFailingFS(inner knowledge.FS) *FailingFS {
	if inner == nil {
		inner = knowledge.OSFS{}
	}
	return &FailingFS{Inner: inner, FailWritesAfter: -1, FailReadsAfter: -1, FailRenamesAfter: -1}
}

// Writes returns how many WriteFile calls were attempted.
func (f *FailingFS) Writes() int { f.mu.Lock(); defer f.mu.Unlock(); return f.writes }

// MkdirAll never fails (directory creation happens at construction time,
// before any scheduled fault is interesting).
func (f *FailingFS) MkdirAll(path string, perm os.FileMode) error {
	return f.Inner.MkdirAll(path, perm)
}

// WriteFile fails according to FailWritesAfter.
func (f *FailingFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	f.mu.Lock()
	n := f.writes
	f.writes++
	armed := f.FailWritesAfter
	f.mu.Unlock()
	if armed >= 0 && n >= armed {
		return ErrInjected
	}
	return f.Inner.WriteFile(name, data, perm)
}

// ReadFile fails according to FailReadsAfter.
func (f *FailingFS) ReadFile(name string) ([]byte, error) {
	f.mu.Lock()
	n := f.reads
	f.reads++
	armed := f.FailReadsAfter
	f.mu.Unlock()
	if armed >= 0 && n >= armed {
		return nil, ErrInjected
	}
	return f.Inner.ReadFile(name)
}

// Rename fails according to FailRenamesAfter.
func (f *FailingFS) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	n := f.renames
	f.renames++
	armed := f.FailRenamesAfter
	f.mu.Unlock()
	if armed >= 0 && n >= armed {
		return ErrInjected
	}
	return f.Inner.Rename(oldpath, newpath)
}

// Remove delegates unconditionally (removal failures are not a modeled
// fault; the store already tolerates stale spill files).
func (f *FailingFS) Remove(name string) error { return f.Inner.Remove(name) }
