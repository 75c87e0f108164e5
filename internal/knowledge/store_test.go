package knowledge

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"freewayml/internal/linalg"
)

func TestNewStoreValidation(t *testing.T) {
	if _, err := NewStore(0, ""); err == nil {
		t.Error("capacity 0 should error")
	}
	if _, err := NewStore(4, t.TempDir()); err != nil {
		t.Errorf("valid store: %v", err)
	}
}

func TestPreserveValidation(t *testing.T) {
	s, _ := NewStore(4, "")
	if err := s.Preserve(nil, []byte("x"), "long", 0); err == nil {
		t.Error("empty distribution should error")
	}
	if err := s.Preserve(linalg.Vector{1}, nil, "long", 0); err == nil {
		t.Error("empty snapshot should error")
	}
}

func TestMatchNearest(t *testing.T) {
	s, _ := NewStore(10, "")
	if err := s.Preserve(linalg.Vector{0, 0}, []byte("origin"), "long", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Preserve(linalg.Vector{10, 0}, []byte("east"), "long", 2); err != nil {
		t.Fatal(err)
	}
	snap, d, ok, err := s.Match(linalg.Vector{9, 1})
	if err != nil || !ok {
		t.Fatalf("Match: %v ok=%v", err, ok)
	}
	if string(snap) != "east" {
		t.Errorf("matched %q, want east", snap)
	}
	if math.Abs(d-math.Sqrt(2)) > 1e-9 {
		t.Errorf("distance = %v", d)
	}
}

func TestMatchEmptyStore(t *testing.T) {
	s, _ := NewStore(4, "")
	_, _, ok, err := s.Match(linalg.Vector{0})
	if err != nil || ok {
		t.Errorf("empty store Match ok=%v err=%v", ok, err)
	}
	if d := s.NearestDistance(linalg.Vector{0}); !math.IsInf(d, 1) {
		t.Errorf("NearestDistance on empty = %v", d)
	}
}

func TestSpillHalfToDisk(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		v := linalg.Vector{float64(i * 10), 0}
		if err := s.Preserve(v, []byte{byte(i), 1, 2, 3}, "long", i); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.SpilledCount() != 2 {
		t.Fatalf("SpilledCount = %d, want 2 (older half)", s.SpilledCount())
	}
	// Matching a spilled entry must transparently load it from disk.
	snap, _, ok, err := s.Match(linalg.Vector{0, 0})
	if err != nil || !ok {
		t.Fatalf("Match spilled: %v ok=%v", err, ok)
	}
	if snap[0] != 0 {
		t.Errorf("matched wrong snapshot: %v", snap)
	}
	// Memory accounting: only in-memory snapshots counted.
	if s.MemoryBytes() != 2*4 {
		t.Errorf("MemoryBytes = %d, want 8", s.MemoryBytes())
	}
}

// TestStoresSharingASpillDirKeepTheirOwnSnapshots: every learner owns a
// store, and a config template hands them all the same SpillDir. Each store
// must still match and export only the snapshots it preserved itself, after
// both have spilled into the directory.
func TestStoresSharingASpillDirKeepTheirOwnSnapshots(t *testing.T) {
	dir := t.TempDir()
	stores := map[string]*Store{}
	for _, name := range []string{"A", "B"} {
		s, err := NewStore(2, dir)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			v := linalg.Vector{float64(i * 10), 0}
			if err := s.Preserve(v, []byte(fmt.Sprintf("%s%d", name, i)), "long", i); err != nil {
				t.Fatal(err)
			}
		}
		if s.SpilledCount() != 1 {
			t.Fatalf("store %s: SpilledCount = %d, want 1", name, s.SpilledCount())
		}
		stores[name] = s
	}
	for name, s := range stores {
		snap, _, ok, err := s.Match(linalg.Vector{0, 0})
		if err != nil || !ok {
			t.Fatalf("store %s: Match: %v ok=%v", name, err, ok)
		}
		if want := name + "0"; string(snap) != want {
			t.Errorf("store %s matched %q, want %q", name, snap, want)
		}
		entries, err := s.Export()
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 2 {
			t.Fatalf("store %s exported %d entries, want 2", name, len(entries))
		}
		for i, e := range entries {
			if want := fmt.Sprintf("%s%d", name, i); string(e.Snapshot) != want {
				t.Errorf("store %s export[%d] = %q, want %q", name, i, e.Snapshot, want)
			}
		}
	}
}

func TestDropHalfWithoutSpillDir(t *testing.T) {
	s, _ := NewStore(4, "")
	for i := 0; i < 4; i++ {
		v := linalg.Vector{float64(i * 10), 0}
		if err := s.Preserve(v, []byte{byte(i)}, "long", i); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2 after dropping older half", s.Len())
	}
	// The dropped entries must not match.
	snap, _, ok, err := s.Match(linalg.Vector{0, 0})
	if err != nil || !ok {
		t.Fatal(err)
	}
	if snap[0] != 2 {
		t.Errorf("matched %v, want entry 2 (nearest survivor)", snap)
	}
}

func TestMemoryBytesAccounting(t *testing.T) {
	s, _ := NewStore(100, "")
	if s.MemoryBytes() != 0 {
		t.Error("fresh store should report 0 bytes")
	}
	if err := s.Preserve(linalg.Vector{1}, make([]byte, 100), "long", 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Preserve(linalg.Vector{2}, make([]byte, 50), "short", 1); err != nil {
		t.Fatal(err)
	}
	if s.MemoryBytes() != 150 {
		t.Errorf("MemoryBytes = %d, want 150", s.MemoryBytes())
	}
}

func TestConcurrentPreserveAndMatch(t *testing.T) {
	s, _ := NewStore(64, t.TempDir())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				v := linalg.Vector{float64(g), float64(i)}
				if err := s.Preserve(v, []byte{1, 2, 3}, "long", i); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, _, _, err := s.Match(linalg.Vector{1, 1}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestPolicyDecide(t *testing.T) {
	p := Policy{Beta: 0.5}
	high := p.Decide(0.8)
	if !high.SaveLong || high.SaveShort {
		t.Errorf("high disorder decision = %+v, want long only", high)
	}
	low := p.Decide(0.2)
	if !low.SaveLong || !low.SaveShort {
		t.Errorf("low disorder decision = %+v, want both", low)
	}
	edge := p.Decide(0.5)
	if !edge.SaveLong || edge.SaveShort {
		t.Errorf("boundary decision = %+v, want long only", edge)
	}
}
