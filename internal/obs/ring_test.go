package obs

import (
	"slices"
	"strings"
	"sync"
	"testing"
)

// TestRing adds 0..adds-1 to a ring of the given capacity and checks what it
// holds, what it dropped, and Last for every n: n ≤ 0 and n beyond the held
// count return everything, oldest first; 1 ≤ n ≤ held the newest n.
func TestRing(t *testing.T) {
	for _, tc := range []struct {
		name           string
		capacity, adds int
		held           int
	}{
		{"empty", 3, 0, 0},
		{"capacity below 1", 0, 3, 1},
		{"negative capacity", -7, 2, 1},
		{"partly filled", 4, 3, 3},
		{"exactly full", 4, 4, 4},
		{"wrap-around", 4, 10, 4},
		{"many wraps", 3, 100, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRing[int](tc.capacity)
			for i := 0; i < tc.adds; i++ {
				r.Add(i)
			}
			if r.Len() != tc.held {
				t.Fatalf("Len = %d, want %d", r.Len(), tc.held)
			}
			if want := int64(tc.adds - tc.held); r.Dropped() != want {
				t.Fatalf("Dropped = %d, want %d", r.Dropped(), want)
			}
			want := make([]int, tc.held)
			for i := range want {
				want[i] = tc.adds - tc.held + i
			}
			for _, n := range []int{-1, 0, tc.held + 1, tc.held + 100} {
				if got := r.Last(n); !slices.Equal(got, want) {
					t.Fatalf("Last(%d) = %v, want %v", n, got, want)
				}
			}
			for n := 1; n <= tc.held; n++ {
				if got := r.Last(n); !slices.Equal(got, want[tc.held-n:]) {
					t.Fatalf("Last(%d) = %v, want %v", n, got, want[tc.held-n:])
				}
			}
			// Last hands out a copy: writing it leaves the ring alone.
			if got := r.Last(0); len(got) > 0 {
				got[0] = -1
				if r.Last(0)[0] != want[0] {
					t.Fatal("Last aliases the ring's storage")
				}
			}
		})
	}
}

// TestTraceRingBoundedUnderConcurrentWriters: writers race each other and a
// reader (run under -race by make race) on a decision-trace ring. It never
// grows past its capacity, every Add is either held or dropped, and no slot
// is held twice.
func TestTraceRingBoundedUnderConcurrentWriters(t *testing.T) {
	const capacity, writers, per = 64, 8, 500
	r := NewRing[TraceEvent](capacity)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Add(TraceEvent{Batch: w*per + i, Strategy: "multi-granularity"})
				if l := r.Len(); l > capacity {
					t.Errorf("ring grew past capacity: %d", l)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			if got := r.Last(16); len(got) > 16 {
				t.Errorf("Last(16) returned %d records", len(got))
			}
		}
	}()
	wg.Wait()
	<-done
	if r.Len() != capacity {
		t.Fatalf("Len = %d, want %d", r.Len(), capacity)
	}
	if got := r.Dropped() + int64(r.Len()); got != writers*per {
		t.Fatalf("dropped+held = %d, want %d (every Add accounted)", got, writers*per)
	}
	seen := map[int]bool{}
	for _, ev := range r.Last(0) {
		if seen[ev.Batch] {
			t.Fatalf("record %d held twice", ev.Batch)
		}
		seen[ev.Batch] = true
	}
}

// TestSpanRingConcurrent: span writers filter the ring by trace while others
// add to it, as a node's /v1/spans handler does; the ring ends full.
func TestSpanRingConcurrent(t *testing.T) {
	r := NewRing[Span](64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Add(Span{TraceID: NewTraceID()})
				if got := SpansOfTrace(r.Last(0), "none"); got != nil {
					t.Errorf("SpansOfTrace(none) = %+v, want nil", got)
					return
				}
			}
		}()
	}
	wg.Wait()
	if r.Len() != 64 {
		t.Fatalf("Len = %d, want 64", r.Len())
	}
}

// TestEventRingJSONL: a full decision-trace ring drops its oldest event and
// writes the rest as JSONL, oldest first.
func TestEventRingJSONL(t *testing.T) {
	r := NewRing[TraceEvent](2)
	r.Add(TraceEvent{Batch: 0, Pattern: "none"})
	r.Add(TraceEvent{Batch: 1, Pattern: "slight"})
	r.Add(TraceEvent{Batch: 2, Pattern: "sudden"})
	if r.Dropped() != 1 {
		t.Fatalf("Dropped = %d, want 1", r.Dropped())
	}
	var sb strings.Builder
	if err := WriteJSONL(&sb, r.Last(0)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("JSONL lines = %d, want 2: %q", len(lines), sb.String())
	}
	if !strings.Contains(lines[0], `"slight"`) || !strings.Contains(lines[1], `"sudden"`) {
		t.Fatalf("unexpected JSONL order: %q", sb.String())
	}
}
