package strategy

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"freewayml/internal/linalg"
	"freewayml/internal/model"
	"freewayml/internal/nn"
	"freewayml/internal/shift"
	"freewayml/internal/stream"
)

// viewProbe remembers what every frozen view answered on a probe batch when
// it was first seen, so that a view something still holds can be checked to
// answer the same bits: storage recycled while held would change them, or
// leave the view empty (a retired view's forward panics).
type viewProbe struct {
	x    *linalg.Tensor
	seen map[*nn.Frozen][]float64
}

func newViewProbe(rng *rand.Rand) *viewProbe {
	b, _ := reuseBatch(rng)
	x := linalg.NewTensor(len(b.X), reuseDim)
	x.FromRows(b.X, reuseDim)
	return &viewProbe{x: x, seen: map[*nn.Frozen][]float64{}}
}

func (p *viewProbe) answer(f *nn.Frozen) []float64 {
	var ws nn.Workspace
	return slices.Clone(f.ProbaInto(&ws, p.x).Data)
}

// check holds every view something holds — a publication, a watchdog, a
// snapshot in live — to its first answer, and the pool's holder counts to the
// holders there are. A view the pool does not track must belong to a pinned
// snapshot.
func (p *viewProbe) check(t *testing.T, when string, e *Ensemble, live []*Snapshot) {
	t.Helper()
	holders, pinned := map[*nn.Frozen]int{}, map[*nn.Frozen]bool{}
	for i := range e.pub {
		if f := e.pub[i].frozen; f != nil {
			holders[f]++
		}
		if _, _, _, wd := e.memberModel(i); wd != nil && wd.frozen != nil {
			holders[wd.frozen]++
		}
	}
	for _, s := range live {
		for _, m := range s.Members {
			f := m.Model.(*nn.Frozen)
			holders[f]++
			pinned[f] = pinned[f] || s.Pinned()
		}
	}
	for f := range holders {
		got := p.answer(f)
		if want, ok := p.seen[f]; !ok {
			p.seen[f] = got
		} else if !slices.EqualFunc(got, want, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Fatalf("%s: a held view answers other bits than when it was frozen: its storage was refilled", when)
		}
		if e.copies.find(f) < 0 && !pinned[f] {
			t.Fatalf("%s: a held view of no pinned snapshot is not tracked", when)
		}
	}
	for _, h := range e.copies.held {
		if h.holders != holders[h.f] {
			t.Fatalf("%s: a view counts %d holders, has %d", when, h.holders, holders[h.f])
		}
	}
}

// publishStep runs one batch through e as the learner does — Infer, the
// disturbance, Train — then publishes the members and retires the snapshot
// before, as the learner's publication does.
func publishStep(t *testing.T, e *Ensemble, prev *Snapshot, b stream.Batch, obs shift.Observation, disturb func()) *Snapshot {
	t.Helper()
	end := begin(e, b)
	if _, err := e.Infer(obs.YBar, nil, nil); err != nil {
		t.Fatal(err)
	}
	if disturb != nil {
		disturb()
	}
	if err := e.Train(context.Background(), b.Y, obs, nil); err != nil {
		t.Fatal(err)
	}
	end()
	return publish(e, prev)
}

// publish publishes e's members and retires prev (nil for none).
func publish(e *Ensemble, prev *Snapshot) *Snapshot {
	s := &Snapshot{Members: e.PublishSnapshot()}
	if prev != nil {
		e.Retire(prev)
	}
	return s
}

// recyclingEnsemble is reuseEnsemble with a long-model watchdog too.
func recyclingEnsemble(t *testing.T, every ...int) *Ensemble {
	e := reuseEnsemble(t, every, func(m model.Model) model.Model { return m })
	e.longWd = NewWatchdog("long")
	e.longWd.pool = &e.copies
	return e
}

// TestRetiredSnapshotReadKeepsItsCopies: a superseded snapshot that a read
// still holds keeps every member's view as it was published, publication after
// publication, while the views of snapshots nobody reads are recycled; once the
// read ends, the next publication recycles the views only it held.
func TestRetiredSnapshotReadKeepsItsCopies(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	e := recyclingEnsemble(t, 1, 2)
	probe := newViewProbe(rng)
	var s *Snapshot
	for k := 0; k < 3; k++ {
		b, obs := reuseBatch(rng)
		s = publishStep(t, e, s, b, obs, nil)
	}
	read := s
	read.AddReader()
	short := read.Members[0].Model.(*nn.Frozen)
	want := probe.answer(short)
	for k := 0; k < 6; k++ {
		b, obs := reuseBatch(rng)
		s = publishStep(t, e, s, b, obs, nil)
		probe.check(t, "while read", e, []*Snapshot{s, read})
		if got := probe.answer(short); !slices.Equal(got, want) || e.copies.find(short) < 0 {
			t.Fatalf("publication %d: the read snapshot's short view changed or left the pool", k)
		}
	}
	if n := len(e.copies.held) + len(e.copies.free); n > 9 {
		t.Fatalf("the pool grew to %d views: publications nobody reads keep their copies", n)
	}
	read.DoneReading()
	b, obs := reuseBatch(rng)
	s = publishStep(t, e, s, b, obs, nil)
	probe.check(t, "after the read", e, []*Snapshot{s})
	if e.copies.find(short) >= 0 {
		t.Fatal("the short view only the finished read held was not recycled")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a recycled view still answers: its storage was not given up")
		}
	}()
	probe.answer(short)
}

// TestPinnedSnapshotIsNeverRecycled: a pinned snapshot's views keep answering
// as published however many publications follow, although a pinned read is
// never ended and the pool stops tracking them.
func TestPinnedSnapshotIsNeverRecycled(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	e := recyclingEnsemble(t, 1)
	probe := newViewProbe(rng)
	var s *Snapshot
	b, obs := reuseBatch(rng)
	s = publishStep(t, e, s, b, obs, nil)
	pinned := s
	pinned.AddReader()
	pinned.Pin()
	for k := 0; k < 12; k++ {
		b, obs := reuseBatch(rng)
		s = publishStep(t, e, s, b, obs, nil)
		probe.check(t, "pinned", e, []*Snapshot{s, pinned})
	}
	for _, m := range pinned.Members {
		if e.copies.find(m.Model.(*nn.Frozen)) >= 0 {
			t.Fatal("the pool still tracks a pinned snapshot's view")
		}
	}
	if len(e.retired) != 0 {
		t.Fatalf("%d retired snapshots kept: a pinned one must leave the sweep", len(e.retired))
	}
}

// TestReplacementsNeverRecycleTheRollbackTarget drives an ensemble through
// reads that span publications, a pinned snapshot, knowledge adoption, a
// checkpoint import and a divergence the watchdog rolls back, sweeping after
// every publication: at every step each view a publication, a watchdog or a
// live snapshot holds answers as it did when frozen, the pool counts exactly
// those holders, the rollback restores the watchdog's copy bit for bit, and the
// pool stays bounded — its storage is recycled, not leaked.
func TestReplacementsNeverRecycleTheRollbackTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	e := recyclingEnsemble(t, 1, 2)
	probe := newViewProbe(rng)
	preserved := trainedMLP(t, 54, 4)
	adopted, err := preserved.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var (
		s       *Snapshot
		reads   []*Snapshot // read across publications, ended three steps on
		pinned  []*Snapshot
		state   EnsembleState
		maxHeld int
	)
	for k := 0; k < 48; k++ {
		b, obs := reuseBatch(rng)
		var disturb func()
		switch k {
		case 10:
			disturb = func() {
				if err := e.AdoptShort(adopted, linalg.Vector{0, 0}); err != nil {
					t.Fatal(err)
				}
			}
		case 30:
			disturb = func() { poison(e.grans[0].Model) }
		}
		s = publishStep(t, e, s, b, obs, disturb)
		if k == 30 && (!e.grans[0].Model.Net().ParamsFinite() ||
			!slices.Equal(probe.answer(e.pub[0].frozen), probe.answer(e.grans[0].wd.frozen))) {
			t.Fatal("the poisoned short model was not rolled back to its watchdog's copy")
		}
		if k == 5 {
			state = e.ExportState()
		}
		if k == 20 {
			if err := e.ImportState(state); err != nil {
				t.Fatal(err)
			}
			s = publish(e, s)
		}
		switch {
		case k%5 == 0:
			s.AddReader()
			reads = append(reads, s)
		case k == 17:
			s.AddReader()
			s.Pin()
			pinned = append(pinned, s)
		}
		if len(reads) > 0 && k%5 == 3 {
			reads[0].DoneReading()
			reads = reads[1:]
		}
		live := []*Snapshot{s}
		for _, r := range slices.Concat(pinned, e.retired) {
			if !slices.Contains(live, r) {
				live = append(live, r)
			}
		}
		probe.check(t, fmt.Sprintf("replacements k=%d", k), e, live)
		maxHeld = max(maxHeld, len(e.copies.held)+len(e.copies.free))
	}
	if maxHeld > 16 {
		t.Fatalf("the pool grew to %d views: copies nobody holds are not recycled", maxHeld)
	}
	if len(e.copies.free) == 0 {
		t.Fatal("no view's storage was ever recycled")
	}
}
