package core

import (
	"context"
	"encoding/json"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"freewayml/internal/cluster"
	"freewayml/internal/obs"
	"freewayml/internal/shift"
	"freewayml/internal/strategy"
	"freewayml/internal/stream"
)

// TestTraceRecordHoldsNoPointers: the trace's records are plain data, so a
// full ring of them is one array the garbage collector does not scan.
func TestTraceRecordHoldsNoPointers(t *testing.T) {
	var walk func(reflect.Type, string)
	walk = func(ty reflect.Type, path string) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(ty.Field(i).Type, path+"."+ty.Field(i).Name)
			}
		case reflect.Array:
			walk(ty.Elem(), path+"[]")
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.String,
			reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %s", path, ty.Kind())
		}
	}
	walk(reflect.TypeOf(traceRecord{}), "traceRecord")
}

// TestTraceRoundTrip renders hand-built batches through the carrier's hooks
// and checks each against the obs.TraceEvent the observer built directly
// before the trace kept records: equal as values and as JSON, timings and
// trace ids included. One batch runs the most stages a batch can and fuses
// ModelNum = 4 members under knowledge reuse, one is guard-rejected, one is a
// slight shift with a sub-pattern and no fusion; their ids are a hex trace
// id, a caller's own id and none.
func TestTraceRoundTrip(t *testing.T) {
	o := NewObserver(obs.NewRegistry(), 8)
	o.trace.reserve(4)
	bo := &batchObs{o: o}
	begin := func(batch int, id string) {
		bo.rec, bo.weights, bo.traceID = newTraceRecord(batch), bo.weights[:0], ""
		bo.trace(id)
	}
	// Durations whose microseconds are not exact in binary.
	durs := []time.Duration{1, 333, 1001, 12_345, 999_999, 1_234_567, 7, 86_400_000_000_000, 250_001}
	stages := append(slices.Clone(strategy.StageNames), strategy.StageLongUpdate)
	if len(stages) != maxStages {
		t.Fatalf("%d stages in the longest batch, maxStages is %d", len(stages), maxStages)
	}
	var want []obs.TraceEvent

	// A reoccurring shift served by knowledge reuse, with every field set.
	begin(41, "4bf92f3577b34da6a3ce929d0e0e4736")
	bo.handoff(true)
	bo.sanitized(3)
	bo.cec(cluster.CECStats{K: 5, Iterations: 7, ExperiencePoints: 640, Agreement: 0.8125, DeployedAgreement: 0.4375})
	bo.knowledge(true, 0.0625)
	bo.Weights([]float64{0.5, 0.25, 0.125, 0.125})
	bo.WindowClosed()
	timings := make([]obs.StageTiming, len(stages))
	for i, s := range stages {
		bo.rec.addStage(s, durs[i])
		timings[i] = obs.StageTiming{Stage: s, Micros: float64(durs[i]) / float64(time.Microsecond)}
	}
	r := &bo.rec
	r.pattern, r.subPattern, r.strategy = uint8(shift.PatternC), uint8(shift.PatternC), uint8(StrategyKnowledge)
	r.shiftDistance, r.severity, r.historyMean, r.nearestHistory = 2.5, 4.75, 0.3, 0.1
	r.disorder, r.windowBatches, r.windowItems, r.accuracy, r.divergences = 0.375, 6, 1536, 0.9609375, 2
	bo.record()
	want = append(want, obs.TraceEvent{
		Batch: 41, Pattern: "C(reoccurring)", Strategy: "knowledge-reuse",
		ShiftDistance: 2.5, Severity: 4.75, HistoryMean: 0.3, NearestHistory: 0.1,
		Disorder: 0.375, WindowBatches: 6, WindowItems: 1536, WindowClosed: true,
		EnsembleWeights: []float64{0.5, 0.25, 0.125, 0.125},
		CECClusters:     5, CECIterations: 7, CECExperience: 640, CECAgreement: 0.8125, CECDeployedAgreement: 0.4375,
		KnowledgeChecked: true, KnowledgeHit: true, KnowledgeDistance: 0.0625,
		GuardSanitized: 3, Divergences: 2, ForwardHandoff: true, Accuracy: 0.9609375,
		TraceID: "4bf92f3577b34da6a3ce929d0e0e4736", Stages: timings,
	})

	// A guard-rejected batch with a caller's own trace id.
	begin(42, "orders-17")
	bo.rec.addStage(strategy.StageGuard, 4321)
	bo.rec.flags |= flagGuardRejected
	bo.record()
	want = append(want, obs.TraceEvent{
		Batch: 42, Pattern: "rejected", NearestHistory: -1, KnowledgeDistance: -1,
		GuardRejected: true, Accuracy: -1, TraceID: "orders-17",
		Stages: []obs.StageTiming{{Stage: strategy.StageGuard, Micros: 4.321}},
	})

	// A slight shift sub-classified as localized, unlabeled, without an id,
	// whose knowledge lookup found nothing at a finite distance.
	begin(43, "")
	bo.knowledge(false, 0.75)
	bo.rec.addStage(strategy.StageGuard, 10)
	r.pattern, r.subPattern, r.strategy = uint8(shift.PatternA), uint8(shift.PatternA2), uint8(StrategyEnsemble)
	r.shiftDistance, r.severity = 0.125, -0.5
	bo.record()
	want = append(want, obs.TraceEvent{
		Batch: 43, Pattern: "A(slight)", SubPattern: "A2(localized)", Strategy: "multi-granularity",
		ShiftDistance: 0.125, Severity: -0.5, NearestHistory: -1,
		KnowledgeChecked: true, KnowledgeDistance: 0.75, Accuracy: -1,
		Stages: []obs.StageTiming{{Stage: strategy.StageGuard, Micros: 0.01}},
	})

	got := o.Trace().Last(0)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rendered events differ:\n got %+v\nwant %+v", got, want)
	}
	for i := range want {
		g, _ := json.Marshal(got[i])
		w, _ := json.Marshal(want[i])
		if string(g) != string(w) {
			t.Errorf("event %d encodes as\n%s\nwant\n%s", i, g, w)
		}
	}
	// Each rendering owns its weights.
	got[0].EnsembleWeights[0] = 9
	if w := o.Trace().Last(3)[0].EnsembleWeights[0]; w != 0.5 {
		t.Errorf("a reader's write reached the trace: weight %v", w)
	}
}

// TestTraceSlotsFollowTheRing: once the ring wraps, each record still renders
// with its own weights and trace id — a wider fusion widens every slot, and a
// hex id takes the slot a caller's string held.
func TestTraceSlotsFollowTheRing(t *testing.T) {
	tr := newDecisionTrace(3)
	tr.reserve(2)
	ids := []string{"a", "", "0123456789abcdef0123456789abcdef", "b", "0123456789ABCDEF0123456789ABCDEF", "", "c"}
	for i, id := range ids {
		rec := newTraceRecord(i)
		rec.addStage(strategy.StageGuard, time.Duration(i))
		if rec.setTraceID(id) {
			id = ""
		}
		tr.add(&rec, make([]float64, 1+i%4), id)
	}
	if tr.Len() != 3 || tr.Dropped() != 4 {
		t.Fatalf("trace holds %d and dropped %d, want 3 and 4", tr.Len(), tr.Dropped())
	}
	for j, ev := range tr.Last(0) {
		i := len(ids) - 3 + j
		if ev.Batch != i || ev.TraceID != ids[i] || len(ev.EnsembleWeights) != 1+i%4 {
			t.Errorf("record %d renders batch %d, id %q and %d weights", i, ev.Batch, ev.TraceID, len(ev.EnsembleWeights))
		}
	}
}

// TestMaxStagesBatch drives the longest batch the pipeline runs: with
// MaxBatches = 1 every push closes the window, so each batch lands the close
// the one before began and begins its own — long_update twice. The record
// holds every stage it ran, in order.
func TestMaxStagesBatch(t *testing.T) {
	if maxStages != len(strategy.StageNames)+1 {
		t.Fatalf("maxStages is %d, want every stage once and long_update twice: %d", maxStages, len(strategy.StageNames)+1)
	}
	cfg := testConfig()
	cfg.Window.MaxBatches = 1
	l, err := NewLearner(cfg, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	o := NewObserver(obs.NewRegistry(), 64)
	l.SetObserver(o)
	rng := rand.New(rand.NewSource(5))
	most := 0
	for i := 0; i < 40; i++ {
		if _, err := l.Process(context.Background(), driftBatch(rng, i, 32, 0, 0, stream.KindNone)); err != nil {
			t.Fatal(err)
		}
		ev := o.Trace().Last(1)[0]
		long := 0
		for _, s := range ev.Stages {
			if s.Stage == strategy.StageLongUpdate {
				long++
			}
		}
		if long == 2 {
			want := []string{strategy.StageGuard, strategy.StageShiftDetect, strategy.StagePredict,
				strategy.StageShortUpdate, strategy.StageLongUpdate, strategy.StageWindowPush, strategy.StageLongUpdate}
			var names []string
			for _, s := range ev.Stages {
				if s.Stage != strategy.StageCluster && s.Stage != strategy.StageKnowledgeLookup {
					names = append(names, s.Stage)
				}
			}
			if !slices.Equal(names, want) {
				t.Fatalf("batch %d ran stages %v, want %v", i, names, want)
			}
		}
		most = max(most, long)
	}
	if most != 2 {
		t.Fatalf("no batch landed one close and began the next (most long_update stages: %d)", most)
	}
}

// TestTraceReadersBesideProcess: readers render the trace while Process adds
// to it and the ring wraps — under -race, every render is ordered against
// every add.
func TestTraceReadersBesideProcess(t *testing.T) {
	cfg := testConfig()
	l, err := NewLearner(cfg, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	o := NewObserver(obs.NewRegistry(), 16)
	l.SetObserver(o)
	done := make(chan struct{})
	readers := make(chan int, 2)
	for r := 0; r < cap(readers); r++ {
		go func() {
			n := 0
			for {
				select {
				case <-done:
					readers <- n
					return
				default:
				}
				for _, ev := range o.Trace().Last(0) {
					if ev.Pattern == "" || len(ev.Stages) == 0 {
						t.Errorf("batch %d rendered without its pattern or stages", ev.Batch)
					}
				}
				n++
			}
		}()
	}
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 96; i++ {
		b := driftBatch(rng, i, 32, float64(i%8)*0.5, 0, stream.KindNone)
		b.TraceID = []string{obs.NewTraceID(), "orders-17", ""}[i%3]
		if _, err := l.Process(context.Background(), b); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	for r := 0; r < cap(readers); r++ {
		<-readers
	}
	if o.Trace().Dropped() != 96-16 {
		t.Errorf("dropped %d records, want %d", o.Trace().Dropped(), 96-16)
	}
}
