package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"freewayml/internal/stream"
)

func TestAccuracy(t *testing.T) {
	acc, err := Accuracy([]int{1, 0, 1, 1}, []int{1, 1, 1, 0})
	if err != nil || acc != 0.5 {
		t.Fatalf("Accuracy = %v, %v", acc, err)
	}
	if _, err := Accuracy([]int{1}, []int{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := Accuracy(nil, nil); err == nil {
		t.Error("empty should error")
	}
}

func TestPrequentialGAccAndSI(t *testing.T) {
	var p Prequential
	if p.GAcc() != 0 || p.SI() != 0 {
		t.Error("empty Prequential should report zeros")
	}
	for _, a := range []float64{0.8, 0.9, 1.0} {
		p.Record(a, stream.KindNone, 10)
	}
	if math.Abs(p.GAcc()-0.9) > 1e-12 {
		t.Errorf("GAcc = %v", p.GAcc())
	}
	// σ = sqrt(((.01)+(0)+(.01))/3) = sqrt(0.02/3); SI = exp(-σ/0.9).
	sigma := math.Sqrt(0.02 / 3)
	want := math.Exp(-sigma / 0.9)
	if math.Abs(p.SI()-want) > 1e-12 {
		t.Errorf("SI = %v, want %v", p.SI(), want)
	}
	if p.Batches() != 3 || p.Samples() != 30 {
		t.Errorf("Batches=%d Samples=%d", p.Batches(), p.Samples())
	}
}

func TestSIPerfectStabilityIsOne(t *testing.T) {
	var p Prequential
	for i := 0; i < 5; i++ {
		p.Record(0.7, stream.KindNone, 1)
	}
	if p.SI() != 1 {
		t.Errorf("constant accuracy SI = %v, want 1", p.SI())
	}
}

func TestSIAllZeroAccuracy(t *testing.T) {
	var p Prequential
	p.Record(0, stream.KindNone, 1)
	if p.SI() != 0 {
		t.Errorf("zero-mean SI = %v, want 0", p.SI())
	}
}

func TestSIMoreStableIsHigher(t *testing.T) {
	var stable, unstable Prequential
	for i := 0; i < 10; i++ {
		stable.Record(0.8, stream.KindNone, 1)
		a := 0.6
		if i%2 == 0 {
			a = 1.0
		}
		unstable.Record(a, stream.KindNone, 1)
	}
	if !(stable.SI() > unstable.SI()) {
		t.Errorf("stable SI %v not above unstable %v", stable.SI(), unstable.SI())
	}
}

func TestKindBreakdown(t *testing.T) {
	var p Prequential
	p.Record(0.9, stream.KindSlight, 1)
	p.Record(0.7, stream.KindSlight, 1)
	p.Record(0.3, stream.KindSudden, 1)
	acc, n := p.KindAcc(stream.KindSlight)
	if n != 2 || math.Abs(acc-0.8) > 1e-12 {
		t.Errorf("slight = %v/%d", acc, n)
	}
	acc, n = p.KindAcc(stream.KindSudden)
	if n != 1 || acc != 0.3 {
		t.Errorf("sudden = %v/%d", acc, n)
	}
	if _, n := p.KindAcc(stream.KindReoccurring); n != 0 {
		t.Errorf("reoccurring count = %d", n)
	}
}

func TestSeriesIsCopy(t *testing.T) {
	var p Prequential
	p.Record(0.5, stream.KindNone, 1)
	s := p.Series()
	s[0] = 99
	if p.Series()[0] != 0.5 {
		t.Error("Series exposed internal storage")
	}
}

func TestLatencyTracker(t *testing.T) {
	var l LatencyTracker
	if l.MeanMicros() != 0 || l.Count() != 0 {
		t.Error("fresh tracker should be zero")
	}
	l.Add(100 * time.Microsecond)
	l.Add(300 * time.Microsecond)
	if l.Count() != 2 {
		t.Errorf("Count = %d", l.Count())
	}
	if m := l.MeanMicros(); math.Abs(m-200) > 1 {
		t.Errorf("MeanMicros = %v", m)
	}
}

func TestThroughput(t *testing.T) {
	if tp := Throughput(1000, time.Second); math.Abs(tp-1000) > 1e-9 {
		t.Errorf("Throughput = %v", tp)
	}
	if tp := Throughput(100, 0); tp != 0 {
		t.Errorf("zero-elapsed Throughput = %v", tp)
	}
}

// summarySequences are the accuracy sequences the Summary is held to
// Prequential on: seeded random accuracies of a few lengths, a constant
// sequence and a 0/1 alternation.
func summarySequences() map[string][]float64 {
	seqs := map[string][]float64{
		"constant":    make([]float64, 1000),
		"alternating": make([]float64, 1001),
	}
	for i := range seqs["constant"] {
		seqs["constant"][i] = 0.7
	}
	for i := range seqs["alternating"] {
		seqs["alternating"][i] = float64(i % 2)
	}
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		accs := make([]float64, 1+rng.Intn(20000))
		for i := range accs {
			accs[i] = rng.Float64()
		}
		seqs[fmt.Sprintf("random/seed=%d", seed)] = accs
	}
	return seqs
}

// TestSummaryGAccMatchesPrequential: Eq. 15 from the running sum is
// Prequential.GAcc bit for bit, since both sum in record order; the counts
// agree too.
func TestSummaryGAccMatchesPrequential(t *testing.T) {
	for name, accs := range summarySequences() {
		var p Prequential
		var s Summary
		for i, a := range accs {
			p.Record(a, stream.KindNone, 1+i%7)
			s.Record(a, 1+i%7)
		}
		if s.GAcc() != p.GAcc() {
			t.Errorf("%s: GAcc %v, Prequential %v", name, s.GAcc(), p.GAcc())
		}
		if s.Batches() != p.Batches() || s.Samples() != p.Samples() {
			t.Errorf("%s: batches/samples %d/%d, Prequential %d/%d", name, s.Batches(), s.Samples(), p.Batches(), p.Samples())
		}
	}
}

// TestSummarySIMatchesPrequential: Eq. 16 with σ from Welford's running M2
// is within 1e-12 relative of Prequential's two-pass σ.
func TestSummarySIMatchesPrequential(t *testing.T) {
	for name, accs := range summarySequences() {
		var p Prequential
		var s Summary
		for _, a := range accs {
			p.Record(a, stream.KindNone, 1)
			s.Record(a, 1)
		}
		got, want := s.SI(), p.SI()
		if math.Abs(got-want) > 1e-12*want {
			t.Errorf("%s: SI %v, Prequential %v", name, got, want)
		}
	}
	var s Summary
	if s.GAcc() != 0 || s.SI() != 0 {
		t.Error("empty Summary should report zeros")
	}
	s.Record(0, 1)
	if s.SI() != 0 {
		t.Errorf("zero-mean SI = %v, want 0", s.SI())
	}
}

// TestSummaryHoldsNoPointers: a Summary is a few fixed fields, so a stream's
// metrics take the same memory at any age.
func TestSummaryHoldsNoPointers(t *testing.T) {
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
	walk(reflect.TypeOf(Summary{}), "Summary")
}

// TestSummaryExportImportRoundTrip: a summary restored from its state reports
// the same figures and goes on recording as the original does.
func TestSummaryExportImportRoundTrip(t *testing.T) {
	var s Summary
	s.Record(0.9, 32)
	s.Record(0.7, 32)
	s.Record(0.8, 16)
	var r Summary
	r.Import(s.Export())
	s.Record(0.6, 8)
	r.Record(0.6, 8)
	if r != s {
		t.Errorf("restored summary %+v, original %+v", r.Export(), s.Export())
	}
	if r.Batches() != 4 || r.Samples() != 88 {
		t.Errorf("restored batches/samples %d/%d, want 4/88", r.Batches(), r.Samples())
	}
}

func TestLatencyTrackerPercentiles(t *testing.T) {
	var l LatencyTracker
	if l.P50Micros() != 0 || l.P99Micros() != 0 {
		t.Error("empty tracker must report 0 percentiles")
	}
	// 98 ops at ~100µs, two at ~1s: the median stays near 100µs while the
	// p99 lands in the slow tail.
	for i := 0; i < 98; i++ {
		l.Add(100 * time.Microsecond)
	}
	l.Add(time.Second)
	l.Add(time.Second)
	p50, p99 := l.P50Micros(), l.P99Micros()
	if p50 < 10 || p50 > 1000 {
		t.Errorf("p50 = %vµs, want ~100µs bucket", p50)
	}
	if p99 < 100_000 {
		t.Errorf("p99 = %vµs, want in the ~1s tail", p99)
	}
	if p95 := l.P95Micros(); p95 > p99 {
		t.Errorf("p95 %v > p99 %v", p95, p99)
	}
}
