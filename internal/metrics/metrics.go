// Package metrics implements the evaluation metrics of the paper: real-time
// accuracy (Eq. 1), global average accuracy G_acc (Eq. 15), the stability
// index SI (Eq. 16), per-pattern accuracy breakdowns for the Table II and
// Fig. 9/11 experiments, and latency/throughput trackers for Fig. 10 and
// Tables III/VI.
package metrics

import (
	"errors"
	"math"
	"time"

	"freewayml/internal/obs"
	"freewayml/internal/stream"
)

// Accuracy implements Eq. 1: the fraction of predictions matching labels.
func Accuracy(pred, labels []int) (float64, error) {
	if len(pred) != len(labels) {
		return 0, errors.New("metrics: prediction/label length mismatch")
	}
	if len(pred) == 0 {
		return 0, errors.New("metrics: empty batch")
	}
	correct := 0
	for i := range pred {
		if pred[i] == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(pred)), nil
}

// Prequential accumulates per-batch real-time accuracies and derives the
// paper's aggregate metrics. The zero value is ready to use.
type Prequential struct {
	accs    []float64
	byKind  map[stream.DriftKind][]float64
	samples int
}

// Record adds one batch's real-time accuracy, tagged with the ground-truth
// drift kind of the batch (use stream.KindNone when unknown).
func (p *Prequential) Record(acc float64, kind stream.DriftKind, batchSize int) {
	p.accs = append(p.accs, acc)
	if p.byKind == nil {
		p.byKind = make(map[stream.DriftKind][]float64)
	}
	p.byKind[kind] = append(p.byKind[kind], acc)
	p.samples += batchSize
}

// Batches returns the number of recorded batches.
func (p *Prequential) Batches() int { return len(p.accs) }

// Samples returns the total number of evaluated samples.
func (p *Prequential) Samples() int { return p.samples }

// Series returns the per-batch real-time accuracies in order (the solid
// lines of Fig. 9/12).
func (p *Prequential) Series() []float64 {
	return append([]float64(nil), p.accs...)
}

// GAcc implements Eq. 15: the mean of per-batch accuracies. Returns 0 when
// nothing is recorded.
func (p *Prequential) GAcc() float64 {
	if len(p.accs) == 0 {
		return 0
	}
	var s float64
	for _, a := range p.accs {
		s += a
	}
	return s / float64(len(p.accs))
}

// SI implements Eq. 16: exp(−σ_acc/μ_acc), the exponentially scaled inverse
// coefficient of variation of per-batch accuracies, in (0, 1] with 1 the
// most stable. Returns 0 when nothing is recorded or the mean accuracy is 0.
func (p *Prequential) SI() float64 {
	if len(p.accs) == 0 {
		return 0
	}
	mu := p.GAcc()
	if mu == 0 {
		return 0
	}
	var ss float64
	for _, a := range p.accs {
		d := a - mu
		ss += d * d
	}
	sigma := math.Sqrt(ss / float64(len(p.accs)))
	return math.Exp(-sigma / mu)
}

// KindAcc returns the mean accuracy over batches of the given drift kind
// and the count of such batches.
func (p *Prequential) KindAcc(kind stream.DriftKind) (float64, int) {
	accs := p.byKind[kind]
	if len(accs) == 0 {
		return 0, 0
	}
	var s float64
	for _, a := range accs {
		s += a
	}
	return s / float64(len(accs)), len(accs)
}

// Summary is the fixed-size form of a Prequential for a long-lived stream: it
// keeps the batch and sample counts, the running sum of the per-batch
// accuracies and Welford's running mean and sum of squared deviations, so its
// size does not grow with the stream's age. GAcc sums in record order exactly
// as Prequential.GAcc does, so the two agree bit for bit; SI takes σ from the
// running M2 instead of a second pass, so it may differ in its last bits. It
// keeps no series and no per-kind breakdown: those stay with Prequential. The
// zero value is ready to use.
type Summary struct {
	st SummaryState
}

// SummaryState is the serializable state of a Summary, used by the learner
// checkpoint so metric continuity survives a restart.
type SummaryState struct {
	Batches, Samples int
	// Sum is the accuracies' sum in record order (Eq. 15's numerator); Mean
	// and M2 are Welford's running mean and sum of squared deviations.
	Sum, Mean, M2 float64
}

// Record adds one batch's real-time accuracy.
func (s *Summary) Record(acc float64, batchSize int) {
	st := &s.st
	st.Batches++
	st.Samples += batchSize
	st.Sum += acc
	d := acc - st.Mean
	st.Mean += d / float64(st.Batches)
	st.M2 += d * (acc - st.Mean)
}

// Batches returns the number of recorded batches.
func (s *Summary) Batches() int { return s.st.Batches }

// Samples returns the total number of evaluated samples.
func (s *Summary) Samples() int { return s.st.Samples }

// GAcc implements Eq. 15: the mean of per-batch accuracies. Returns 0 when
// nothing is recorded.
func (s *Summary) GAcc() float64 {
	if s.st.Batches == 0 {
		return 0
	}
	return s.st.Sum / float64(s.st.Batches)
}

// SI implements Eq. 16 as Prequential.SI does, with σ from the running M2.
// Returns 0 when nothing is recorded or the mean accuracy is 0.
func (s *Summary) SI() float64 {
	mu := s.GAcc()
	if mu == 0 {
		return 0
	}
	sigma := math.Sqrt(s.st.M2 / float64(s.st.Batches))
	return math.Exp(-sigma / mu)
}

// Export returns the summary's state.
func (s *Summary) Export() SummaryState { return s.st }

// Import replaces the summary's state with one from Export.
func (s *Summary) Import(st SummaryState) { s.st = st }

// LatencyTracker accumulates per-operation durations, reporting the mean in
// microseconds (the unit of Tables III and VI) plus tail percentiles from
// an obs.Histogram — the same fixed-bucket sketch the /v1/metrics endpoint
// exports, so the experiment tables and a live scrape agree on methodology.
type LatencyTracker struct {
	total time.Duration
	n     int
	hist  *obs.Histogram
}

// Add records one operation's duration.
func (l *LatencyTracker) Add(d time.Duration) {
	l.total += d
	l.n++
	if l.hist == nil {
		l.hist = obs.NewHistogram(nil)
	}
	l.hist.Observe(d.Seconds())
}

// MeanMicros returns the mean latency in µs (0 when nothing recorded).
func (l *LatencyTracker) MeanMicros() float64 {
	if l.n == 0 {
		return 0
	}
	return float64(l.total.Microseconds()) / float64(l.n)
}

// QuantileMicros returns the q-quantile latency in µs, interpolated within
// the histogram's buckets (0 when nothing recorded).
func (l *LatencyTracker) QuantileMicros(q float64) float64 {
	if l.hist == nil {
		return 0
	}
	return l.hist.Quantile(q) * 1e6
}

// P50Micros returns the median latency in µs.
func (l *LatencyTracker) P50Micros() float64 { return l.QuantileMicros(0.50) }

// P95Micros returns the 95th-percentile latency in µs.
func (l *LatencyTracker) P95Micros() float64 { return l.QuantileMicros(0.95) }

// P99Micros returns the 99th-percentile latency in µs.
func (l *LatencyTracker) P99Micros() float64 { return l.QuantileMicros(0.99) }

// Count returns the number of recorded operations.
func (l *LatencyTracker) Count() int { return l.n }

// Throughput returns items/second given a processed item count and the
// elapsed wall time (0 when elapsed is not positive).
func Throughput(items int, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(items) / elapsed.Seconds()
}
