package core

import (
	"context"
	"testing"

	"freewayml/internal/datasets"
	"freewayml/internal/stream"
)

// BenchmarkLearnDrift is the learn_drift workload on one goroutine: its four
// datasets at batch 256 (streams 0–3 of benchmark seed 1), batch k of every
// stream in turn, each batch inferred and then processed, and every pass over
// the schedules on fresh learners. Window closes, shift patterns and the
// class-head widths (2 to 7 classes) therefore take the share of the profile
// they take in the harness, which a replay of one batch of one stream does
// not give them. One op is one batch through Infer and Process.
//
//	go test -run '^$' -bench LearnDrift -cpu 1 -cpuprofile cpu.prof ./internal/core
func BenchmarkLearnDrift(b *testing.B) {
	type schedule struct {
		dim, classes int
		batches      []stream.Batch
	}
	var streams []schedule
	longest := 0
	for i, name := range []string{"Hyperplane", "Covertype", "NSL-KDD", "Electricity"} {
		src, err := datasets.Build(name, 256, 1000+int64(i))
		if err != nil {
			b.Fatal(err)
		}
		s := schedule{dim: src.Dim(), classes: src.Classes(), batches: stream.Collect(src, 0)}
		streams = append(streams, s)
		longest = max(longest, len(s.batches))
	}
	// One pass: batch k of every stream that has one, k ascending.
	type step struct{ s, k int }
	var pass []step
	for k := 0; k < longest; k++ {
		for s := range streams {
			if k < len(streams[s].batches) {
				pass = append(pass, step{s, k})
			}
		}
	}
	ctx := context.Background()
	learners := make([]*Learner, len(streams))
	closeAll := func() {
		for i, l := range learners {
			if l != nil {
				l.Close()
				learners[i] = nil
			}
		}
	}
	defer closeAll()
	rows := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := pass[i%len(pass)]
		if st.k == 0 && learners[st.s] != nil {
			closeAll()
		}
		s, k := st.s, st.k
		if learners[s] == nil {
			l, err := NewLearner(DefaultConfig(), streams[s].dim, streams[s].classes)
			if err != nil {
				b.Fatal(err)
			}
			learners[s] = l
		}
		batch := streams[s].batches[k]
		if _, err := learners[s].Infer(ctx, batch.X); err != nil {
			b.Fatal(err)
		}
		if _, err := learners[s].Process(ctx, batch); err != nil {
			b.Fatal(err)
		}
		rows += len(batch.X)
	}
	b.ReportMetric(float64(rows)/b.Elapsed().Seconds(), "rows/s")
}
