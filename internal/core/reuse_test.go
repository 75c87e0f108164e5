package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"freewayml/internal/datasets"
	"freewayml/internal/guard"
	"freewayml/internal/stream"
)

// TestReusedBufferTwins runs the four learn_drift schedules at seed 1 through
// two learners under each guard policy, with and without an Infer of the batch
// before every Process: one learner is handed every batch in rows and labels
// of its own, the other in one row buffer and one label buffer that the next
// batch overwrites. Every ninth batch carries a NaN and two infinities. Both
// learners refuse or answer the same batches, answer the same labels, and hold
// the same short and long weights after every batch, bit for bit: what the
// learner keeps of a batch — the window, the experience buffer, the pending
// fixed-frequency batches, the detector's warm-up — is its own copy, so a
// caller may reuse its buffers once Process returns.
func TestReusedBufferTwins(t *testing.T) {
	for _, policy := range []guard.Policy{guard.Reject, guard.Clamp, guard.Impute} {
		for _, parked := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/infer=%v", policy, parked), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Guard = policy
				for i, name := range []string{"Hyperplane", "Covertype", "NSL-KDD", "Electricity"} {
					src, err := datasets.Build(name, 256, 1000+int64(i))
					if err != nil {
						t.Fatal(err)
					}
					fresh, reused := handoffLearner(t, cfg, src), handoffLearner(t, cfg, src)
					bufX, bufY := make([][]float64, 0, 256), make([]int, 0, 256)
					for k, bt := range stream.Collect(src, 0) {
						if k%9 == 4 {
							bt = faulty(bt)
						}
						bufX, bufY = bufX[:len(bt.X)], append(bufY[:0], bt.Y...)
						for r, row := range bt.X {
							bufX[r] = append(bufX[r][:0], row...)
						}
						shared := stream.Batch{Seq: bt.Seq, X: bufX, Y: bufY, Truth: bt.Truth}
						if parked {
							_, errA := fresh.Infer(context.Background(), bt.X)
							_, errB := reused.Infer(context.Background(), shared.X)
							if (errA == nil) != (errB == nil) {
								t.Fatalf("%s batch %d: Infer = %v, the twin's %v", name, k, errA, errB)
							}
						}
						ra, errA := fresh.Process(context.Background(), bt)
						rb, errB := reused.Process(context.Background(), shared)
						if errA != nil || errB != nil {
							if policy != guard.Reject || !errors.Is(errA, guard.ErrRejected) || !errors.Is(errB, guard.ErrRejected) {
								t.Fatalf("%s batch %d: Process = %v, the twin's %v", name, k, errA, errB)
							}
							continue
						}
						sameLearners(t, k, fresh, reused, ra, rb)
					}
				}
			})
		}
	}
}
