package freewayml_test

import (
	"bytes"
	"fmt"
	"log"

	"freewayml"
)

// Run FreewayML over a built-in drifting stream and watch the strategy
// selector react to the shift patterns.
func ExampleLearner() {
	// Open one of the bundled dataset simulators. Every batch carries 128
	// labeled samples; the stream injects slight, sudden, and reoccurring
	// distribution shifts.
	stream, err := freewayml.OpenDataset("Electricity", 128, 42)
	if err != nil {
		log.Fatal(err)
	}

	// A learner with the paper's defaults (2 granularity models, α = 1.96,
	// 20-entry knowledge buffer).
	learner, err := freewayml.New(freewayml.DefaultConfig(), stream.Dim(), stream.Classes())
	if err != nil {
		log.Fatal(err)
	}
	defer learner.Close()

	for i := 0; ; i++ {
		batch, ok := stream.Next()
		if !ok {
			break
		}
		// Prequential protocol: predict first, then learn from the labels.
		res, err := learner.ProcessBatch(batch.X, batch.Y)
		if err != nil {
			log.Fatal(err)
		}
		if i%10 == 0 {
			fmt.Printf("batch %3d  drift=%-11s pattern=%-16s strategy=%-30s acc=%.3f\n",
				i, batch.Drift, res.Pattern, res.Strategy, res.Accuracy)
		}
	}

	stats := learner.Stats()
	fmt.Printf("\nprocessed %d batches (%d samples)\n", stats.Batches, stats.Samples)
	fmt.Printf("global accuracy (G_acc): %.2f%%\n", 100*stats.GAcc)
	fmt.Printf("stability index (SI):    %.3f\n", stats.SI)
	fmt.Printf("knowledge entries:       %d (%d bytes in memory)\n",
		stats.KnowledgeEntries, stats.KnowledgeBytes)
	// Output:
	// batch   0  drift=slight      pattern=warmup           strategy=warmup                         acc=0.453
	// batch  10  drift=slight      pattern=warmup           strategy=warmup                         acc=0.711
	// batch  20  drift=slight      pattern=A1(directional)  strategy=multi-granularity              acc=0.852
	// batch  30  drift=slight      pattern=A2(localized)    strategy=multi-granularity              acc=0.883
	// batch  40  drift=slight      pattern=A1(directional)  strategy=multi-granularity              acc=0.891
	// batch  50  drift=sudden      pattern=B(sudden)        strategy=multi-granularity              acc=0.867
	// batch  60  drift=slight      pattern=A1(directional)  strategy=multi-granularity              acc=0.844
	// batch  70  drift=slight      pattern=A1(directional)  strategy=multi-granularity              acc=0.852
	// batch  80  drift=reoccurring pattern=C(reoccurring)   strategy=knowledge-reuse                acc=0.844
	// batch  90  drift=slight      pattern=A1(directional)  strategy=multi-granularity              acc=0.906
	// batch 100  drift=slight      pattern=A2(localized)    strategy=multi-granularity              acc=0.883
	// batch 110  drift=slight      pattern=A1(directional)  strategy=multi-granularity              acc=0.852
	// batch 120  drift=slight      pattern=A1(directional)  strategy=multi-granularity              acc=0.891
	// batch 130  drift=slight      pattern=A2(localized)    strategy=multi-granularity              acc=0.859
	// batch 140  drift=slight      pattern=A1(directional)  strategy=multi-granularity              acc=0.891
	//
	// processed 145 batches (18560 samples)
	// global accuracy (G_acc): 83.56%
	// stability index (SI):    0.887
	// knowledge entries:       6 (27984 bytes in memory)
}

// Stop a deployed stream and resume it later. The learner's durable state —
// model parameters, the detector's PCA space, the knowledge store, the
// coherent experience — round-trips through Save/Load, so the resumed learner
// predicts identically and keeps learning from where it left off.
func ExampleLearner_Save() {
	stream, err := freewayml.OpenDataset("NSL-KDD", 128, 9)
	if err != nil {
		log.Fatal(err)
	}
	cfg := freewayml.DefaultConfig()
	learner, err := freewayml.New(cfg, stream.Dim(), stream.Classes())
	if err != nil {
		log.Fatal(err)
	}

	// Phase 1: half the stream.
	processed := 0
	for processed < 60 {
		b, ok := stream.Next()
		if !ok {
			break
		}
		if _, err := learner.ProcessBatch(b.X, b.Y); err != nil {
			log.Fatal(err)
		}
		processed++
	}
	midStats := learner.Stats()
	fmt.Printf("before checkpoint: %d batches, G_acc %.2f%%, %d knowledge entries\n",
		midStats.Batches, 100*midStats.GAcc, midStats.KnowledgeEntries)

	// Checkpoint — in production this would be a file (SaveFile); the
	// deployment restart is simulated with a fresh learner.
	var checkpoint bytes.Buffer
	if err := learner.Save(&checkpoint); err != nil {
		log.Fatal(err)
	}
	if err := learner.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpoint written: %d bytes\n", checkpoint.Len())

	// Phase 2: a new process resumes from the checkpoint.
	resumed, err := freewayml.New(cfg, stream.Dim(), stream.Classes())
	if err != nil {
		log.Fatal(err)
	}
	defer resumed.Close()
	if err := resumed.Load(bytes.NewReader(checkpoint.Bytes())); err != nil {
		log.Fatal(err)
	}
	fmt.Println("resumed from checkpoint; continuing the stream")

	for {
		b, ok := stream.Next()
		if !ok {
			break
		}
		res, err := resumed.ProcessBatch(b.X, b.Y)
		if err != nil {
			log.Fatal(err)
		}
		processed++
		if res.Strategy == "knowledge-reuse" {
			fmt.Printf("batch %3d: reoccurring regime served by pre-checkpoint knowledge (acc %.1f%%)\n",
				processed, 100*res.Accuracy)
		}
	}
	final := resumed.Stats()
	fmt.Printf("after resume: %d batches in all, G_acc %.2f%%, %d knowledge entries\n",
		final.Batches, 100*final.GAcc, final.KnowledgeEntries)
	// Output:
	// before checkpoint: 60 batches, G_acc 87.19%, 3 knowledge entries
	// checkpoint written: 78201 bytes
	// resumed from checkpoint; continuing the stream
	// batch  90: reoccurring regime served by pre-checkpoint knowledge (acc 65.6%)
	// batch  91: reoccurring regime served by pre-checkpoint knowledge (acc 88.3%)
	// after resume: 130 batches in all, G_acc 88.55%, 4 knowledge entries
}
