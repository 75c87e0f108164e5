package freewayml

import (
	"math"
	"path/filepath"
	"testing"
)

func TestDefaultConfigRoundtrip(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Model != "mlp" || cfg.ModelNum != 2 || cfg.Alpha != 1.96 || cfg.KdgBuffer != 20 {
		t.Errorf("unexpected defaults: %+v", cfg)
	}
	if cfg.GuardPolicy != "reject" {
		t.Errorf("default guard policy = %q, want reject", cfg.GuardPolicy)
	}
	cc, err := cfg.toCore()
	if err != nil {
		t.Fatalf("default config failed to map: %v", err)
	}
	if err := cc.Validate(); err != nil {
		t.Errorf("default config invalid after mapping: %v", err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(DefaultConfig(), 0, 2); err == nil {
		t.Error("dim 0 should error")
	}
	if _, err := New(DefaultConfig(), 4, 1); err == nil {
		t.Error("classes 1 should error")
	}
	bad := DefaultConfig()
	bad.Model = "nope"
	if _, err := New(bad, 4, 2); err == nil {
		t.Error("unknown model should error")
	}
}

func TestEndToEndPublicAPI(t *testing.T) {
	src, err := OpenDataset("SEA", 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if src.Name() != "SEA" || src.Dim() != 3 || src.Classes() != 2 {
		t.Fatalf("stream meta: %s %d %d", src.Name(), src.Dim(), src.Classes())
	}
	learner, err := New(DefaultConfig(), src.Dim(), src.Classes())
	if err != nil {
		t.Fatal(err)
	}
	defer learner.Close()

	seen, accSum := 0, 0.0
	for seen < 60 {
		b, ok := src.Next()
		if !ok {
			break
		}
		res, err := learner.ProcessBatch(b.X, b.Y)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Predictions) != len(b.X) {
			t.Fatalf("predictions %d for %d samples", len(res.Predictions), len(b.X))
		}
		if res.Pattern == "" || res.Strategy == "" {
			t.Fatal("empty pattern/strategy strings")
		}
		accSum += res.Accuracy
		seen++
	}
	st := learner.Stats()
	if st.Batches == 0 || st.Samples == 0 {
		t.Fatalf("no stats recorded: %+v", st)
	}
	if st.GAcc <= 0.5 {
		t.Errorf("G_acc = %v, want learning above chance", st.GAcc)
	}
	if st.SI <= 0 || st.SI > 1 {
		t.Errorf("SI = %v out of range", st.SI)
	}
	// Eq. 15 over the batches' own accuracies, summed in order.
	if st.Batches != seen || st.GAcc != accSum/float64(seen) {
		t.Errorf("batches %d, G_acc %v; the results give %d, %v", st.Batches, st.GAcc, seen, accSum/float64(seen))
	}
}

func TestOpenDatasetUnknown(t *testing.T) {
	if _, err := OpenDataset("nope", 64, 1); err == nil {
		t.Error("unknown dataset should error")
	}
	if len(Datasets()) < 10 {
		t.Errorf("datasets registry too small: %v", Datasets())
	}
}

func TestUnlabeledProcessBatch(t *testing.T) {
	learner, err := New(DefaultConfig(), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer learner.Close()
	x := [][]float64{{1, 2, 3}, {4, 5, 6}}
	res, err := learner.ProcessBatch(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy != -1 {
		t.Errorf("unlabeled accuracy = %v", res.Accuracy)
	}
	if len(res.Predictions) != 2 {
		t.Errorf("predictions = %v", res.Predictions)
	}
}

func TestBadGuardPolicyRejectedAtNew(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GuardPolicy = "yolo"
	if _, err := New(cfg, 3, 2); err == nil {
		t.Error("unknown guard policy should error")
	}
}

func TestGuardCountersReachPublicStats(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GuardPolicy = "clamp"
	learner, err := New(cfg, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer learner.Close()
	x := [][]float64{{1, math.NaN(), 3}, {4, 5, math.Inf(1)}}
	if _, err := learner.ProcessBatch(x, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if st := learner.Stats(); st.SanitizedValues != 2 {
		t.Errorf("SanitizedValues = %d, want 2", st.SanitizedValues)
	}
}

func TestSaveFileLoadFileRoundTrip(t *testing.T) {
	src, err := OpenDataset("SEA", 64, 7)
	if err != nil {
		t.Fatal(err)
	}
	learner, err := New(DefaultConfig(), src.Dim(), src.Classes())
	if err != nil {
		t.Fatal(err)
	}
	defer learner.Close()
	for i := 0; i < 10; i++ {
		b, _ := src.Next()
		if _, err := learner.ProcessBatch(b.X, b.Y); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := learner.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	restored, err := New(DefaultConfig(), src.Dim(), src.Classes())
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if err := restored.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	want := learner.Stats()
	got := restored.Stats()
	if got.Batches != want.Batches || got.GAcc != want.GAcc {
		t.Errorf("restored stats = %d/%v, want %d/%v", got.Batches, got.GAcc, want.Batches, want.GAcc)
	}
}
