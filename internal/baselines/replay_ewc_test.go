package baselines

import (
	"math/rand"
	"testing"

	"freewayml/internal/stream"
)

func TestReplayAndEWCLearn(t *testing.T) {
	for _, name := range []string{"Replay", "EWC"} {
		fw, err := Build(name, factory(t), 6, 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if fw.Name() != name {
			t.Errorf("Name = %q", fw.Name())
		}
		if acc := runPrequential(t, fw, 40); acc < 0.85 {
			t.Errorf("%s accuracy = %v", name, acc)
		}
	}
}

func TestReplayValidation(t *testing.T) {
	f := factory(t)
	if _, err := NewReplay(f, 4, 2, 0, 1, 1); err == nil {
		t.Error("capacity 0 should error")
	}
	if _, err := NewReplay(f, 4, 2, 10, 0, 1); err == nil {
		t.Error("mix 0 should error")
	}
	fw, _ := NewReplay(f, 4, 2, 10, 4, 1)
	if err := fw.Train(stream.Batch{X: [][]float64{{1, 2, 3, 4}}}); err == nil {
		t.Error("unlabeled Train should error")
	}
	if _, err := fw.Infer(stream.Batch{}); err == nil {
		t.Error("empty Infer should error")
	}
}

func TestReplayBufferBounded(t *testing.T) {
	fw, err := NewReplay(factory(t), 6, 3, 100, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for s := 0; s < 10; s++ {
		if err := fw.Train(separable(rng, 64, 6, 3, s)); err != nil {
			t.Fatal(err)
		}
	}
	if fw.BufLen() > 100 {
		t.Errorf("reservoir grew to %d", fw.BufLen())
	}
	if fw.BufLen() == 0 {
		t.Error("reservoir empty after training")
	}
}

func TestReplayPreservesOldKnowledge(t *testing.T) {
	// Train regime A, then regime B; replay must keep regime-A accuracy
	// above a no-replay model's.
	run := func(withReplay bool) float64 {
		rng := rand.New(rand.NewSource(9))
		var fw Framework
		var err error
		if withReplay {
			fw, err = NewReplay(factory(t), 3, 2, 2048, 128, 1)
		} else {
			fw, err = NewPlain(factory(t), 3, 2)
		}
		if err != nil {
			t.Fatal(err)
		}
		mk := func(offset float64, seq int) stream.Batch {
			x := make([][]float64, 64)
			y := make([]int, 64)
			for i := range x {
				c := rng.Intn(2)
				x[i] = []float64{offset + float64(c)*2 + rng.NormFloat64()*0.3, rng.NormFloat64() * 0.3, 0}
				y[i] = c
			}
			return stream.Batch{Seq: seq, X: x, Y: y}
		}
		for s := 0; s < 25; s++ {
			if err := fw.Train(mk(0, s)); err != nil {
				t.Fatal(err)
			}
		}
		// Regime B flips the label geometry within the same region, forcing
		// interference with regime A.
		mkB := func(seq int) stream.Batch {
			b := mk(0, seq)
			for i := range b.Y {
				b.Y[i] = 1 - b.Y[i]
			}
			return b
		}
		for s := 25; s < 33; s++ {
			if err := fw.Train(mkB(s)); err != nil {
				t.Fatal(err)
			}
		}
		// Measure retention of regime A.
		probe := mk(0, 99)
		pred, err := fw.Infer(probe)
		if err != nil {
			t.Fatal(err)
		}
		correct := 0
		for i := range pred {
			if pred[i] == probe.Y[i] {
				correct++
			}
		}
		return float64(correct) / float64(len(pred))
	}
	replayAcc := run(true)
	plainAcc := run(false)
	if replayAcc <= plainAcc {
		t.Errorf("replay retention %v not above plain %v", replayAcc, plainAcc)
	}
}

func TestEWCValidation(t *testing.T) {
	f := factory(t)
	if _, err := NewEWC(f, 4, 2, -1, 4); err == nil {
		t.Error("negative lambda should error")
	}
	if _, err := NewEWC(f, 4, 2, 1, 0); err == nil {
		t.Error("consolidateEvery 0 should error")
	}
}

func TestEWCDampsParameterDrift(t *testing.T) {
	// After consolidation, a flipped regime must move the parameters less
	// under EWC than under plain SGD.
	drift := func(lambda float64) float64 {
		rng := rand.New(rand.NewSource(10))
		fw, err := NewEWC(factory(t), 3, 2, lambda, 4)
		if err != nil {
			t.Fatal(err)
		}
		mk := func(flip bool, seq int) stream.Batch {
			x := make([][]float64, 64)
			y := make([]int, 64)
			for i := range x {
				c := rng.Intn(2)
				x[i] = []float64{float64(c)*2 + rng.NormFloat64()*0.3, rng.NormFloat64() * 0.3, 0}
				if flip {
					y[i] = 1 - c
				} else {
					y[i] = c
				}
			}
			return stream.Batch{Seq: seq, X: x, Y: y}
		}
		for s := 0; s < 16; s++ { // several consolidations
			if err := fw.Train(mk(false, s)); err != nil {
				t.Fatal(err)
			}
		}
		before := flatParams(fw)
		for s := 16; s < 24; s++ {
			if err := fw.Train(mk(true, s)); err != nil {
				t.Fatal(err)
			}
		}
		after := flatParams(fw)
		var d float64
		for i := range before {
			diff := after[i] - before[i]
			d += diff * diff
		}
		return d
	}
	constrained := drift(50)
	free := drift(0)
	if constrained >= free {
		t.Errorf("EWC drift %v not below unconstrained %v", constrained, free)
	}
}

func flatParams(e *EWC) []float64 {
	var out []float64
	for _, p := range e.m.Net().Params() {
		out = append(out, append([]float64(nil), p.W...)...)
	}
	return out
}
