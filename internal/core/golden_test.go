package core

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"freewayml/internal/datasets"
	"freewayml/internal/linalg"
	"freewayml/internal/nn"
	"freewayml/internal/stream"
)

// goldenDecisionHash drives one learn_drift stream (the benchmark's dataset,
// batch 256, default config, Infer then Process per batch, full schedule)
// and returns an FNV-1a hash over the bits of every prediction either call
// returned and of every probability behind it.
func goldenDecisionHash(t *testing.T, dataset string, seed int64, watchdog bool) uint64 {
	t.Helper()
	src, err := datasets.Build(dataset, 256, seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Watchdog.Disabled = !watchdog
	l, err := NewLearner(cfg, src.Dim(), src.Classes())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	h := fnv.New64a()
	var word [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	// The probabilities are class-major views; the hash folds them row by row,
	// as it was recorded.
	fold := func(pred []int, proba *linalg.Tensor) {
		for _, p := range pred {
			put(uint64(p))
		}
		if proba == nil {
			return
		}
		for _, row := range proba.TransposeToRows() {
			for _, v := range row {
				put(math.Float64bits(v))
			}
		}
	}
	ctx := context.Background()
	var ws nn.Workspace
	for _, b := range stream.Collect(src, 0) {
		snap := l.ModelSnapshot()
		inf, err := l.Infer(ctx, b.X)
		if err != nil {
			t.Fatal(err)
		}
		// Infer answers with labels; the distributions behind them are its
		// snapshot's, fused again into a workspace the test holds.
		ws.Reset()
		fused, err := snap.InferInto(&ws, b.X)
		if err != nil {
			t.Fatal(err)
		}
		fold(inf.Pred, fused.Proba)
		res, err := l.Process(ctx, b)
		if err != nil {
			t.Fatal(err)
		}
		fold(res.Pred, res.proba)
	}
	return h.Sum64()
}

// TestGoldenDecisionBits pins the f64 compute plane bit for bit. Every
// constant but one was recorded at commit 47c30b5 — before forward reuse,
// in-place activations, the transpose-free head gradient, the 4-deep
// leftover-row kernel and the gob-free watchdog — and every later change to
// linalg/nn/model/strategy must reproduce them. CI runs it at -cpu 1,2,4: the
// GEMM fan-out partition depends on GOMAXPROCS and must never change a bit.
//
// The exception is Hyperplane with the watchdog on. Its short model sits in a
// loss-explosion rollback loop for half the schedule (73 rollbacks), at least
// one of which directly follows a knowledge adoption: 47c30b5 rolled that back to
// the pre-adoption weights (0xbc4d5df2f7716c60, which this tree reproduces
// with the one Retain call in Ensemble.AdoptShort removed), the fixed
// watchdog returns to the adopted ones. That is an intended learning change,
// so the stream carries the fixed tree's constant, and its parent constant
// with the watchdog off stands in for the compute plane.
func TestGoldenDecisionBits(t *testing.T) {
	// Stream i of benchmark seed 1 uses generator seed 1000·1 + i.
	for _, tc := range []struct {
		dataset  string
		stream   int64
		watchdog bool
		want     uint64
	}{
		{"Hyperplane", 0, true, 0x540b4246f89c4364}, // 47c30b5: 0xbc4d5df2f7716c60, see above
		{"Hyperplane", 0, false, 0x5da401657ed9e9bb},
		{"Covertype", 1, true, 0x817ab687cc72b484},
		{"NSL-KDD", 2, true, 0x4e8efe557c14d67d},
		{"Electricity", 3, true, 0x2390d1df59d44157},
	} {
		if got := goldenDecisionHash(t, tc.dataset, 1000+tc.stream, tc.watchdog); got != tc.want {
			t.Errorf("%s (watchdog %v): decision hash %#016x, want %#016x", tc.dataset, tc.watchdog, got, tc.want)
		}
	}
}
