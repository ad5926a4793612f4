package cl

import (
	"testing"

	"chameleon/internal/parallel"
	"chameleon/internal/race"
	"chameleon/internal/tensor"
)

// allocEnv builds a trained head plus a latent batch and test pool, with the
// worker pool pinned to 1 (the steady-state pin is a single-goroutine
// property; the sharded kernels' parallel branch necessarily allocates its
// closure and is gated off at workers <= 1).
func allocEnv(t *testing.T) (*Head, []LatentSample, []*tensor.Tensor) {
	t.Helper()
	if race.Enabled {
		t.Skip("allocation pins are measured without -race instrumentation")
	}
	parallel.SetWorkers(1)
	t.Cleanup(func() { parallel.SetWorkers(0) })
	set := testEnv(t)
	h := NewHead(set.Backbone, HeadConfig{Seed: 5})
	batch := set.Train[:8]
	zs := make([]*tensor.Tensor, len(set.Test))
	for i, s := range set.Test {
		zs[i] = s.Z
	}
	// Warm-up: first pass populates every workspace bucket and layer scratch.
	h.TrainCEOn(batch)
	out := make([]int, len(zs))
	h.PredictBatch(zs, out)
	h.Predict(zs[0])
	return h, batch, zs
}

// TestAllocsTrainStep pins the tentpole guarantee: one online SGD step over a
// replay-sized batch performs zero heap allocations after warm-up.
func TestAllocsTrainStep(t *testing.T) {
	h, batch, _ := allocEnv(t)
	got := testing.AllocsPerRun(50, func() { h.TrainCEOn(batch) })
	if got != 0 {
		t.Fatalf("TrainCEOn allocates %.0f times/op, want 0", got)
	}
}

// TestAllocsTrainBatched pins the batched training core explicitly: the
// steady-state step — GAP pack, one GEMM per Dense forward, row-wise
// cross-entropy, batched backward with the fused update — performs zero heap
// allocations, and the step really does take the batched core (the counter
// advances).
func TestAllocsTrainBatched(t *testing.T) {
	h, batch, _ := allocEnv(t)
	before := trainStepBatched.Value()
	got := testing.AllocsPerRun(50, func() { h.TrainCEOn(batch) })
	if trainStepBatched.Value() == before {
		t.Fatal("batched path never engaged")
	}
	if got != 0 {
		t.Fatalf("batched TrainCEOn allocates %.0f times/op, want 0", got)
	}
}

// TestAllocsTrainRows pins the mixed-loss step at the same standard: a
// DER-shaped TrainRows (incoming CE rows, α·MSE rows against stored logits,
// β·CE rows) allocates nothing after warm-up.
func TestAllocsTrainRows(t *testing.T) {
	h, batch, _ := allocEnv(t)
	zs, rows, denom := derRows(h, batch)
	h.TrainRows(zs, rows, denom)
	got := testing.AllocsPerRun(50, func() { h.TrainRows(zs, rows, denom) })
	if got != 0 {
		t.Fatalf("DER-shaped TrainRows allocates %.0f times/op, want 0", got)
	}
}

// TestAllocsEvalBatch pins the batched-evaluation half: classifying the whole
// test pool through PredictBatch allocates nothing after warm-up.
func TestAllocsEvalBatch(t *testing.T) {
	h, _, zs := allocEnv(t)
	out := make([]int, len(zs))
	got := testing.AllocsPerRun(50, func() { h.PredictBatch(zs, out) })
	if got != 0 {
		t.Fatalf("PredictBatch allocates %.0f times/op, want 0", got)
	}
}

// TestAllocsPredict pins the single-sample path a pooled head uses inside
// Observe-time scoring.
func TestAllocsPredict(t *testing.T) {
	h, _, zs := allocEnv(t)
	got := testing.AllocsPerRun(100, func() { h.Predict(zs[0]) })
	if got != 0 {
		t.Fatalf("Predict allocates %.0f times/op, want 0", got)
	}
}
