package cl

import (
	"fmt"
	"math"
	"testing"

	"chameleon/internal/mobilenet"
	"chameleon/internal/nn"
	"chameleon/internal/parallel"
	"chameleon/internal/tensor"
)

// trainChunks slices samples into batches of size b (last one may be short).
func trainChunks(samples []LatentSample, b int) [][]LatentSample {
	var out [][]LatentSample
	for lo := 0; lo < len(samples); lo += b {
		hi := lo + b
		if hi > len(samples) {
			hi = len(samples)
		}
		out = append(out, samples[lo:hi])
	}
	return out
}

// maxParamDiff returns the largest absolute element-wise parameter difference
// between two heads.
func maxParamDiff(a, b *Head) float64 {
	pa, pb := a.Params(), b.Params()
	var max float64
	for i := range pa {
		da, db := pa[i].Data.Data(), pb[i].Data.Data()
		for j := range da {
			if d := math.Abs(float64(da[j]) - float64(db[j])); d > max {
				max = d
			}
		}
	}
	return max
}

// paramsEqual reports bit-exact parameter equality between two heads.
func paramsEqual(a, b *Head) bool {
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		da, db := pa[i].Data.Data(), pb[i].Data.Data()
		for j := range da {
			if da[j] != db[j] {
				return false
			}
		}
	}
	return true
}

// perSampleRows is the per-sample reference for the batched training core:
// one train-mode Forward per row, the row's 1-D loss kernel, the weight
// applied as LossRowsInto documents it (CE and MSE rows scale by Weight when
// it is not 1, soft rows always by Weight·T²) and one Backward, accumulating
// into the parameter gradients. Returns the summed weighted loss.
func perSampleRows[T tensor.Float](net *nn.SequentialOf[T], zs []*tensor.Of[T], rows []nn.LossRowOf[T]) float64 {
	var loss float64
	for i, z := range zs {
		logits := net.Forward(z, true)
		g := tensor.NewOf[T](logits.Len())
		row := rows[i]
		switch row.Kind {
		case nn.LossCE:
			l := nn.CrossEntropyInto(logits, row.Label, g)
			if row.Weight != 1 {
				g.Scale(T(row.Weight))
			}
			loss += l * row.Weight
		case nn.LossSoft:
			target := tensor.FromSlice(row.Target, len(row.Target))
			l := nn.SoftCrossEntropyInto(logits, target, row.Temperature, g, tensor.NewOf[T](logits.Len()))
			s := row.Weight * row.Temperature * row.Temperature
			g.Scale(T(s))
			loss += l * s
		case nn.LossMSE:
			l := nn.MSELogitsInto(logits, tensor.FromSlice(row.Target, len(row.Target)), g)
			if row.Weight != 1 {
				g.Scale(T(row.Weight))
			}
			loss += l * row.Weight
		}
		net.Backward(g)
	}
	return loss
}

// perSampleCE is the per-sample reference for TrainCEOn: Forward,
// CrossEntropyInto and Backward per sample, then one Head.Step over the
// accumulated gradient. Returns the mean loss.
func perSampleCE(h *Head, samples []LatentSample) float64 {
	h.ZeroGrad()
	zs, rows := CERows(nil, nil, samples)
	loss := perSampleRows(h.Net, zs, rows)
	h.Step(float64(len(samples)))
	return loss / float64(len(samples))
}

// TestTrainBatchedMatchesPerSampleFP32 is the fast-tier equivalence contract:
// the batched training core must track the per-sample reference loop within
// fp32 rounding tolerance (the batched forward GEMM accumulates through a
// strictly serial chain while the per-sample GEMV reassociates four-way, so
// bit-identity is not expected — closeness and matching decisions are), across
// optimizer configurations, worker counts and chunk sizes down to B=1.
func TestTrainBatchedMatchesPerSampleFP32(t *testing.T) {
	defer parallel.SetWorkers(0)
	set := testEnv(t)
	configs := []struct {
		name     string
		cfg      HeadConfig
		gradClip float64
	}{
		{name: "plain", cfg: HeadConfig{Seed: 3}},
		{name: "momentum", cfg: HeadConfig{Seed: 3, Momentum: 0.9}},
		{name: "weight-decay", cfg: HeadConfig{Seed: 3, WeightDecay: 1e-4}},
		{name: "grad-clip-split", cfg: HeadConfig{Seed: 3}, gradClip: 1},
	}
	for _, w := range []int{1, 8} {
		parallel.SetWorkers(w)
		for _, b := range []int{8, 1} {
			for _, tc := range configs {
				hb := NewHead(set.Backbone, tc.cfg)
				hs := NewHead(set.Backbone, tc.cfg)
				hb.Opt.GradClip = tc.gradClip
				hs.Opt.GradClip = tc.gradClip
				before := trainStepBatched.Value()
				for step, batch := range trainChunks(set.Train, b) {
					lb := hb.TrainCEOn(batch)
					ls := perSampleCE(hs, batch)
					if d := math.Abs(lb - ls); d > 1e-3 {
						t.Fatalf("workers=%d B=%d %s step %d: batched loss %.6f vs per-sample %.6f (|Δ| %.2e)",
							w, b, tc.name, step, lb, ls, d)
					}
				}
				if trainStepBatched.Value() == before {
					t.Fatalf("workers=%d B=%d %s: batched path never engaged", w, b, tc.name)
				}
				requireHeadsClose(t, set, hb, hs, fmt.Sprintf("workers=%d B=%d %s", w, b, tc.name))
			}
		}
	}
}

// requireHeadsClose applies the fast-tier tolerance: parameters within 5e-3
// and at most one test prediction flipped.
func requireHeadsClose(t *testing.T, set *LatentSet, hb, hs *Head, name string) {
	t.Helper()
	if d := maxParamDiff(hb, hs); d > 5e-3 {
		t.Errorf("%s: max param diff %.2e after training", name, d)
	}
	flips := 0
	for _, s := range set.Test {
		if hb.Predict(s.Z) != hs.Predict(s.Z) {
			flips++
		}
	}
	if flips > 1 {
		t.Errorf("%s: %d/%d test predictions differ between paths", name, flips, len(set.Test))
	}
}

// TestTrainBatchedSingleSampleBitIdentical pins single-sample (B=1) steps,
// which now take the batched core like any other batch size. In fp64 a B=1
// batched step must land bit-identical to the per-sample reference loop (no
// fp32 GEMV reassociation to excuse a difference); in fp32 a B=1 step must be
// bit-identical at every worker count, since a one-row batch has nothing to
// split across workers.
func TestTrainBatchedSingleSampleBitIdentical(t *testing.T) {
	defer parallel.SetWorkers(0)
	set := testEnv(t)
	for _, w := range []int{1, 8} {
		parallel.SetWorkers(w)
		h := NewHead(set.Backbone, HeadConfig{Seed: 4, Momentum: 0.9})
		serial, err := NewRef64(h)
		if err != nil {
			t.Fatal(err)
		}
		batched, err := NewRef64(h)
		if err != nil {
			t.Fatal(err)
		}
		batched.Batched = true
		for i, s := range set.Train[:16] {
			one := LatentBatch{Samples: []LatentSample{s}}
			serial.Observe(one)
			batched.Observe(one)
			if !ref64ParamsEqual(serial, batched) {
				t.Fatalf("workers=%d: fp64 B=1 step %d diverges from the per-sample loop", w, i)
			}
		}
	}

	heads := make([]*Head, 2)
	losses := make([][]float64, 2)
	for k, w := range []int{1, 8} {
		parallel.SetWorkers(w)
		heads[k] = NewHead(set.Backbone, HeadConfig{Seed: 4})
		before := trainStepBatched.Value()
		for _, s := range set.Train[:16] {
			losses[k] = append(losses[k], heads[k].TrainCEOn([]LatentSample{s}))
		}
		if got := trainStepBatched.Value() - before; got != 16 {
			t.Fatalf("workers=%d: %d of 16 B=1 steps took the batched core", w, got)
		}
	}
	for i := range losses[0] {
		if losses[0][i] != losses[1][i] {
			t.Fatalf("B=1 step %d loss differs between workers 1 and 8: %v vs %v", i, losses[0][i], losses[1][i])
		}
	}
	if !paramsEqual(heads[0], heads[1]) {
		t.Fatal("B=1 training diverged bitwise between workers 1 and 8")
	}
}

// TestTrainBatchedEmptyAndRagged covers the remaining packing edge cases:
// empty batches are no-ops, and latents whose spatial extents differ (same
// channel count) still pack through the pooling kernel.
func TestTrainBatchedEmptyAndRagged(t *testing.T) {
	set := testEnv(t)
	hb := NewHead(set.Backbone, HeadConfig{Seed: 6})
	hs := NewHead(set.Backbone, HeadConfig{Seed: 6})
	if loss := hb.TrainCEOn(nil); loss != 0 {
		t.Fatalf("empty batch loss = %v, want 0", loss)
	}
	if loss := hb.TrainCEOn([]LatentSample{}); loss != 0 {
		t.Fatalf("empty batch loss = %v, want 0", loss)
	}
	// Reshape alternate latents from [C,H,W] to [C,H*W,1]: the same data pools
	// to the same mean, but the batch is now spatially ragged.
	ragged := make([]LatentSample, 8)
	for i, s := range set.Train[:8] {
		ragged[i] = s
		if i%2 == 1 {
			c, h, w := s.Z.Dim(0), s.Z.Dim(1), s.Z.Dim(2)
			z := tensor.New(c, h*w, 1)
			copy(z.Data(), s.Z.Data())
			ragged[i].Z = z
		}
	}
	before := trainStepBatched.Value()
	lb := hb.TrainCEOn(ragged)
	ls := perSampleCE(hs, ragged)
	if trainStepBatched.Value() == before {
		t.Fatal("ragged-spatial batch did not take the batched path")
	}
	if d := math.Abs(lb - ls); d > 1e-3 {
		t.Fatalf("ragged batch losses diverge: %.6f vs %.6f", lb, ls)
	}
	if d := maxParamDiff(hb, hs); d > 5e-3 {
		t.Errorf("ragged batch: max param diff %.2e", d)
	}
}

// TestTrainBatchedStructLiteralHead pins the lazy workspace: a struct-literal
// head (no workspace until its first train step) and a NewHead twin built from
// the same seed must land bit-identical.
func TestTrainBatchedStructLiteralHead(t *testing.T) {
	set := testEnv(t)
	cfg := HeadConfig{LR: 0.05, Momentum: 0.5, Seed: 42}
	twin := NewHead(set.Backbone, cfg)
	mcfg := set.Backbone.Cfg
	mcfg.Seed = cfg.Seed
	fresh, err := mobilenet.New(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	opt := nn.NewSGD(cfg.LR)
	opt.Momentum = cfg.Momentum
	lit := &Head{Net: fresh.Head, Opt: opt, Classes: mcfg.NumClasses}
	if lit.Workspace() != nil {
		t.Fatal("struct-literal head has a workspace before training")
	}
	for _, batch := range trainChunks(set.Train, 4) {
		if ll, lt := lit.TrainCEOn(batch), twin.TrainCEOn(batch); ll != lt {
			t.Fatalf("struct-literal head loss %v vs NewHead twin %v", ll, lt)
		}
	}
	if lit.Workspace() == nil {
		t.Fatal("struct-literal head never got its workspace")
	}
	if !paramsEqual(lit, twin) {
		t.Fatal("struct-literal head diverged from its NewHead twin")
	}
}

// TestTrainBatchedCheckpointResume pins determinism across a mid-run
// State/SetState round trip: resuming a batched run and continuing must land
// bit-identical to the uninterrupted run.
func TestTrainBatchedCheckpointResume(t *testing.T) {
	set := testEnv(t)
	a := NewHead(set.Backbone, HeadConfig{Seed: 17, Momentum: 0.5})
	batches := trainChunks(set.Train, 8)
	for _, b := range batches[:2] {
		a.TrainCEOn(b)
	}
	snap := a.State()
	for _, b := range batches[2:] {
		a.TrainCEOn(b)
	}
	resumed := NewHead(set.Backbone, HeadConfig{Seed: 17, Momentum: 0.5})
	if err := resumed.SetState(snap); err != nil {
		t.Fatal(err)
	}
	for _, b := range batches[2:] {
		resumed.TrainCEOn(b)
	}
	if !paramsEqual(a, resumed) {
		t.Fatal("resumed batched run diverged from the uninterrupted run")
	}
	for _, s := range set.Test {
		if a.Predict(s.Z) != resumed.Predict(s.Z) {
			t.Fatal("resumed batched run predicts differently")
		}
	}
}

// ref64ParamsEqual compares two reference-tier learners bit for bit.
func ref64ParamsEqual(a, b *Ref64) bool {
	pa, pb := a.Net.Params(), b.Net.Params()
	for i := range pa {
		da, db := pa[i].Data.Data(), pb[i].Data.Data()
		for j := range da {
			if da[j] != db[j] {
				return false
			}
		}
	}
	return true
}

// TestRef64BatchedBitIdentity is the reference-tier contract: the fp64 batched
// path accumulates every parameter-gradient element over samples in the same
// ascending stream order as the per-sample loop, so a batched Ref64 must stay
// bit-identical to a per-sample Ref64 — at every worker count, with and
// without momentum.
func TestRef64BatchedBitIdentity(t *testing.T) {
	defer parallel.SetWorkers(0)
	set := testEnv(t)
	for _, w := range []int{1, 8} {
		for _, mom := range []float64{0, 0.9} {
			parallel.SetWorkers(w)
			h := NewHead(set.Backbone, HeadConfig{Seed: 7, Momentum: mom})
			serial, err := NewRef64(h)
			if err != nil {
				t.Fatal(err)
			}
			batched, err := NewRef64(h)
			if err != nil {
				t.Fatal(err)
			}
			batched.Batched = true
			if !batched.Net.SupportsBatchTrain(1) {
				t.Fatal("widened test head does not support the batched protocol")
			}
			for step, b := range trainChunks(set.Train, 8) {
				serial.Observe(LatentBatch{Samples: b})
				batched.Observe(LatentBatch{Samples: b})
				if !ref64ParamsEqual(serial, batched) {
					t.Fatalf("workers=%d momentum=%v: fp64 params diverge after step %d", w, mom, step)
				}
			}
			for i, s := range set.Test {
				if serial.Predict(s.Z) != batched.Predict(s.Z) {
					t.Fatalf("workers=%d momentum=%v: fp64 prediction %d diverges", w, mom, i)
				}
			}
		}
	}
}
