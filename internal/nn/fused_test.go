package nn

import (
	"math/rand"
	"testing"

	"chameleon/internal/tensor"
)

// fusedTestNet builds a small head covering every layer of the batched fused
// fold: Flatten and ReLU (parameter-free pass-throughs), Dropout (the kept
// mask must scale the gradient identically on both paths) and two Dense
// layers (the fully folded update sweep, with and without an input gradient).
func fusedTestNet(seed int64) *Sequential {
	rng := rand.New(rand.NewSource(seed))
	return NewSequential("fused-test",
		NewFlatten(),
		NewDense("fc1", 6, 8, rng),
		NewReLU(),
		NewDropout(0.25, seed+1),
		NewDense("fc2", 8, 3, rng),
	)
}

// widenFusedTestNet is fusedTestNet on the reference tier. WidenLayer refuses
// stateful Dropout, so the widened chain gets a float64 dropout seeded like
// the fast-tier one.
func widenFusedTestNet(t *testing.T, seed int64) *SequentialOf[float64] {
	t.Helper()
	net := fusedTestNet(seed)
	net.Layers[3] = NewDropout(0, 0)
	w, err := WidenLayer(net)
	if err != nil {
		t.Fatalf("WidenLayer: %v", err)
	}
	wide := w.(*SequentialOf[float64])
	wide.Layers[3] = &DropoutOf[float64]{P: 0.25, rng: rand.New(rand.NewSource(seed + 1))}
	return wide
}

// fusedTestInputs returns a deterministic four-sample batch as packed [N, 6]
// rows with their cross-entropy loss rows.
func fusedTestInputs[T tensor.Float]() (x []T, rows []LossRowOf[T]) {
	rng := rand.New(rand.NewSource(99))
	for s := 0; s < 4; s++ {
		for i := 0; i < 6; i++ {
			x = append(x, T(rng.NormFloat64()))
		}
		rows = append(rows, LossRowOf[T]{Kind: LossCE, Label: s % 3, Weight: 1})
	}
	return x, rows
}

// runTrainSteps drives `steps` batched cross-entropy steps through
// ForwardBatchTrain → LossRowsInto → BackwardSGDBatchFrom, the walk every
// head trains through; opt.Fused selects the folded update or the split
// Scale + StepParam + ZeroGrad sequence.
func runTrainSteps[T tensor.Float](t *testing.T, net *SequentialOf[T], opt *SGDOf[T], steps int) {
	t.Helper()
	ws := tensor.NewWorkspaceOf[T]()
	AttachWorkspaceOf(net, ws)
	opt.SetWorkspace(ws)
	data, rows := fusedTestInputs[T]()
	inv := T(1) / T(len(rows))
	for s := 0; s < steps; s++ {
		ZeroGradsOf[T](net)
		x := ws.Get(len(rows), 6)
		copy(x.Data(), data)
		logits := net.ForwardBatchTrain(x, 0, ws)
		LossRowsInto(logits, rows, logits, ws)
		net.BackwardSGDBatchFrom(logits, 0, opt, inv, ws)
	}
}

// requireParamsEqual asserts bitwise equality of every weight.
func requireParamsEqual[T tensor.Float](t *testing.T, split, fused *SequentialOf[T]) {
	t.Helper()
	sp, fp := split.Params(), fused.Params()
	if len(sp) != len(fp) {
		t.Fatalf("param count mismatch: %d vs %d", len(sp), len(fp))
	}
	for i := range sp {
		sd, fd := sp[i].Data.Data(), fp[i].Data.Data()
		for j := range sd {
			if sd[j] != fd[j] {
				t.Fatalf("param %s[%d]: split %v, fused %v (not bit-identical)",
					sp[i].Name, j, sd[j], fd[j])
			}
		}
	}
}

// TestFusedStepBitIdentityF32 checks that the batched fused backward+update
// fold produces bit-identical weights to the split path on the fast tier,
// across optimizer configurations that exercise every branch of the fused
// kernel.
func TestFusedStepBitIdentityF32(t *testing.T) {
	for _, cfg := range []struct {
		name            string
		momentum, decay float64
	}{
		{"plain", 0, 0},
		{"momentum", 0.9, 0},
		{"momentum+decay", 0.9, 1e-4},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			split, fusedNet := fusedTestNet(7), fusedTestNet(7)
			mkOpt := func(fused bool) *SGD {
				o := NewSGD(0.05)
				o.Momentum = cfg.momentum
				o.WeightDecay = cfg.decay
				o.Fused = fused
				return o
			}
			runTrainSteps(t, split, mkOpt(false), 5)
			runTrainSteps(t, fusedNet, mkOpt(true), 5)
			requireParamsEqual(t, split, fusedNet)
		})
	}
}

// TestFusedStepBitIdentityF64 is the same check on the reference tier, with
// the nets built by widening identically seeded fast-tier models (which also
// exercises WidenLayer).
func TestFusedStepBitIdentityF64(t *testing.T) {
	split, fusedNet := widenFusedTestNet(t, 7), widenFusedTestNet(t, 7)
	mkOpt := func(fused bool) *SGDOf[float64] {
		o := NewSGDOf[float64](0.05)
		o.Momentum = 0.9
		o.WeightDecay = 1e-4
		o.Fused = fused
		return o
	}
	runTrainSteps(t, split, mkOpt(false), 5)
	runTrainSteps(t, fusedNet, mkOpt(true), 5)
	requireParamsEqual(t, split, fusedNet)
}

// TestFusedGradClipFallback checks that a clipping optimizer with Fused set
// still matches the split path (the batched walk must fall back — clipping
// needs a global norm).
func TestFusedGradClipFallback(t *testing.T) {
	split, fusedNet := fusedTestNet(3), fusedTestNet(3)
	mkOpt := func(fused bool) *SGD {
		o := NewSGD(0.5) // large LR so clipping actually triggers
		o.Momentum = 0.9
		o.GradClip = 1e-3
		o.Fused = fused
		return o
	}
	runTrainSteps(t, split, mkOpt(false), 4)
	runTrainSteps(t, fusedNet, mkOpt(true), 4)
	requireParamsEqual(t, split, fusedNet)
}

// benchStepNet is a head-sized model for the step benchmark (latent width 256
// into 100 classes, matching the CIFAR-100 head shape).
func benchStepNet(seed int64) *Sequential {
	rng := rand.New(rand.NewSource(seed))
	return NewSequential("bench", NewDense("fc", 256, 100, rng))
}

// BenchmarkFusedVsSplitStep measures one batched cross-entropy train step
// (forward + backward + SGD update over 10 samples) through the split and
// fused update paths.
func BenchmarkFusedVsSplitStep(b *testing.B) {
	for _, fused := range []bool{false, true} {
		name := "split"
		if fused {
			name = "fused"
		}
		b.Run(name, func(b *testing.B) {
			net := benchStepNet(1)
			ws := tensor.NewWorkspace()
			AttachWorkspace(net, ws)
			opt := NewSGD(0.01)
			opt.Momentum = 0.9
			opt.Fused = fused
			opt.SetWorkspace(ws)
			const n = 10
			rng := rand.New(rand.NewSource(2))
			data := make([]float32, n*256)
			for i := range data {
				data[i] = float32(rng.NormFloat64())
			}
			rows := make([]LossRow, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for r := range rows {
					rows[r] = LossRow{Kind: LossCE, Label: (i + r) % 100, Weight: 1}
				}
				x := ws.Get(n, 256)
				copy(x.Data(), data)
				logits := net.ForwardBatchTrain(x, 0, ws)
				LossRowsInto(logits, rows, logits, ws)
				net.BackwardSGDBatchFrom(logits, 0, opt, 1.0/n, ws)
			}
		})
	}
}
