package cl

import (
	"fmt"
	"math/rand"
	"time"

	"chameleon/internal/checkpoint"
	"chameleon/internal/mobilenet"
	"chameleon/internal/nn"
	"chameleon/internal/tensor"
)

// Head wraps a freshly initialised trainable head g(·) with its optimizer and
// exposes the batched training steps the continual learners share. Every
// learner owns its own Head; the frozen extractor is shared via LatentSet.
type Head struct {
	Net *nn.Sequential
	Opt *nn.SGD
	// Classes is the logit width.
	Classes int
	// ws is the head's private tensor pool, threaded through every layer and
	// the optimizer. It makes the steady-state train step and eval batch
	// allocation-free. NewHead attaches it; a struct-literal Head gets it on
	// its first train step and evaluates through allocating paths until then.
	ws *tensor.Workspace
	// start is the first layer the batched walk visits: 1 for GAP-first heads,
	// whose pooling runs inside the packing step, else 0.
	start int
	// params caches Net.Params() — the walk allocates, and ZeroGrad/Step run
	// once per online step.
	params []*nn.Param
	// zsBuf and rowBuf are TrainCEOn's reusable row-assembly scratch.
	zsBuf  []*tensor.Tensor
	rowBuf []nn.LossRow
}

// HeadConfig controls head construction.
type HeadConfig struct {
	// LR is the SGD learning rate (paper: 0.001 at batch 10; the default here
	// is 0.01, re-tuned for the laptop-scale backbone).
	LR float64
	// Momentum is the SGD momentum (default 0).
	Momentum float64
	// WeightDecay is the L2 coefficient (default 0).
	WeightDecay float64
	// Seed drives head initialisation; different seeds = different runs.
	Seed int64
}

// NewHead builds a fresh head matching the backbone's architecture choice.
func NewHead(backbone *mobilenet.Model, cfg HeadConfig) *Head {
	if cfg.LR <= 0 {
		cfg.LR = 0.01
	}
	cfgM := backbone.Cfg
	cfgM.Seed = cfg.Seed
	// Rebuild the full model with the head seed, but keep only its head: this
	// reuses the builder's architecture logic while giving each run an
	// independent initialisation.
	fresh, err := mobilenet.New(cfgM)
	if err != nil {
		// The backbone config was already validated at construction; a
		// failure here is a programming error.
		panic("cl: rebuilding head from validated config failed: " + err.Error())
	}
	opt := nn.NewSGD(cfg.LR)
	opt.Momentum = cfg.Momentum
	opt.WeightDecay = cfg.WeightDecay
	h := &Head{Net: fresh.Head, Opt: opt, Classes: cfgM.NumClasses}
	h.attach()
	h.params = h.Net.Params()
	return h
}

// attach validates that the chain can train batched and gives the head its
// private workspace. NewHead calls it; a struct-literal head gets it on its
// first train step.
func (h *Head) attach() {
	if len(h.Net.Layers) > 0 {
		if _, ok := h.Net.Layers[0].(*nn.GlobalAvgPool2D); ok {
			h.start = 1
		}
	}
	if !h.Net.SupportsBatchTrain(h.start) {
		panic(fmt.Sprintf("cl: head %q has a layer without the batched training protocol; "+
			"conv-tail heads serve the hardware and memory models and cannot be trained", h.Net.Name()))
	}
	h.ws = tensor.NewWorkspace()
	nn.AttachWorkspace(h.Net, h.ws)
	h.Opt.SetWorkspace(h.ws)
}

// Workspace exposes the head's tensor pool (nil for a struct-literal head
// until its first train step). It is single-owner: only the goroutine driving
// this head may touch it.
func (h *Head) Workspace() *tensor.Workspace { return h.ws }

// cachedParams returns the parameter list, walking the layer tree only once.
func (h *Head) cachedParams() []*nn.Param {
	if h.params == nil {
		h.params = h.Net.Params()
	}
	return h.params
}

// Logits runs the head in eval mode.
func (h *Head) Logits(z *tensor.Tensor) *tensor.Tensor { return h.Net.Forward(z, false) }

// Predict returns the argmax class.
func (h *Head) Predict(z *tensor.Tensor) int { return h.Logits(z).ArgMax() }

// Probs returns softmax probabilities.
func (h *Head) Probs(z *tensor.Tensor) *tensor.Tensor { return tensor.Softmax(h.Logits(z)) }

// LogitsBatch runs the head in eval mode over a slice of latents at once,
// returning an [N, Classes] logit matrix borrowed from the head's workspace
// (PredictBatch puts it back; other callers should too). When every layer
// supports the batched protocol the whole pool flows through one GEMM per
// Dense layer; mixed chains (conv tails) fall back to per-sample Forwards
// into the same matrix. Either way each row is bit-identical to Logits on
// that sample: the batched kernels preserve the per-sample accumulation
// order exactly.
func (h *Head) LogitsBatch(zs []*tensor.Tensor) *tensor.Tensor {
	n := len(zs)
	layers := h.Net.Layers
	var x *tensor.Tensor
	start := 0
	if len(layers) > 0 && n > 0 {
		if _, ok := layers[0].(*nn.GlobalAvgPool2D); ok && zs[0].NDim() == 3 {
			x = h.ws.Get(n, zs[0].Dim(0))
			tensor.GlobalAvgPoolRowsInto(x, zs)
			start = 1
		}
	}
	if x == nil {
		if n == 0 || zs[0].NDim() != 1 {
			return h.logitsBatchFallback(zs)
		}
		d := zs[0].Len()
		x = h.ws.Get(n, d)
		xd := x.Data()
		for i, z := range zs {
			copy(xd[i*d:(i+1)*d], z.Data())
		}
	}
	for _, l := range layers[start:] {
		bl, ok := l.(nn.BatchLayer)
		if !ok {
			h.ws.Put(x)
			return h.logitsBatchFallback(zs)
		}
		if y := bl.ForwardBatch(x, h.ws); y != x {
			h.ws.Put(x)
			x = y
		}
	}
	return x
}

// logitsBatchFallback evaluates sample by sample into one output matrix.
func (h *Head) logitsBatchFallback(zs []*tensor.Tensor) *tensor.Tensor {
	out := h.ws.Get(len(zs), h.Classes)
	od := out.Data()
	for i, z := range zs {
		copy(od[i*h.Classes:(i+1)*h.Classes], h.Logits(z).Data())
	}
	return out
}

// PredictBatch classifies zs into out[:len(zs)] via the batched eval path.
func (h *Head) PredictBatch(zs []*tensor.Tensor, out []int) {
	if len(zs) == 0 {
		return
	}
	defer headPredictBatch.ObserveSince(time.Now())
	logits := h.LogitsBatch(zs)
	logits.ArgMaxRowsInto(out[:len(zs)])
	h.ws.Put(logits)
}

// ZeroGrad clears accumulated gradients.
func (h *Head) ZeroGrad() {
	for _, p := range h.cachedParams() {
		p.ZeroGrad()
	}
}

// Step applies the optimizer with gradients scaled by 1/denom (denom ≤ 0 is
// treated as 1), then clears them. With a fused-capable optimizer (NewSGD
// default, no grad clipping) the scale/update/zero triple runs as one sweep
// per parameter; results are bit-identical to the split sequence.
func (h *Head) Step(denom float64) {
	inv := float32(1)
	if denom > 0 && denom != 1 {
		inv = float32(1 / denom)
	}
	for _, p := range h.cachedParams() {
		h.Opt.FusedStepParam(p, inv)
	}
}

// TrainCEOn performs one complete SGD step of averaged cross-entropy over the
// given samples — the common "interleave incoming and replay" update, and
// TrainRows' cross-entropy-only call. Returns the mean loss.
func (h *Head) TrainCEOn(samples []LatentSample) float64 {
	if len(samples) == 0 {
		return 0
	}
	h.zsBuf, h.rowBuf = CERows(h.zsBuf[:0], h.rowBuf[:0], samples)
	n := float64(len(samples))
	return h.TrainRows(h.zsBuf, h.rowBuf, n) / n
}

// CERows appends samples to zs and rows as weight-1 cross-entropy rows, the
// plain "learn these labels" part of a row-wise batch.
func CERows(zs []*tensor.Tensor, rows []nn.LossRow, samples []LatentSample) ([]*tensor.Tensor, []nn.LossRow) {
	for _, s := range samples {
		zs = append(zs, s.Z)
		rows = append(rows, nn.LossRow{Kind: nn.LossCE, Label: s.Label, Weight: 1})
	}
	return zs, rows
}

// TrainRows performs one complete SGD step over a batch whose rows carry
// their own losses: latent zs[i] is scored by rows[i] (nn.LossRowsInto), the
// summed gradient is scaled by 1/denom as Step scales it, and the update
// folds into the batched backward. Returns the summed weighted loss.
func (h *Head) TrainRows(zs []*tensor.Tensor, rows []nn.LossRow, denom float64) float64 {
	if len(zs) == 0 {
		return 0
	}
	defer observeTrainStep(time.Now(), len(zs))
	trainStepBatched.Add(1)
	h.ZeroGrad()
	return h.rows(zs, rows, h.Opt, denom)
}

// AccumulateRows adds the gradient of the same row-wise batch to the
// parameter gradients without stepping, for learners that read or adjust the
// gradients before calling Step. Returns the summed weighted loss.
func (h *Head) AccumulateRows(zs []*tensor.Tensor, rows []nn.LossRow) float64 {
	if len(zs) == 0 {
		return 0
	}
	return h.rows(zs, rows, nil, 1)
}

// rows packs zs and runs the shared training core; a nil opt accumulates.
func (h *Head) rows(zs []*tensor.Tensor, rows []nn.LossRow, opt *nn.SGD, denom float64) float64 {
	if h.ws == nil {
		h.attach()
	}
	return trainRowsOn(h.Net, opt, h.ws, h.pack(zs), h.start, rows, denom)
}

// Params returns the head's trainable parameters.
func (h *Head) Params() []*nn.Param { return h.cachedParams() }

// Snapshot deep-copies the current parameter values (for LwF teachers, EWC
// anchors, ...). The returned tensors are ordered like Params.
func (h *Head) Snapshot() []*tensor.Tensor {
	ps := h.Params()
	out := make([]*tensor.Tensor, len(ps))
	for i, p := range ps {
		out[i] = p.Data.Clone()
	}
	return out
}

// Restore loads parameter values captured by Snapshot.
func (h *Head) Restore(snap []*tensor.Tensor) {
	ps := h.Params()
	for i, p := range ps {
		p.Data.CopyFrom(snap[i])
	}
}

// HeadState is the complete trainable state of a Head: parameter values plus
// the optimizer's momentum buffers (Velocity is nil when no momentum state
// has accumulated). Both slices are ordered like Params, so the state is
// positional and survives serialization.
type HeadState struct {
	Params   []*tensor.Tensor
	Velocity []*tensor.Tensor
}

// State deep-copies the head's full trainable state for checkpointing.
// Unlike Snapshot it includes the optimizer's momentum, which changes the
// next update — resuming without it would diverge from the uninterrupted run.
func (h *Head) State() HeadState {
	return HeadState{Params: h.Snapshot(), Velocity: h.Opt.VelocitySnapshot(h.Net)}
}

// SetState restores state captured by State against an identically shaped
// head. All shapes are validated before any parameter is touched.
func (h *Head) SetState(st HeadState) error {
	ps := h.Params()
	if len(st.Params) != len(ps) {
		return fmt.Errorf("cl: head state has %d param tensors, head has %d", len(st.Params), len(ps))
	}
	for i, p := range ps {
		if st.Params[i] == nil || !st.Params[i].SameShape(p.Data) {
			return fmt.Errorf("cl: head state param %d does not match shape %v", i, p.Data.Shape())
		}
	}
	if err := h.Opt.SetVelocitySnapshot(h.Net, st.Velocity); err != nil {
		return err
	}
	for i, p := range ps {
		p.Data.CopyFrom(st.Params[i])
	}
	return nil
}

// RNG derives a deterministic RNG stream for learner-internal randomness.
func RNG(seed int64, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + salt))
}

// RNGSource is RNG with a checkpointable source: the returned rand.Rand draws
// from the counting Source, whose position can be saved and fast-forwarded on
// resume. The seed derivation (and therefore the bit stream) is identical to
// RNG's.
func RNGSource(seed int64, salt int64) (*rand.Rand, *checkpoint.Source) {
	src := checkpoint.NewSource(seed*1_000_003 + salt)
	return rand.New(src), src
}
