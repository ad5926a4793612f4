package cl

import (
	"fmt"

	"chameleon/internal/nn"
	"chameleon/internal/tensor"
)

// Ref64 is the float64 reference-tier learner: a finetune-style head trained
// in double precision on the same latent stream the fast tier sees. It exists
// to bound the fast tier's accumulated rounding error — the fp32 kernels are
// the product, the fp64 run is the measuring stick (chameleon-train
// -precision fp64 -method finetune). Like every learner it is single-owner:
// Observe and Predict run on the trainer goroutine only.
type Ref64 struct {
	Net *nn.SequentialOf[float64]
	Opt *nn.SGDOf[float64]
	// Classes is the logit width.
	Classes int
	ws      *tensor.WorkspaceOf[float64]
	zBuf    *tensor.Tensor64 // widened-latent scratch
	grad    *tensor.Tensor64 // logit-gradient scratch
	params  []*nn.ParamOf[float64]
	// Batched opts the reference tier into the batched training core through
	// the same serial float64 kernels. Off by default — the per-sample loop is
	// the auditable reference, the only one in the tree — and when on, every
	// step is bit-identical to the per-sample run: each parameter-gradient
	// element accumulates over samples in ascending stream order either way.
	Batched bool
	// rowBuf is reusable loss-row scratch for the batched path.
	rowBuf []nn.LossRowOf[float64]
}

// NewRef64 widens a fast-tier head into an independent float64 learner. The
// widened net starts from bit-exact copies of the head's current weights (an
// fp32 value is exactly representable in fp64), so a fresh head yields a
// fresh reference run with the same initialisation. Heads whose net cannot be
// widened (stateful Dropout) are rejected.
func NewRef64(h *Head) (*Ref64, error) {
	wide, err := nn.WidenLayer(h.Net)
	if err != nil {
		return nil, fmt.Errorf("cl: widening head for the fp64 reference tier: %w", err)
	}
	net, ok := wide.(*nn.SequentialOf[float64])
	if !ok {
		return nil, fmt.Errorf("cl: widened head is %T, want sequential", wide)
	}
	opt := nn.NewSGDOf[float64](h.Opt.LR)
	opt.Momentum = h.Opt.Momentum
	opt.WeightDecay = h.Opt.WeightDecay
	opt.GradClip = h.Opt.GradClip
	// The reference tier deliberately runs the split (scale → step → zero)
	// update path: it is the measuring stick, not the product, so it favours
	// the straightforward kernels. Since split and fused are bit-identical
	// (TestFusedStepBitIdentity*), this also makes the fp32↔fp64 parity test a
	// cross-check of the fused fold rather than fused-vs-fused. The
	// per-sample loop in Observe always steps split; the Batched path honours
	// this setting.
	opt.Fused = false
	r := &Ref64{Net: net, Opt: opt, Classes: h.Classes, ws: tensor.NewWorkspaceOf[float64]()}
	nn.AttachWorkspaceOf(r.Net, r.ws)
	opt.SetWorkspace(r.ws)
	r.params = r.Net.Params()
	return r, nil
}

// Name implements Learner.
func (r *Ref64) Name() string { return "finetune-fp64" }

// widen copies a fast-tier latent into the reusable float64 scratch.
func (r *Ref64) widen(z *tensor.Tensor) *tensor.Tensor64 {
	if r.zBuf == nil || r.zBuf.Len() != z.Len() {
		r.zBuf = tensor.NewOf[float64](z.Shape()...)
	}
	zd, wd := z.Data(), r.zBuf.Data()
	for i, v := range zd {
		wd[i] = float64(v)
	}
	return r.zBuf
}

// Observe implements Learner: one averaged cross-entropy step over the batch
// through the double-precision kernels — per sample, then one split update,
// unless Batched.
func (r *Ref64) Observe(b LatentBatch) {
	n := len(b.Samples)
	if n == 0 {
		return
	}
	for _, p := range r.params {
		p.ZeroGrad()
	}
	if r.Batched {
		r.observeBatched(b.Samples)
		return
	}
	for _, s := range b.Samples {
		logits := r.Net.Forward(r.widen(s.Z), true)
		if r.grad == nil || r.grad.Len() != logits.Len() {
			r.grad = tensor.NewOf[float64](logits.Len())
		}
		nn.CrossEntropyInto(logits, s.Label, r.grad)
		r.Net.Backward(r.grad)
	}
	inv := 1 / float64(n)
	for _, p := range r.params {
		if n > 1 {
			p.Grad.Scale(inv)
		}
		r.Opt.StepParam(p)
		p.ZeroGrad()
	}
}

// Predict implements Learner.
func (r *Ref64) Predict(z *tensor.Tensor) int {
	return r.Net.Forward(r.widen(z), false).ArgMax()
}

// Logits runs a forward pass and returns the double-precision logits (a live
// reusable buffer, valid until the next call).
func (r *Ref64) Logits(z *tensor.Tensor) *tensor.Tensor64 {
	return r.Net.Forward(r.widen(z), false)
}
