package cl

import (
	"fmt"

	"chameleon/internal/nn"
	"chameleon/internal/tensor"
)

// trainRowsOn is the tier-generic training core, shared by the fp32 Head and
// the fp64 Ref64 reference learner: one batched forward from layer start over
// the packed [N, D] matrix x (consumed), the row-wise losses computed in place
// on the logit matrix, and the batched backward with the SGD update folded in
// where the optimizer allows it — the summed gradient scaled by 1/denom
// (denom ≤ 0 is treated as 1, as in Head.Step). A nil opt only accumulates
// the parameter gradients. Returns the summed weighted loss. The caller must
// have zeroed the parameter gradients if it wants a fresh step, and the chain
// must pass SupportsBatchTrain(start).
func trainRowsOn[T tensor.Float](net *nn.SequentialOf[T], opt *nn.SGDOf[T], ws *tensor.WorkspaceOf[T], x *tensor.Of[T], start int, rows []nn.LossRowOf[T], denom float64) float64 {
	logits := net.ForwardBatchTrain(x, start, ws)
	loss := nn.LossRowsInto(logits, rows, logits, ws)
	inv := T(1)
	if denom > 0 && denom != 1 {
		inv = T(1 / denom)
	}
	net.BackwardSGDBatchFrom(logits, start, opt, inv, ws)
	return loss
}

// pack lays zs out as the rows of one workspace matrix. GAP-first heads pool
// each [C,H,W] latent straight into its row (the parameter-free GAP layer is
// then skipped, forward and backward); every other head takes flat rows.
// Latents that cannot share one matrix panic, like every other nn shape
// check.
func (h *Head) pack(zs []*tensor.Tensor) *tensor.Tensor {
	if h.start == 1 {
		x := h.ws.Get(len(zs), zs[0].Dim(0))
		tensor.GlobalAvgPoolRowsInto(x, zs)
		return x
	}
	d := zs[0].Len()
	x := h.ws.Get(len(zs), d)
	xd := x.Data()
	for i, z := range zs {
		if z.Len() != d {
			panic(fmt.Sprintf("cl: latent %d has %d values, the batch rows have %d", i, z.Len(), d))
		}
		copy(xd[i*d:(i+1)*d], z.Data())
	}
	return x
}

// observeBatched is the reference tier's batched step: the same core as the
// fast tier over float64 kernels, with each latent widened into its row of
// the batch matrix.
func (r *Ref64) observeBatched(samples []LatentSample) {
	n := len(samples)
	start := 0
	if _, ok := r.Net.Layers[0].(*nn.GlobalAvgPool2DOf[float64]); ok {
		start = 1
	}
	rows := r.rowBuf[:0]
	for _, s := range samples {
		rows = append(rows, nn.LossRowOf[float64]{Kind: nn.LossCE, Label: s.Label, Weight: 1})
	}
	r.rowBuf = rows
	var x *tensor.Tensor64
	if start == 1 {
		// Widen each latent and pool it into its row with the exact serial
		// loop of GlobalAvgPoolInto — ascending-element sums, bit-identical to
		// the per-sample GAP forward on the widened tensor.
		c := samples[0].Z.Dim(0)
		x = r.ws.Get(n, c)
		xd := x.Data()
		for i, s := range samples {
			if s.Z.NDim() != 3 || s.Z.Dim(0) != c {
				panic(fmt.Sprintf("cl: latent %d has shape %v, want [%d,H,W]", i, s.Z.Shape(), c))
			}
			zd := r.widen(s.Z).Data()
			hh, ww := s.Z.Dim(1), s.Z.Dim(2)
			inv := 1 / float64(hh*ww)
			row := xd[i*c : (i+1)*c]
			for ci := 0; ci < c; ci++ {
				var sum float64
				for _, v := range zd[ci*hh*ww : (ci+1)*hh*ww] {
					sum += v
				}
				row[ci] = sum * inv
			}
		}
	} else {
		d := samples[0].Z.Len()
		x = r.ws.Get(n, d)
		xd := x.Data()
		for i, s := range samples {
			if s.Z.Len() != d {
				panic(fmt.Sprintf("cl: latent %d has %d values, the batch rows have %d", i, s.Z.Len(), d))
			}
			row := xd[i*d : (i+1)*d]
			for j, v := range s.Z.Data() {
				row[j] = float64(v)
			}
		}
	}
	trainRowsOn(r.Net, r.Opt, r.ws, x, start, rows, float64(n))
}
