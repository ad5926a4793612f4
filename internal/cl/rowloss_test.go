package cl

import (
	"fmt"
	"math"
	"testing"

	"chameleon/internal/nn"
	"chameleon/internal/parallel"
	"chameleon/internal/tensor"
)

// Row-loss weights of the shaped steps below: DER++'s α and β, and LwF's λ
// and temperature. They differ from the baselines' defaults on purpose: with
// λ=0.7 and T=1.5, (λ·T)·T and λ·(T·T) round differently, so the fp64
// bit-identity tests pin the order in which a soft row's weight is formed.
const (
	rowAlpha, rowBeta = 0.3, 0.7
	rowLambda, rowT   = 0.7, 1.5
)

// stepRows builds one training step's rows from a chunk of samples and
// returns them with the step's denominator.
type stepRows func(h *Head, batch []LatentSample) ([]*tensor.Tensor, []nn.LossRow, float64)

// shiftedLogits is a stored-logit target for sample z: the head's current
// eval logits, shifted so the MSE and soft rows carry a real gradient.
func shiftedLogits(h *Head, z *tensor.Tensor, shift float32) []float32 {
	lg := h.Logits(z).Clone().Data()
	lg[0] += shift
	return lg
}

// derRows is a DER-shaped step: the first half of the chunk arrives as CE
// rows, then α·MSE rows against stored logits and β·CE rows on the other
// half, averaged over the row count.
func derRows(h *Head, batch []LatentSample) ([]*tensor.Tensor, []nn.LossRow, float64) {
	var zs []*tensor.Tensor
	var rows []nn.LossRow
	half := (len(batch) + 1) / 2
	for _, s := range batch[:half] {
		zs = append(zs, s.Z)
		rows = append(rows, nn.LossRow{Kind: nn.LossCE, Label: s.Label, Weight: 1})
	}
	for _, s := range batch[half:] {
		zs = append(zs, s.Z)
		rows = append(rows, nn.LossRow{Kind: nn.LossMSE, Target: shiftedLogits(h, s.Z, 1), Weight: rowAlpha})
	}
	for _, s := range batch[half:] {
		zs = append(zs, s.Z)
		rows = append(rows, nn.LossRow{Kind: nn.LossCE, Label: s.Label, Weight: rowBeta})
	}
	return zs, rows, float64(len(rows))
}

// lwfRows is an LwF-shaped step: CE_i and λT²·soft_i interleaved per sample
// against teacher logits, averaged over the sample count.
func lwfRows(h *Head, batch []LatentSample) ([]*tensor.Tensor, []nn.LossRow, float64) {
	var zs []*tensor.Tensor
	var rows []nn.LossRow
	for _, s := range batch {
		zs = append(zs, s.Z, s.Z)
		rows = append(rows,
			nn.LossRow{Kind: nn.LossCE, Label: s.Label, Weight: 1},
			nn.LossRow{Kind: nn.LossSoft, Target: shiftedLogits(h, s.Z, 2), Temperature: rowT, Weight: rowLambda})
	}
	return zs, rows, float64(len(batch))
}

// widenRows converts a fast-tier step to the reference tier.
func widenRows(zs []*tensor.Tensor, rows []nn.LossRow) ([]*tensor.Tensor64, []nn.LossRowOf[float64]) {
	wz := make([]*tensor.Tensor64, len(zs))
	for i, z := range zs {
		wz[i] = tensor.Widen(z)
	}
	wr := make([]nn.LossRowOf[float64], len(rows))
	for i, r := range rows {
		wr[i] = nn.LossRowOf[float64]{Kind: r.Kind, Label: r.Label, Temperature: r.Temperature, Weight: r.Weight}
		for _, v := range r.Target {
			wr[i].Target = append(wr[i].Target, float64(v))
		}
	}
	return wz, wr
}

// requireRowSteps64 runs shaped steps on two widened twins of one head: the
// batched core (GAP pack → trainRowsOn) on one, the per-sample loop plus a
// split step on the other. Losses and weights must stay bit-identical.
func requireRowSteps64(t *testing.T, build stepRows) {
	t.Helper()
	set := testEnv(t)
	for _, mom := range []float64{0, 0.9} {
		h := NewHead(set.Backbone, HeadConfig{Seed: 11, Momentum: mom})
		batched, err := NewRef64(h)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := NewRef64(h)
		if err != nil {
			t.Fatal(err)
		}
		for step, batch := range trainChunks(set.Train, 8) {
			zs32, rows32, denom := build(h, batch)
			zs, rows := widenRows(zs32, rows32)

			for _, p := range batched.params {
				p.ZeroGrad()
			}
			x := batched.ws.Get(len(zs), zs[0].Dim(0))
			tensor.GlobalAvgPoolRowsInto(x, zs)
			lb := trainRowsOn(batched.Net, batched.Opt, batched.ws, x, 1, rows, denom)

			for _, p := range serial.params {
				p.ZeroGrad()
			}
			ls := perSampleRows(serial.Net, zs, rows)
			for _, p := range serial.params {
				if denom != 1 {
					p.Grad.Scale(1 / denom)
				}
				serial.Opt.StepParam(p)
				p.ZeroGrad()
			}

			if lb != ls {
				t.Fatalf("momentum=%v step %d: batched loss %v vs per-sample %v", mom, step, lb, ls)
			}
			if !ref64ParamsEqual(serial, batched) {
				t.Fatalf("momentum=%v: fp64 params diverge after step %d", mom, step)
			}
		}
	}
}

// TestRowLossDERStep64 pins the reference-tier contract for a DER-shaped
// step (CE, α·MSE, β·CE rows): bit-identical to the per-sample loop.
func TestRowLossDERStep64(t *testing.T) { requireRowSteps64(t, derRows) }

// TestRowLossLwFStep64 pins it for an LwF-shaped step (CE and λT²·soft rows
// interleaved).
func TestRowLossLwFStep64(t *testing.T) { requireRowSteps64(t, lwfRows) }

// TestTrainRowsMatchesPerSampleFP32 holds DER-, LwF- and EWC-shaped steps on
// the fast tier to TestTrainBatchedMatchesPerSampleFP32's tolerances against
// the per-sample loop, at workers 1 and 8. The EWC shape accumulates CE rows,
// adjusts the gradient (mean plus a quadratic pull towards the initial
// weights) and then calls Step(1).
func TestTrainRowsMatchesPerSampleFP32(t *testing.T) {
	defer parallel.SetWorkers(0)
	set := testEnv(t)
	for _, w := range []int{1, 8} {
		parallel.SetWorkers(w)
		for _, tc := range []struct {
			name  string
			build stepRows
		}{{"der", derRows}, {"lwf", lwfRows}, {"ewc", nil}} {
			cfg := HeadConfig{Seed: 5, Momentum: 0.5}
			hb := NewHead(set.Backbone, cfg)
			hs := NewHead(set.Backbone, cfg)
			anchor := hb.Snapshot()
			for step, batch := range trainChunks(set.Train, 8) {
				var lb, ls float64
				if tc.build != nil {
					zs, rows, denom := tc.build(hs, batch)
					lb = hb.TrainRows(zs, rows, denom)
					hs.ZeroGrad()
					ls = perSampleRows(hs.Net, zs, rows)
					hs.Step(denom)
				} else {
					zs, rows := CERows(nil, nil, batch)
					hb.ZeroGrad()
					lb = hb.AccumulateRows(zs, rows)
					ewcStep(hb, anchor, len(batch))
					hs.ZeroGrad()
					ls = perSampleRows(hs.Net, zs, rows)
					ewcStep(hs, anchor, len(batch))
				}
				if d := math.Abs(lb - ls); d > 1e-3 {
					t.Fatalf("workers=%d %s step %d: batched loss %.6f vs per-sample %.6f (|Δ| %.2e)",
						w, tc.name, step, lb, ls, d)
				}
			}
			requireHeadsClose(t, set, hb, hs, fmt.Sprintf("workers=%d %s", w, tc.name))
		}
	}
}

// ewcStep is the EWC-shaped update: average the accumulated gradient, add a
// quadratic pull towards anchor, and step once.
func ewcStep(h *Head, anchor []*tensor.Tensor, n int) {
	for i, p := range h.Params() {
		g, wd, a := p.Grad.Data(), p.Data.Data(), anchor[i].Data()
		for j := range g {
			g[j] /= float32(n)
			g[j] += 0.1 * (wd[j] - a[j])
		}
	}
	h.Step(1)
}
