package baselines

import (
	"math"
	"math/rand"

	"chameleon/internal/checkpoint"
	"chameleon/internal/cl"
	"chameleon/internal/nn"
	"chameleon/internal/replay"
	"chameleon/internal/tensor"
)

// GSS is Gradient-based Sample Selection (GSS-Greedy, Aljundi et al., 2019):
// each buffered sample carries a gradient-direction sketch; a candidate is
// scored by its maximum cosine similarity against a random subset of the
// buffer, and it replaces a similarity-weighted victim only when it is more
// gradient-diverse. The stored gradient vectors are what give GSS its
// out-sized memory footprint in Table I (up to 10× ER per sample).
type GSS struct {
	head *cl.Head
	cfg  Config
	buf  []gssItem
	rng  *rand.Rand
	src  *checkpoint.Source
	// SketchDim is the random-projection width of the stored gradient
	// (the paper's implementation stores full gradients; the projection
	// preserves cosine geometry at a fraction of the runtime cost, while
	// memcost still charges full-gradient bytes).
	SketchDim int
	proj      *tensor.Tensor // lazy [SketchDim, gradDim] projection
	// SubsetSize is how many buffer items a candidate is compared against.
	SubsetSize int
	// codec, when non-nil (Config.ReplayInt8), quantizes buffered latents;
	// the gradient sketches stay fp32 — they are scoring state, not replay
	// payload, and memcost already charges them separately.
	codec    *replay.Int8Codec
	trainBuf []cl.LatentSample // reusable incoming+replay assembly buffer
	zsBuf    []*tensor.Tensor  // one-row sketch pass scratch
	rowBuf   []nn.LossRow
}

type gssItem struct {
	it     replay.Item
	score  float64 // max cosine similarity recorded at insertion
	sketch *tensor.Tensor
}

// NewGSS creates the GSS-Greedy learner.
func NewGSS(head *cl.Head, cfg Config) *GSS {
	cfg = cfg.withDefaults()
	rng, src := cfg.rngSource(5)
	g := &GSS{head: head, cfg: cfg, rng: rng, src: src, SketchDim: 128, SubsetSize: 10}
	if cfg.ReplayInt8 {
		g.codec = replay.NewInt8Codec()
	}
	return g
}

// Name implements cl.Learner.
func (g *GSS) Name() string { return "gss" }

// Predict implements cl.Learner.
func (g *GSS) Predict(z *tensor.Tensor) int { return g.head.Predict(z) }

// PredictBatch implements cl.BatchPredictor.
func (g *GSS) PredictBatch(zs []*tensor.Tensor, out []int) { g.head.PredictBatch(zs, out) }

// gradSketch computes the random-projected gradient of the CE loss with
// respect to the head's final parameter block for one sample, from a one-row
// accumulate-only pass.
func (g *GSS) gradSketch(s cl.LatentSample) *tensor.Tensor {
	g.head.ZeroGrad()
	g.zsBuf, g.rowBuf = cl.CERows(g.zsBuf[:0], g.rowBuf[:0], []cl.LatentSample{s})
	g.head.AccumulateRows(g.zsBuf, g.rowBuf)
	params := g.head.Params()
	// Use the last weight matrix (largest, most informative block).
	var last *nn.Param
	for _, p := range params {
		if last == nil || p.Numel() >= last.Numel() {
			last = p
		}
	}
	grad := last.Grad
	if g.proj == nil {
		projRng := cl.RNG(g.cfg.Seed, 6)
		g.proj = tensor.RandNormal(projRng, 1/math.Sqrt(float64(grad.Len())), g.SketchDim, grad.Len())
	}
	sk := tensor.MatVec(g.proj, grad.Reshape(grad.Len()))
	g.head.ZeroGrad()
	return sk
}

func cosine(a, b *tensor.Tensor) float64 {
	na, nb := a.Norm2(), b.Norm2()
	if na == 0 || nb == 0 {
		return 0
	}
	return tensor.Dot(a, b) / (na * nb)
}

// Observe implements cl.Learner.
func (g *GSS) Observe(b cl.LatentBatch) {
	if len(b.Samples) == 0 {
		return
	}
	// Rehearse before measuring candidate gradients, like the reference
	// implementation: train on incoming + buffer draw.
	train := append(g.trainBuf[:0], b.Samples...)
	for i := 0; i < g.cfg.ReplaySize && len(g.buf) > 0; i++ {
		it := g.buf[g.rng.Intn(len(g.buf))].it
		if g.codec != nil {
			it = g.codec.Decode(it, i)
		}
		train = append(train, cl.LatentSample{Z: it.Z, Label: it.Label})
	}
	g.trainBuf = train
	g.head.TrainCEOn(train)

	for _, s := range b.Samples {
		sk := g.gradSketch(s)
		item := gssItem{it: replay.Item{Z: s.Z, Label: s.Label, GradSketch: sk}, sketch: sk}
		if len(g.buf) < g.cfg.BufferSize {
			item.score = g.maxSimilarity(sk)
			if g.codec != nil {
				item.it = g.codec.Encode(item.it, nil)
			}
			g.buf = append(g.buf, item)
			continue
		}
		c := g.maxSimilarity(sk)
		// Pick a victim with probability proportional to its (shifted)
		// similarity score; replace only if the candidate is more diverse.
		vi := g.weightedVictim()
		if c+1 < g.buf[vi].score+1 {
			item.score = c
			if g.codec != nil {
				item.it = g.codec.Encode(item.it, g.buf[vi].it.QZ)
			}
			g.buf[vi] = item
		}
	}
}

// maxSimilarity returns the max cosine similarity of sk against a random
// subset of the buffer (−1 when the buffer is empty, i.e. maximally diverse).
func (g *GSS) maxSimilarity(sk *tensor.Tensor) float64 {
	if len(g.buf) == 0 {
		return -1
	}
	n := g.SubsetSize
	if n > len(g.buf) {
		n = len(g.buf)
	}
	best := -1.0
	for i := 0; i < n; i++ {
		other := g.buf[g.rng.Intn(len(g.buf))]
		if c := cosine(sk, other.sketch); c > best {
			best = c
		}
	}
	return best
}

// weightedVictim samples a buffer index with probability ∝ score+1.
func (g *GSS) weightedVictim() int {
	var z float64
	for _, it := range g.buf {
		z += it.score + 1
	}
	if z <= 0 {
		return g.rng.Intn(len(g.buf))
	}
	r := g.rng.Float64() * z
	acc := 0.0
	for i, it := range g.buf {
		acc += it.score + 1
		if r < acc {
			return i
		}
	}
	return len(g.buf) - 1
}

// Len reports the buffer fill (tests).
func (g *GSS) Len() int { return len(g.buf) }
