package main

import (
	"math"
	"math/rand"
)

// streamSpec shapes the synthetic domain-incremental latent stream. Every
// latent is a point in the backbone's latent space (z = A·u + shift + noise):
// u is a low-dimensional class code, A a fixed random embedding, so classes
// differ along a few directions that isotropic noise largely hides. Domains
// arrive in sequence, as CORe50's sessions do; each moves every class by a
// shared shift and perturbs each class code (old-domain knowledge is only
// partly right in the next domain, so forgetting shows). Each session is one
// class seen for Frames consecutive frames with a session-specific offset, so
// neighbouring samples are correlated in time.
type streamSpec struct {
	Classes  int
	Domains  int
	Sessions int // sessions per class per domain
	Frames   int // frames per session
	Test     int // held-out samples per class per domain
	Batch    int // samples per observe batch
	Code     int // class-code dimension
	Signal   float64
	Drift    float64 // per-domain class-code perturbation
	Shift    float64 // per-domain shift shared by all classes
	Jitter   float64 // per-session offset in code space
	Noise    float64 // per-frame isotropic noise in latent space
}

// defaultStream is the stream every workload draws from, in observe batches
// of batch samples. The noise keeps accuracy unsaturated (Chameleon ~68%
// prequential, DER ~46%): with well-separated classes every method reaches
// ~99% and accuracy changes disappear. A 32-dimensional class code keeps the
// seed-to-seed spread of accuracy to a few percent.
func defaultStream(batch int) streamSpec {
	return streamSpec{
		Classes: 10, Domains: 8, Sessions: 2, Frames: 12, Test: 8, Batch: batch,
		Code: 32, Signal: 0.45, Drift: 0.6, Shift: 1.0, Jitter: 0.5, Noise: 1.0,
	}
}

// sample is one labelled latent.
type sample struct {
	Z      []float32
	Label  int
	Domain int
}

// stream is a generated stream: Train in arrival order, Test held out
// across every domain.
type stream struct {
	Train []sample
	Test  []sample
	Batch int
	gen   *latentGen
}

// numBatches is the number of whole observe batches in Train.
func (s *stream) numBatches() int { return len(s.Train) / s.Batch }

// batch returns observe batch k (k < numBatches).
func (s *stream) batch(k int) []sample { return s.Train[k*s.Batch : (k+1)*s.Batch] }

// latentGen holds the fixed geometry of one stream.
type latentGen struct {
	spec  streamSpec
	dim   int
	embed [][]float64 // dim × Code
	codes [][]float64 // Classes × Code
	drift [][][]float64
	shift [][]float64 // Domains × dim
}

func newLatentGen(spec streamSpec, dim int, rng *rand.Rand) *latentGen {
	g := &latentGen{spec: spec, dim: dim}
	g.embed = gaussMatrix(rng, dim, spec.Code, 1/math.Sqrt(float64(spec.Code)))
	g.codes = gaussMatrix(rng, spec.Classes, spec.Code, spec.Signal)
	g.drift = make([][][]float64, spec.Domains)
	g.shift = make([][]float64, spec.Domains)
	for d := range g.drift {
		g.drift[d] = gaussMatrix(rng, spec.Classes, spec.Code, spec.Drift)
		g.shift[d] = gaussMatrix(rng, 1, dim, spec.Shift)[0]
	}
	return g
}

func gaussMatrix(rng *rand.Rand, rows, cols int, std float64) [][]float64 {
	m := make([][]float64, rows)
	for i := range m {
		m[i] = make([]float64, cols)
		for j := range m[i] {
			m[i][j] = rng.NormFloat64() * std
		}
	}
	return m
}

// session draws a fresh per-session code offset.
func (g *latentGen) session(rng *rand.Rand) []float64 {
	return gaussMatrix(rng, 1, g.spec.Code, g.spec.Jitter)[0]
}

// frame draws one latent of class c in domain d with session offset off.
func (g *latentGen) frame(rng *rand.Rand, c, d int, off []float64) sample {
	u := make([]float64, g.spec.Code)
	for j := range u {
		u[j] = g.codes[c][j] + g.drift[d][c][j] + off[j]
	}
	z := make([]float32, g.dim)
	for i := range z {
		v := g.shift[d][i] + rng.NormFloat64()*g.spec.Noise
		for j, uj := range u {
			v += g.embed[i][j] * uj
		}
		z[i] = float32(v)
	}
	return sample{Z: z, Label: c, Domain: d}
}

// random draws one unlabelled-traffic latent from a uniformly chosen class
// and domain, in a fresh session.
func (g *latentGen) random(rng *rand.Rand) sample {
	return g.frame(rng, rng.Intn(g.spec.Classes), rng.Intn(g.spec.Domains), g.session(rng))
}

// newStream generates the stream for seed: the same seed gives the same
// stream, bit for bit.
func newStream(spec streamSpec, dim int, seed int64) *stream {
	rng := rand.New(rand.NewSource(seed))
	g := newLatentGen(spec, dim, rng)
	s := &stream{Batch: spec.Batch, gen: g}
	for d := 0; d < spec.Domains; d++ {
		order := make([]int, 0, spec.Classes*spec.Sessions)
		for c := 0; c < spec.Classes; c++ {
			for k := 0; k < spec.Sessions; k++ {
				order = append(order, c)
			}
		}
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, c := range order {
			off := g.session(rng)
			for f := 0; f < spec.Frames; f++ {
				s.Train = append(s.Train, g.frame(rng, c, d, off))
			}
		}
		for c := 0; c < spec.Classes; c++ {
			for k := 0; k < spec.Test; k++ {
				s.Test = append(s.Test, g.frame(rng, c, d, g.session(rng)))
			}
		}
	}
	return s
}
