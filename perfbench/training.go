package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"chameleon/internal/cl"
	"chameleon/internal/mobilenet"
	"chameleon/internal/parallel"
	"chameleon/internal/tensor"
)

// trainBatch is the training workloads' observe batch size.
const trainBatch = 10

// accStreams is how many streams, drawn from the seed, the training
// workloads' accuracies average over. One stream's accuracy moved by up to
// ten points from seed to seed, more than the bound on it; the timed passes
// all run the first stream.
const accStreams = 8

// streamSeed is the seed of the i-th stream of a run (the 0th is the run's
// seed). Streams of neighbouring run seeds do not overlap.
func streamSeed(seed int64, i int) int64 { return seed + int64(i)*1_000_003 }

// trainSet is one stream as ready-made learner inputs, with the seed its
// learners are built with.
type trainSet struct {
	seed    int64
	st      *stream
	zs      [][]*tensor.Tensor // per batch
	batches []cl.LatentBatch
}

func newTrainSet(shape []int, seed int64) *trainSet {
	t := &trainSet{seed: seed, st: newStream(defaultStream(trainBatch), tensor.New(shape...).Len(), seed)}
	for k := 0; k < t.st.numBatches(); k++ {
		src := t.st.batch(k)
		b := cl.LatentBatch{Index: k, Domain: src[0].Domain}
		zs := make([]*tensor.Tensor, len(src))
		for i, s := range src {
			zs[i] = tensor.FromSlice(s.Z, shape...)
			b.Samples = append(b.Samples, cl.LatentSample{Z: zs[i], Label: s.Label, Domain: s.Domain})
		}
		t.zs = append(t.zs, zs)
		t.batches = append(t.batches, b)
	}
	return t
}

// trainEnv is one set-up of a training workload: the run's stream as
// ready-made learner inputs.
type trainEnv struct {
	*trainSet
	method   string
	dir      string
	backbone *mobilenet.Model
}

func setupTraining(method string, opt options) (*trainEnv, error) {
	e := &trainEnv{method: method}
	var err error
	if e.dir, err = os.MkdirTemp(opt.dataRoot, "train-"+method+"-"); err != nil {
		return nil, err
	}
	if e.backbone, err = newBackbone(opt.seed); err != nil {
		return nil, err
	}
	e.trainSet = newTrainSet(e.backbone.LatentShape, streamSeed(opt.seed, 0))
	// One learner built and dropped, so the first timed pass does not pay
	// for first-use initialisation.
	if _, err := newLearner(method, e.backbone, opt.seed); err != nil {
		return nil, err
	}
	return e, nil
}

// pass is one test-then-train pass over the stream by a fresh learner.
type pass struct {
	l        cl.Learner
	preds    []int
	predMs   []float64
	obsMs    []float64
	elapsed  time.Duration
	complete bool
}

// runPass runs test-then-train over the stream: PredictBatch on each batch,
// then Observe it. It stops early (complete false) once deadline passes,
// unless deadline is zero.
func (e *trainSet) runPass(l cl.Learner, deadline time.Time, tr *tracer) pass {
	n := len(e.batches)
	p := pass{l: l, complete: true, preds: make([]int, 0, n*e.st.Batch), predMs: make([]float64, 0, n), obsMs: make([]float64, 0, n)}
	bp := cl.Caps(l).BatchPredictor
	out := make([]int, e.st.Batch)
	start := time.Now()
	for k, b := range e.batches {
		if !deadline.IsZero() && time.Now().After(deadline) {
			p.complete = false
			break
		}
		var root span
		if tr != nil {
			root = span{ID: tr.newID(), Name: "train.step", Start: tr.now()}
			tr.step.Store(root.ID)
		}
		t0 := time.Now()
		bp.PredictBatch(e.zs[k], out)
		t1 := time.Now()
		l.Observe(b)
		t2 := time.Now()
		if tr != nil {
			root.End = tr.now()
			tr.step.Store(0)
			tr.add(root)
		}
		p.predMs = append(p.predMs, elapsedMs(t1.Sub(t0)))
		p.obsMs = append(p.obsMs, elapsedMs(t2.Sub(t1)))
		p.preds = append(p.preds, out...)
	}
	p.elapsed = time.Since(start)
	return p
}

func (e *trainEnv) learner(tr *tracer) (cl.Learner, error) {
	l, err := newLearner(e.method, e.backbone, e.seed)
	if err != nil || tr == nil {
		return l, err
	}
	return wrapLearner(l, tr, "")
}

// runTraining runs a training workload on cpus CPUs (GOMAXPROCS and the
// worker pool; 0: the cli default, all of them). train-der runs on one, as
// a single-core edge device would: its per-sample path is serial, and in
// five pairs of runs alternated on a shared 2-vCPU host its predict and
// observe times spread by 0.13–0.15 from run to run with a second CPU and
// by 0.04–0.06 on one. train-chameleon keeps the default and so measures
// the parallel layer.
func runTraining(method string, cpus int, opt options, tr *tracer) (*outcome, error) {
	wl := "train-" + method
	if cpus > 0 {
		prevProcs, prevWorkers := runtime.GOMAXPROCS(cpus), parallel.Workers()
		parallel.SetWorkers(cpus)
		defer func() {
			runtime.GOMAXPROCS(prevProcs)
			parallel.SetWorkers(prevWorkers)
		}()
	}
	env, setupS, err := timedSetups(func() (*trainEnv, error) { return setupTraining(method, opt) },
		func(e *trainEnv) { _ = os.RemoveAll(e.dir) })
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", wl, err)
	}
	defer os.RemoveAll(env.dir)

	o := newOutcome()
	reg0 := snapshotRegistry()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	deadline := start.Add(opt.duration)
	var first pass
	var predMs, obsMs []float64
	// Per complete pass: the pass's median predict and observe times; and
	// over all complete passes, their time, CPU, batches and samples. Every
	// pass is the same work by a fresh learner, and on a shared host a pass
	// runs at one of two speeds up to 1.7x apart, in spells of one to several
	// seconds; a median over all of a run's calls flips between the two
	// speeds, while a mean over passes moves only with the share of slow ones.
	var passPred, passObs []float64
	var passSecs, passCPUMs float64
	passBatches, passSamples := 0, 0
	applied := 0
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		l, err := env.learner(tr)
		if err != nil {
			return nil, err
		}
		dl := deadline
		if n == 0 {
			dl = time.Time{} // the first pass always completes: accuracy is taken from it
		}
		c0 := cpuMs()
		p := env.runPass(l, dl, tr)
		cpu := cpuMs() - c0
		predMs = append(predMs, p.predMs...)
		obsMs = append(obsMs, p.obsMs...)
		applied += len(p.obsMs)
		if !p.complete {
			continue
		}
		passPred = append(passPred, median(p.predMs))
		passObs = append(passObs, median(p.obsMs))
		passSecs += p.elapsed.Seconds()
		passCPUMs += cpu
		passBatches += len(p.obsMs)
		passSamples += len(p.preds)
		if n == 0 {
			first = p
		} else if err := samePreds(first.preds, p.preds); err != nil {
			o.check(fmt.Errorf("%s: pass %d differs from pass 0 at %d workers: %w", wl, n, parallel.Workers(), err))
		}
	}
	runtime.ReadMemStats(&ms1)
	reg1 := snapshotRegistry()
	var spans []span
	if tr != nil {
		spans = tr.snapshot()
	}

	rssMB := peakRSSMB() // before the untimed accuracy passes add their streams

	o.check(env.checkSerial(first.preds))
	o.check(saveFinal(first.l, filepath.Join(env.dir, "final.ckpt")))
	preq, accAll, err := env.accuracy(first)
	if err != nil {
		return nil, err
	}
	o.attempted = int64(len(predMs) + len(obsMs))
	o.rate = float64(passSamples) / passSecs
	o.runtimeCost(&ms0, &ms1, applied)
	warnTail(wl, "predict", predMs)
	warnTail(wl, "observe", obsMs)
	o.set("setup_s", setupS, "s")
	o.set("predict_p50_ms", mean(passPred), "ms")
	o.tails["predict_p99_ms"] = metric{blockPercentile(predMs, 0.99), "ms"}
	o.set("observe_p50_ms", mean(passObs), "ms")
	o.tails["observe_p99_ms"] = metric{blockPercentile(obsMs, 0.99), "ms"}
	o.set("throughput_rps", float64(2*passBatches)/passSecs, "1/s")
	o.set("train_samples_per_s", o.rate, "1/s")
	o.set("cpu_ms_per_op", passCPUMs/float64(passBatches), "ms")
	o.set("prequential_acc_pct", preq, "%")
	o.set("acc_all_pct", accAll, "%")
	o.set("peak_rss_mb", rssMB, "MB")
	o.set("disk_mb", dirMB(env.dir), "MB")
	if tr != nil {
		trainLayers(o, regDelta{reg0, reg1}, spans, applied)
	}
	return o, nil
}

// accuracy returns the prequential and held-out accuracy (Acc_all), each the
// mean over accStreams streams: the first pass's over the run's stream, and
// one untimed pass by a fresh learner over each further stream.
func (e *trainEnv) accuracy(first pass) (preq, accAll float64, err error) {
	var preqs, accs []float64
	for i := 0; i < accStreams; i++ {
		t, p := e.trainSet, first
		if i > 0 {
			t = newTrainSet(e.backbone.LatentShape, streamSeed(e.seed, i))
			l, err := newLearner(e.method, e.backbone, t.seed)
			if err != nil {
				return 0, 0, err
			}
			p = t.runPass(l, time.Time{}, nil)
		}
		hit := 0
		for j, s := range t.st.Train[:len(p.preds)] {
			if p.preds[j] == s.Label {
				hit++
			}
		}
		preqs = append(preqs, 100*float64(hit)/float64(len(p.preds)))
		accs = append(accs, heldOutAcc(p.l, t.st.Test, e.backbone.LatentShape))
	}
	return mean(preqs), mean(accs), nil
}

// checkSerial replays the whole stream at one worker and compares its
// predictions with the measured run's.
func (e *trainEnv) checkSerial(want []int) error {
	prev := parallel.Workers()
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	l, err := e.learner(nil)
	if err != nil {
		return err
	}
	p := e.runPass(l, time.Time{}, nil)
	if err := samePreds(want, p.preds); err != nil {
		return fmt.Errorf("train-%s: predictions at %d workers differ from the 1-worker replay: %w", e.method, prev, err)
	}
	return nil
}

// elapsedMs converts a duration to milliseconds.
func elapsedMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func samePreds(a, b []int) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d predictions vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("sample %d: class %d vs %d", i, a[i], b[i])
		}
	}
	return nil
}
