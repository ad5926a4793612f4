package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"

	"chameleon/internal/api"
	"chameleon/internal/checkpoint"
	"chameleon/internal/cl"
	"chameleon/internal/fleet"
	"chameleon/internal/tensor"
)

// prefixSteps is how many chain steps prequential accuracy and acc_all are
// taken over: a fixed prefix of the chain, so both are the same for a given
// seed however far a run gets. serve-json: one pass over the stream. The
// fleet chain is slower (every cold user scans the whole observe log), so
// its prefix is about half of what a 20 s run reaches at this HEAD.
func prefixSteps(wl string, st *stream) int {
	if wl == "fleet-zipf-wal" {
		return 400
	}
	return st.numBatches()
}

func runServing(wl string, opt options, tr *tracer) (*outcome, error) {
	env, setupS, err := timedSetups(func() (*servingEnv, error) {
		return setupServing(wl, opt, tr)
	}, (*servingEnv).discard)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", wl, err)
	}
	defer os.RemoveAll(env.dir)
	nproc := max(2, runtime.GOMAXPROCS(0))

	reg0 := snapshotRegistry()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	run := env.measureServing(nproc)
	runtime.ReadMemStats(&ms1)
	reg1 := snapshotRegistry()
	var spans []span
	if tr != nil {
		spans = tr.snapshot()
	}
	if err := env.shutdown(); err != nil {
		return nil, fmt.Errorf("%s shutdown: %w", wl, err)
	}
	if env.wlog != nil {
		defer env.wlog.Close()
	}

	o := newOutcome()
	for _, pc := range []*phaseCounts{&run.openPC, &run.closedPC} {
		o.attempted += pc.sent.Load()
		o.failed += pc.failed.Load() + pc.shed.Load()
	}
	res := run.chainRes
	prefix := prefixSteps(wl, env.st)
	preq, accAll, err := env.replay(res, prefix)
	o.check(err)
	if env.isFleet() {
		o.check(env.checkLog(res))
	} else {
		// What a -checkpoint server would write at drain, written here
		// outside the timed run: the engine has exited, so the learner is
		// ours to read.
		o.check(saveFinal(env.learner, filepath.Join(env.dir, "final.ckpt")))
	}

	// serve-json reports latency in the open-loop phase: the scheduled
	// predicts timed from their due time, and the chain's predicts and
	// observes beside them, timed from when the chain sent them. The fleet
	// reports the labelled chain's requests. Its predict-only client is the
	// contending load: about half of its predicts fault a cold user in, so
	// the median of a pool with them sits on the edge between resident
	// (~0.2 ms) and fault-in (~10–50 ms) latency and jumps between the two
	// from run to run.
	predicts := append(append([]float64(nil), run.open.predict...), run.chainOpen.predict...)
	observes := run.chainOpen.observe
	if env.isFleet() {
		predicts, observes = run.chain.predict, run.chain.observe
	}
	warnTail(wl, "predict", predicts)
	warnTail(wl, "observe", observes)
	closedSecs := run.end.Sub(run.closedStart).Seconds()
	completed := 0
	for _, r := range []*recorder{&run.open, &run.chainOpen, &run.chain, &run.closed} {
		completed += r.completedIn(run.closedStart, run.end)
	}
	acked := 0
	for _, a := range res.acked {
		if a {
			acked++
		}
	}
	okTotal := run.openPC.ok.Load() + run.closedPC.ok.Load()
	o.rate = float64(completed) / closedSecs
	o.runtimeCost(&ms0, &ms1, int(okTotal))
	o.set("setup_s", setupS, "s")
	o.set("predict_p50_ms", blockPercentile(predicts, 0.50), "ms")
	o.tails["predict_p99_ms"] = metric{blockPercentile(predicts, 0.99), "ms"}
	o.set("observe_p50_ms", blockPercentile(observes, 0.50), "ms")
	o.tails["observe_p99_ms"] = metric{blockPercentile(observes, 0.99), "ms"}
	o.set("throughput_rps", o.rate, "1/s")
	o.set("train_samples_per_s", float64(acked*env.st.Batch)/run.elapsed.Seconds(), "1/s")
	o.set("cpu_ms_per_op", run.cpuMs/float64(okTotal), "ms")
	o.set("prequential_acc_pct", preq, "%")
	o.set("acc_all_pct", accAll, "%")
	o.set("peak_rss_mb", peakRSSMB(), "MB")
	o.set("disk_mb", dirMB(env.dir), "MB")

	if tr != nil {
		env.layers(o, run, regDelta{reg0, reg1}, spans, okTotal, acked)
	}
	return o, nil
}

// warnTail notes on stderr a p99 that fewer than ten samples lie beyond.
func warnTail(wl, kind string, xs []float64) {
	if !tailSupported(len(xs), 0.99) {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s_p99_ms rests on %d samples (fewer than %d beyond it)\n", wl, kind, len(xs), minBeyondTail)
	}
}

// saveFinal writes l's state as one checkpoint file.
func saveFinal(l cl.Learner, path string) error {
	snap := cl.Caps(l).Snapshotter
	if snap == nil {
		return fmt.Errorf("%s cannot be checkpointed", l.Name())
	}
	state, err := snap.Snapshot()
	if err != nil {
		return fmt.Errorf("final snapshot: %w", err)
	}
	return checkpoint.Save(path, "perfbench.final", state)
}

// replay checks the served predictions of the labelled chain against an
// offline serial replay: fresh learners with the same seeds (fleet.UserSeed
// per user), fed the same batches, one Predict per sample. It returns the
// prequential accuracy over the first prefix steps and Acc_all of the
// learners as they stand after those steps; a chain shorter than the prefix
// is an error once its predictions have been checked.
func (e *servingEnv) replay(res chainResult, prefix int) (preq, accAll float64, err error) {
	learners := map[string]cl.Learner{}
	seen := map[string]int{}
	hit, total := 0, 0
	for j := range res.preds {
		if j == prefix {
			accAll = e.accAll(learners, seen)
		}
		if res.errs[j] != nil {
			return 0, 0, fmt.Errorf("%s: chain step %d: %w", e.wl, j, res.errs[j])
		}
		st := e.chain[j%len(e.chain)]
		k := st.k
		if !e.isFleet() {
			k = j
		}
		l := learners[st.user]
		if l == nil {
			seed := e.opt.seed
			if e.isFleet() {
				seed = fleet.UserSeed(seed, st.user)
			}
			if l, err = newLearner("chameleon", e.backbone, seed); err != nil {
				return 0, 0, err
			}
			learners[st.user] = l
		}
		batch := cl.LatentBatch{Index: k, Domain: st.domain}
		for i, s := range st.samples {
			z := tensor.FromSlice(append([]float32(nil), s.Z...), e.backbone.LatentShape...)
			want := l.Predict(z)
			if got := res.preds[j][i]; got != want {
				return 0, 0, fmt.Errorf("%s: chain step %d (user %q batch %d) sample %d: served class %d, serial replay %d",
					e.wl, j, st.user, k, i, got, want)
			}
			if j < prefix {
				total++
				if want == s.Label {
					hit++
				}
			}
			batch.Samples = append(batch.Samples, cl.LatentSample{Z: z, Label: s.Label, Domain: st.domain})
		}
		l.Observe(batch)
		seen[st.user]++
	}
	if len(res.preds) < prefix {
		return 0, 0, fmt.Errorf("%s: chain completed %d steps, the accuracy prefix needs %d", e.wl, len(res.preds), prefix)
	}
	if len(res.preds) == prefix {
		accAll = e.accAll(learners, seen)
	}
	return 100 * float64(hit) / float64(total), accAll, nil
}

// accAll is the held-out accuracy over every domain (the paper's Acc_all)
// of the given learners, averaged with each learner weighted by the batches
// it has observed: on the fleet most users have seen one batch or two, and
// an unweighted mean would sit at chance whatever the learners do.
func (e *servingEnv) accAll(learners map[string]cl.Learner, seen map[string]int) float64 {
	var sum, weight float64
	for u, l := range learners {
		w := float64(seen[u])
		sum += w * heldOutAcc(l, e.st.Test, e.backbone.LatentShape)
		weight += w
	}
	return sum / weight
}

func heldOutAcc(l cl.Learner, test []sample, shape []int) float64 {
	zs := make([]*tensor.Tensor, len(test))
	for i, s := range test {
		zs[i] = tensor.FromSlice(s.Z, shape...)
	}
	out := make([]int, len(zs))
	if err := cl.PredictInto(l, zs, out); err != nil {
		return math.NaN()
	}
	hit := 0
	for i, s := range test {
		if out[i] == s.Label {
			hit++
		}
	}
	return 100 * float64(hit) / float64(len(test))
}

// checkLog scans the fleet's observe log: it must hold exactly the
// acknowledged observes, in chain order, and every user's batch indices
// must run 0, 1, 2, … without a gap.
func (e *servingEnv) checkLog(res chainResult) error {
	var acked []int
	for j, a := range res.acked {
		if a {
			acked = append(acked, j)
		}
	}
	next := map[string]int{}
	i := 0
	var bad error
	err := e.wlog.Scan(e.wlog.Start(), func(r *api.LogRecord) bool {
		if i >= len(acked) {
			bad = fmt.Errorf("observe log holds more than the %d acknowledged observes (seq %d user %q)", len(acked), r.Seq, r.User)
			return false
		}
		st := e.chain[acked[i]]
		switch {
		case r.User != st.user || r.Batch != st.k:
			bad = fmt.Errorf("observe log seq %d is user %q batch %d, acknowledged observe %d was user %q batch %d",
				r.Seq, r.User, r.Batch, i, st.user, st.k)
		case r.Batch != next[r.User]:
			bad = fmt.Errorf("observe log seq %d: user %q batch %d follows batch %d", r.Seq, r.User, r.Batch, next[r.User]-1)
		case len(r.Samples) != len(st.samples):
			bad = fmt.Errorf("observe log seq %d holds %d samples, want %d", r.Seq, len(r.Samples), len(st.samples))
		}
		for k, s := range r.Samples {
			if bad == nil && s.Label != st.samples[k].Label {
				bad = fmt.Errorf("observe log seq %d sample %d has label %d, want %d", r.Seq, k, s.Label, st.samples[k].Label)
			}
		}
		next[r.User]++
		i++
		return bad == nil
	})
	if err != nil {
		return fmt.Errorf("observe log scan: %w", err)
	}
	if bad != nil {
		return bad
	}
	if i != len(acked) {
		return fmt.Errorf("observe log holds %d records, %d observes were acknowledged", i, len(acked))
	}
	return nil
}
