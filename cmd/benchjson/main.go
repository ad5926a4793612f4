// Command benchjson measures the steady-state performance envelope of the
// online-learning hot path and writes it as machine-readable JSON (the PR
// regression artefact, BENCH_pr10.json by default):
//
//   - train_step: one TrainCEOn SGD step over a replay-sized batch
//     (ns/op, B/op, allocs/op — allocs must be 0 after warm-up),
//   - train_batched: the batched training core against the same step done
//     one sample at a time at B=32 — one GEMM per Dense over the whole batch
//     versus N GEMV round-trips. With -check the batched arm must hold a
//     ≥1.5× lead and stay at 0 allocs/op,
//   - precision: the kernel-tier comparison — the fp32 fused train step
//     against the split-update fp32 step and the float64 reference tier,
//     plus raw MatMul/MatVec ns/op at both precisions. With -check the
//     ratios become regression gates: the fused step must not regress
//     against split (≤1.05×), the fp32 tier must hold a ≥1.5× lead over
//     the fp64 reference, and the fused step must stay 0 allocs/op. Gates
//     are medians of per-round within-run ratios over interleaved rounds,
//     not absolute ns/op, so they hold on any machine,
//   - eval_batch: one cl.Evaluate pass over the full test pool,
//   - serial vs batched full-pool classification and their speedup
//     (the batched path must win by ≥2× and agree bit-for-bit),
//   - accuracy of the trained head on the synthetic pool (sanity: the
//     measured configuration actually learns),
//   - checkpoint: save/restore latency and frame size of a mid-stream
//     Chameleon snapshot, taken from the checkpoint package's own metrics,
//   - serve: a closed-loop load run (32 concurrent predict clients plus a
//     live observe stream) against an in-process serving instance, with
//     sustained throughput and p50/p95/p99 latency,
//   - fleet: a Zipf-user load run against an in-process multi-tenant fleet
//     server (10k-user id space, bounded hot-set), with sustained
//     throughput, eviction/fault-in counts, fault-in p50/p99 latency and
//     resident heap per 10k known users,
//   - replication: the warm-standby envelope — the serve load repeated
//     against a primary whose observe path appends to the durable log while
//     a standby tails it (added p99 vs the plain serve section), then a
//     rolling restart under load with client failover. With -check the
//     restart must lose zero requests and the survivor must pass the
//     (snapshot, log) bit-identity verification,
//   - frontier: the fp32-vs-int8 equal-bytes memory–accuracy frontier —
//     latent and Chameleon stores at the same byte budget, int8 arms holding
//     ~4–5× the samples, run over both Domain-IL streams at test scale. With
//     -check the Chameleon pairs must hold a ≥4× sample ratio and the int8
//     arm must stay within 1.0 accuracy point of fp32 on every dataset,
//   - metrics: the full end-of-run observability report (every counter,
//     gauge and histogram the instrumented run produced).
//
// The perf sections use synthetic data — per-class Gaussian prototypes in
// latent space — so the gate-only -quick run is self-contained and finishes
// in seconds. The frontier section (full runs only) builds the real dataset
// pipeline at test scale; latents are cached, so only the first run per
// machine pays the extraction cost.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"chameleon/internal/api"
	"chameleon/internal/baselines"
	"chameleon/internal/checkpoint"
	"chameleon/internal/cl"
	"chameleon/internal/cli"
	"chameleon/internal/core"
	"chameleon/internal/exp"
	"chameleon/internal/fleet"
	"chameleon/internal/mobilenet"
	"chameleon/internal/nn"
	"chameleon/internal/obs"
	"chameleon/internal/parallel"
	"chameleon/internal/replication"
	"chameleon/internal/serve"
	"chameleon/internal/tensor"
)

// metric is one testing.Benchmark measurement.
type metric struct {
	NsPerOp     int64 `json:"ns_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
}

func measure(f func()) metric {
	// Warm the workspace pools first so steady state is what gets measured.
	f()
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f()
		}
	})
	return metric{NsPerOp: r.NsPerOp(), BytesPerOp: r.AllocedBytesPerOp(), AllocsPerOp: r.AllocsPerOp()}
}

// measureInterleaved benchmarks every arm round-robin `rounds` times and keeps
// each arm's fastest round. On a shared (often single-vCPU) runner one
// testing.Benchmark window can absorb a noisy-neighbour period wholesale,
// which would skew any single-shot comparison between arms; interleaving
// spreads such periods across all arms, and the per-arm minimum is the robust
// estimator for compute-bound kernels because interference only ever adds
// time. Allocation counts are deterministic, so they ride along with whichever
// round was fastest. ns[i][r] is arm i's ns/op in round r, for the gates'
// per-round ratios (medianRatio).
func measureInterleaved(rounds int, arms ...func()) (best []metric, ns [][]float64) {
	best = make([]metric, len(arms))
	ns = make([][]float64, len(arms))
	for r := 0; r < rounds; r++ {
		for i, f := range arms {
			m := measure(f)
			ns[i] = append(ns[i], float64(m.NsPerOp))
			if r == 0 || m.NsPerOp < best[i].NsPerOp {
				best[i] = m
			}
		}
	}
	return best, ns
}

// medianRatio is the median over rounds of num[r]/den[r]. Each ratio compares
// two arms measured back to back, so a slow period inflates both halves of
// one round instead of one arm's minimum, and the median discards the rounds
// it skewed anyway.
func medianRatio(num, den []float64) float64 {
	rs := make([]float64, len(num))
	for r := range num {
		rs[r] = num[r] / den[r]
	}
	sort.Float64s(rs)
	if n := len(rs); n%2 == 0 {
		return (rs[n/2-1] + rs[n/2]) / 2
	}
	return rs[len(rs)/2]
}

// report is the BENCH_pr3.json schema. SerialEval is the pre-workspace serial
// Predict loop (a head without a workspace — the eval path as it existed
// before pooling, one allocation-fresh Forward per sample); PooledSerialEval
// is the same loop over the pooled head; BatchedEval is the PredictInto path.
// EvalSpeedup is SerialEval/BatchedEval — the full win of this change over
// the prior evaluation loop; PooledSpeedup isolates batching alone.
type report struct {
	GeneratedUnix int64 `json:"generated_unix"`
	Workers       int   `json:"workers"`
	Classes       int   `json:"classes"`
	PoolSize      int   `json:"pool_size"`
	BatchSize     int   `json:"batch_size"`
	// Quick marks a gate-only run (-quick): the serve and checkpoint
	// sections are skipped and zeroed.
	Quick            bool               `json:"quick"`
	TrainStep        metric             `json:"train_step"`
	TrainBatched     trainBatchedReport `json:"train_batched"`
	Precision        precisionReport    `json:"precision"`
	EvalBatch        metric             `json:"eval_batch"`
	SerialEval       metric             `json:"serial_eval"`
	PooledSerialEval metric             `json:"pooled_serial_eval"`
	BatchedEval      metric             `json:"batched_eval"`
	EvalSpeedup      float64            `json:"eval_speedup"`
	PooledSpeedup    float64            `json:"pooled_speedup"`
	PredictionsMatch bool               `json:"predictions_match"`
	AccuracyPct      float64            `json:"accuracy_pct"`
	// Checkpoint durability cost of a mid-stream Chameleon snapshot, averaged
	// over checkpointRounds save/load round-trips; the numbers come from the
	// checkpoint package's own save/restore instrumentation, so this also
	// exercises the metrics plumbing end to end.
	CheckpointSaveMs    float64 `json:"checkpoint_save_ms"`
	CheckpointRestoreMs float64 `json:"checkpoint_restore_ms"`
	CheckpointSaves     int64   `json:"checkpoint_saves"`
	CheckpointRestores  int64   `json:"checkpoint_restores"`
	CheckpointFrameKB   float64 `json:"checkpoint_frame_kb"`
	// Serve is the closed-loop load run against an in-process serving
	// instance: 32 concurrent predict clients plus one live observe stream,
	// reported as sustained throughput and p50/p95/p99 latency.
	Serve serve.LoadReport `json:"serve"`
	// Fleet is the multi-tenant serving run: Zipf-popular users against an
	// in-process fleet server with a bounded hot-set, so the numbers cover
	// the eviction/fault-in path, not just steady-state residents.
	Fleet fleetReport `json:"fleet"`
	// Replication is the warm-standby section (full runs only; nil under
	// -quick): the serving tax of the durable observe log with a live
	// standby tailing it, and a rolling restart under load — handoff time
	// and zero failed requests are the headline numbers.
	Replication *replicationReport `json:"replication,omitempty"`
	// Frontier is the equal-bytes fp32-vs-int8 store comparison (full runs
	// only; nil under -quick).
	Frontier *exp.FrontierResult `json:"frontier,omitempty"`
	// Metrics is the structured end-of-run report of the default registry.
	Metrics obs.Report `json:"metrics"`
}

// precisionReport is the kernel-tier section: one replay-sized train step
// through the fp32 fused path, the fp32 split path and the fp64 reference
// tier, plus raw GEMM/GEMV kernels at both precisions. The ratios are the
// regression gates (see -check).
type precisionReport struct {
	TrainStepFP32Fused metric `json:"train_step_fp32_fused"`
	TrainStepFP32Split metric `json:"train_step_fp32_split"`
	TrainStepFP64Ref   metric `json:"train_step_fp64_ref"`
	MatMulFP32         metric `json:"matmul_fp32"`
	MatMulFP64         metric `json:"matmul_fp64"`
	MatVecFP32         metric `json:"matvec_fp32"`
	MatVecFP64         metric `json:"matvec_fp64"`
	// FP64OverFP32Fused is the median over rounds of ref-tier ns / fast-tier
	// ns for the train step (gate: ≥ 1.5 — the fast tier must actually be
	// fast).
	FP64OverFP32Fused float64 `json:"fp64_over_fp32_fused"`
	// FusedOverSplit is the median over rounds of fused ns / split ns (gate:
	// ≤ 1.05 — fusing must not regress the step).
	FusedOverSplit float64 `json:"fused_over_split"`
}

// precisionRounds is how many interleaved testing.Benchmark rounds feed the
// ungated raw-kernel measurements (the per-arm minimum is reported).
const precisionRounds = 5

// gateRounds is how many interleaved rounds feed each gated ratio (the median
// of the per-round ratios) and its arms' reported minimums.
const gateRounds = 9

// trainBatchedReport is the batch-first training section: one TrainCEOn step
// over a replay-batch-sized sample set through the batched core (pack → one
// GEMM per Dense → row-wise losses → batched fused backward) against
// perSampleStep, the same step done one sample at a time. Both heads start
// from the same seed and train on the same batch, so the arms differ only in
// kernel dispatch.
type trainBatchedReport struct {
	// BatchSize is B for this section (32 — the gate's operating point, wider
	// than the online replay batch so the GEMM has real work to amortise).
	BatchSize int    `json:"batch_size"`
	Batched   metric `json:"batched"`
	PerSample metric `json:"per_sample"`
	// Speedup is the median over rounds of per-sample ns / batched ns (gate:
	// ≥ 1.5 at B=32).
	Speedup float64 `json:"speedup"`
}

// trainBatchedB is the batch size the train_batched gate is measured at.
const trainBatchedB = 32

// perSampleStep is the per-sample arm of train_batched: one train-mode
// forward, cross-entropy gradient and backward per sample (one GEMV per Dense
// each way), then one Step over the accumulated gradient — the work the
// batched core replaces. grad is the caller's reusable logit-gradient scratch.
func perSampleStep(h *cl.Head, batch []cl.LatentSample, grad *tensor.Tensor) {
	h.ZeroGrad()
	for _, s := range batch {
		nn.CrossEntropyInto(h.Net.Forward(s.Z, true), s.Label, grad)
		h.Net.Backward(grad)
	}
	h.Step(float64(len(batch)))
}

// benchTrainBatched measures the batch-first section.
func benchTrainBatched(model *mobilenet.Model, train []cl.LatentSample, seed int64) trainBatchedReport {
	headCfg := cl.HeadConfig{LR: 0.1, Momentum: 0.5, Seed: seed}
	batchedHead := cl.NewHead(model, headCfg)
	perSampleHead := cl.NewHead(model, headCfg)
	grad := tensor.New(perSampleHead.Classes)
	stepBatch := train[:trainBatchedB]
	arms, ns := measureInterleaved(gateRounds,
		func() { batchedHead.TrainCEOn(stepBatch) },
		func() { perSampleStep(perSampleHead, stepBatch, grad) },
	)
	return trainBatchedReport{BatchSize: trainBatchedB, Batched: arms[0], PerSample: arms[1],
		Speedup: medianRatio(ns[1], ns[0])}
}

// benchPrecision measures the kernel-tier section. Every path trains a
// freshly initialised head over the same batch, so the three train-step
// numbers differ only in kernel tier, not in work.
func benchPrecision(model *mobilenet.Model, stepBatch []cl.LatentSample, seed int64) precisionReport {
	var p precisionReport

	// The heads train under the Table-I online regime (exp.Scale's LR 0.1,
	// momentum 0.5) so the measured step exercises the velocity stream the
	// real runs pay for.
	headCfg := cl.HeadConfig{LR: 0.1, Momentum: 0.5, Seed: seed}
	fusedHead := cl.NewHead(model, headCfg)
	splitHead := cl.NewHead(model, headCfg)
	splitHead.Opt.Fused = false
	ref, err := cl.NewRef64(cl.NewHead(model, headCfg))
	if err != nil {
		log.Fatalf("precision bench: widen head: %v", err)
	}
	refBatch := cl.LatentBatch{Samples: stepBatch}
	steps, stepNs := measureInterleaved(gateRounds,
		func() { fusedHead.TrainCEOn(stepBatch) },
		func() { splitHead.TrainCEOn(stepBatch) },
		func() { ref.Observe(refBatch) },
	)
	p.TrainStepFP32Fused, p.TrainStepFP32Split, p.TrainStepFP64Ref = steps[0], steps[1], steps[2]

	// Raw kernels, sized like the head's fc1 GEMM (latent width × hidden).
	const m, k, n = 64, 256, 128
	rng := rand.New(rand.NewSource(seed))
	a32, b32 := tensor.RandNormal(rng, 1, m, k), tensor.RandNormal(rng, 1, k, n)
	c32, v32, y32 := tensor.New(m, n), tensor.RandNormal(rng, 1, k), tensor.New(m)
	a64, b64, v64 := tensor.Widen(a32), tensor.Widen(b32), tensor.Widen(v32)
	c64, y64 := tensor.NewOf[float64](m, n), tensor.NewOf[float64](m)
	kernels, _ := measureInterleaved(precisionRounds,
		func() { tensor.MatMulInto(c32, a32, b32) },
		func() { tensor.MatMulInto(c64, a64, b64) },
		func() { tensor.MatVecInto(y32, a32, v32) },
		func() { tensor.MatVecInto(y64, a64, v64) },
	)
	p.MatMulFP32, p.MatMulFP64, p.MatVecFP32, p.MatVecFP64 = kernels[0], kernels[1], kernels[2], kernels[3]

	p.FP64OverFP32Fused = medianRatio(stepNs[2], stepNs[0])
	p.FusedOverSplit = medianRatio(stepNs[0], stepNs[1])
	return p
}

// checkGates applies the within-run regression gates and returns the
// violations (empty = pass).
func checkGates(rep *report) []string {
	var fails []string
	if rep.TrainStep.AllocsPerOp != 0 {
		fails = append(fails, fmt.Sprintf("train_step allocs/op = %d, want 0", rep.TrainStep.AllocsPerOp))
	}
	if rep.Precision.TrainStepFP32Fused.AllocsPerOp != 0 {
		fails = append(fails, fmt.Sprintf("fp32 fused train step allocs/op = %d, want 0", rep.Precision.TrainStepFP32Fused.AllocsPerOp))
	}
	if rep.Precision.FP64OverFP32Fused < 1.5 {
		fails = append(fails, fmt.Sprintf("fp64/fp32-fused train-step ratio = %.2f, want >= 1.5 (fast tier lost its lead)", rep.Precision.FP64OverFP32Fused))
	}
	if rep.Precision.FusedOverSplit > 1.05 {
		fails = append(fails, fmt.Sprintf("fused/split train-step ratio = %.2f, want <= 1.05 (fused kernel regressed)", rep.Precision.FusedOverSplit))
	}
	if !rep.PredictionsMatch {
		fails = append(fails, "serial, pooled and batched eval predictions diverge")
	}
	if rep.TrainBatched.Batched.AllocsPerOp != 0 {
		fails = append(fails, fmt.Sprintf("batched train step allocs/op = %d, want 0", rep.TrainBatched.Batched.AllocsPerOp))
	}
	if rep.TrainBatched.Speedup < 1.5 {
		fails = append(fails, fmt.Sprintf("batched/per-sample train-step speedup = %.2f at B=%d, want >= 1.5 (batch-first path lost its lead)",
			rep.TrainBatched.Speedup, rep.TrainBatched.BatchSize))
	}
	// Replication gates (full runs only): the rolling restart must lose no
	// requests, and the survivor must pass (snapshot, log) bit-identity.
	if rep.Replication != nil {
		if rep.Replication.Failover.Errors != 0 {
			fails = append(fails, fmt.Sprintf("replication failover run lost %d request(s), want 0 (zero-downtime handoff broken)", rep.Replication.Failover.Errors))
		}
		if !rep.Replication.VerifyEqual {
			fails = append(fails, "replication survivor failed (snapshot, log) bit-identity verification")
		}
	}
	// Equal-bytes frontier gates (full runs only): the int8 Chameleon store
	// must actually convert its byte budget into ≥4× the samples, and those
	// samples must not cost accuracy — within 1.0 point of fp32 everywhere.
	if rep.Frontier != nil {
		for _, p := range rep.Frontier.Pairs {
			if p.Method != "chameleon" {
				continue
			}
			if p.SampleRatio < 4 {
				fails = append(fails, fmt.Sprintf("frontier chameleon-%d: int8/fp32 sample ratio = %.2f, want >= 4", p.Budget, p.SampleRatio))
			}
			for _, ds := range rep.Frontier.Datasets {
				if p.DeltaPts[ds] < -1.0 {
					fails = append(fails, fmt.Sprintf("frontier chameleon-%d on %s: int8 arm %.2f pts below fp32, want >= -1.0", p.Budget, ds, p.DeltaPts[ds]))
				}
			}
		}
	}
	return fails
}

// benchFrontier builds both Domain-IL latent sets at test scale (cached
// after the first run per machine) and runs the equal-bytes fp32-vs-int8
// frontier. Budgets sit below the Fig. 2 grid deliberately: the test-scale
// stream promotes at most ~64 samples into the long-term store, so both
// arms' capacities must stay inside what the stream can fill — a store
// bigger than the promotion count retains stale early-domain samples that
// class-balanced eviction would have flushed, which degrades *both* dtypes
// equally (measured: fp32 and int8 drop in lockstep at cap 109+) and would
// measure a stream-length artefact instead of the representation. At
// budgets 4 and 8 the int8 arms (45/61 and 15/31 samples) are exercised in
// full, which is also the edge-memory regime the frontier is about.
func benchFrontier() *exp.FrontierResult {
	sc := exp.TestScale()
	sets := map[string]*cl.LatentSet{}
	for _, name := range []string{"core50", "openloris"} {
		set, err := exp.BuildLatentSet(name, sc, exp.DefaultCacheDir(), log.Printf)
		if err != nil {
			log.Fatalf("frontier: build %s: %v", name, err)
		}
		sets[name] = set
	}
	res, err := exp.RunFrontier(sets, sc, []int{4, 8}, log.Printf)
	if err != nil {
		log.Fatalf("frontier: %v", err)
	}
	return res
}

// checkpointRounds is how many save/load round-trips feed the checkpoint
// latency averages.
const checkpointRounds = 20

// benchCheckpoint drives a Chameleon learner over a short synthetic stream,
// then round-trips its snapshot through checkpoint.Save/Load; the registry's
// checkpoint_* metrics pick up the latency and frame size.
func benchCheckpoint(rep *report, model *mobilenet.Model, train []cl.LatentSample, batch int, seed int64) {
	head := cl.NewHead(model, cl.HeadConfig{Seed: seed + 1})
	learner := core.New(head, core.Config{STCap: 10, LTCap: 100, AccessRate: 5, Seed: seed})
	for start := 0; start+batch <= len(train) && start < 20*batch; start += batch {
		learner.Observe(cl.LatentBatch{Samples: train[start : start+batch]})
	}
	snap, err := learner.Snapshot()
	if err != nil {
		log.Fatalf("checkpoint bench: snapshot: %v", err)
	}
	dir, err := os.MkdirTemp("", "benchjson-ckpt")
	if err != nil {
		log.Fatalf("checkpoint bench: %v", err)
	}
	defer os.RemoveAll(dir)
	path := dir + "/bench.ckpt"
	before := obs.Default().Report()
	for i := 0; i < checkpointRounds; i++ {
		if err := checkpoint.Save(path, "bench.chameleon", snap); err != nil {
			log.Fatalf("checkpoint bench: save: %v", err)
		}
		var restored []byte
		if err := checkpoint.Load(path, "bench.chameleon", &restored); err != nil {
			log.Fatalf("checkpoint bench: load: %v", err)
		}
	}
	after := obs.Default().Report()
	saveH, loadH := after.Histograms["checkpoint_save_seconds"], after.Histograms["checkpoint_restore_seconds"]
	saveB, loadB := before.Histograms["checkpoint_save_seconds"], before.Histograms["checkpoint_restore_seconds"]
	rep.CheckpointSaves = saveH.Count - saveB.Count
	rep.CheckpointRestores = loadH.Count - loadB.Count
	if rep.CheckpointSaves > 0 {
		rep.CheckpointSaveMs = 1e3 * (saveH.Sum - saveB.Sum) / float64(rep.CheckpointSaves)
	}
	if rep.CheckpointRestores > 0 {
		rep.CheckpointRestoreMs = 1e3 * (loadH.Sum - loadB.Sum) / float64(rep.CheckpointRestores)
	}
	bytes := after.Counters["checkpoint_save_bytes_total"] - before.Counters["checkpoint_save_bytes_total"]
	if rep.CheckpointSaves > 0 {
		rep.CheckpointFrameKB = float64(bytes) / float64(rep.CheckpointSaves) / 1024
	}
}

// benchServe stands up a full serving instance around a fresh Chameleon
// learner and drives it with the load generator: 32 concurrent closed-loop
// predict clients (the PR's acceptance floor) plus a live observe stream.
func benchServe(model *mobilenet.Model, classes int, seed int64) serve.LoadReport {
	head := cl.NewHead(model, cl.HeadConfig{Seed: seed + 2})
	learner := core.New(head, core.Config{STCap: 10, LTCap: 100, AccessRate: 5, Seed: seed})
	srv, err := serve.New(learner, serve.Config{LatentShape: model.LatentShape, Classes: classes})
	if err != nil {
		log.Fatalf("serve bench: %v", err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		log.Fatalf("serve bench: %v", err)
	}
	rep, err := serve.RunLoad("http://"+srv.Addr(), serve.LoadOptions{
		Clients:        32,
		Duration:       2 * time.Second,
		ObserveBatches: 20,
		Seed:           seed,
	})
	if err != nil {
		log.Fatalf("serve bench: load: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatalf("serve bench: shutdown: %v", err)
	}
	return rep
}

// replicationReport is the warm-standby section of the PR artefact: the same
// closed-loop load the serve section runs, but against a primary that appends
// every observe to its durable log while a warm standby tails it, then a
// rolling restart of the primary under load with the client's -failover
// retry path engaged.
type replicationReport struct {
	// Replicated is the load run against the primary with the WAL on and the
	// standby streaming — same shape as the serve section, so the p99 delta
	// against it is the client-visible cost of replication.
	Replicated serve.LoadReport `json:"replicated"`
	// AddedP99Ms is Replicated p99 minus the plain (no-WAL, no-standby)
	// serve section's p99, in milliseconds. Noise can drive it slightly
	// negative on quiet machines; it is reported, not gated.
	AddedP99Ms float64 `json:"added_p99_ms"`
	// Failover is the rolling-restart run: the primary shuts down mid-load
	// while clients retry onto the standby. Errors is gated to 0 — the
	// zero-downtime handoff contract.
	Failover serve.LoadReport `json:"failover"`
	// HandoffMs is the wall time from initiating the primary's shutdown to
	// the standby answering as primary (drain + final log page + promote).
	HandoffMs float64 `json:"handoff_ms"`
	// VerifyEqual is the survivor's /v1/replication/verify verdict: a fresh
	// learner rebuilt from (snapshot, log suffix) is bit-identical to the
	// live one. Gated.
	VerifyEqual bool `json:"verify_equal"`
}

// benchReplication stands up a primary (observe log on) plus a warm standby
// tailing it, measures the replicated serving envelope, then rolls the
// primary over under load and times the handoff.
func benchReplication(model *mobilenet.Model, classes int, seed int64, plainP99Ms float64) *replicationReport {
	newLearner := func() (cl.Learner, error) {
		head := cl.NewHead(model, cl.HeadConfig{Seed: seed + 4})
		return core.New(head, core.Config{STCap: 10, LTCap: 100, AccessRate: 5, Seed: seed + 4}), nil
	}
	openLog := func(dir string) *replication.Log {
		wlog, err := replication.Open(dir, replication.Options{Registry: obs.NewRegistry()})
		if err != nil {
			log.Fatalf("replication bench: open log: %v", err)
		}
		return wlog
	}
	pdir, err := os.MkdirTemp("", "benchjson-repl")
	if err != nil {
		log.Fatalf("replication bench: %v", err)
	}
	defer os.RemoveAll(pdir)
	plog, slog := openLog(pdir+"/primary"), openLog(pdir+"/standby")
	defer plog.Close()
	defer slog.Close()

	newServer := func(wlog *replication.Log, standby bool) *serve.Server {
		l, err := newLearner()
		if err != nil {
			log.Fatalf("replication bench: learner: %v", err)
		}
		srv, err := serve.New(l, serve.Config{
			LatentShape:     model.LatentShape,
			Classes:         classes,
			WAL:             wlog,
			Standby:         standby,
			NewLearner:      newLearner,
			SnapshotsEqual:  core.SnapshotsEqual,
			CheckpointEvery: 8,
		})
		if err != nil {
			log.Fatalf("replication bench: serve: %v", err)
		}
		if err := srv.Start("127.0.0.1:0"); err != nil {
			log.Fatalf("replication bench: start: %v", err)
		}
		return srv
	}
	primary := newServer(plog, false)
	standby := newServer(slog, true)
	primaryURL := "http://" + primary.Addr()
	standbyURL := "http://" + standby.Addr()

	fol, err := replication.NewFollower(replication.FollowerConfig{
		PrimaryURL:    primaryURL,
		Target:        standby,
		PollInterval:  5 * time.Millisecond,
		FailoverAfter: -1, // promotion only via the primary's graceful handoff
		Registry:      obs.NewRegistry(),
	})
	if err != nil {
		log.Fatalf("replication bench: follower: %v", err)
	}
	folCtx, folCancel := context.WithCancel(context.Background())
	folDone := make(chan error, 1)
	go func() { folDone <- fol.Run(folCtx) }()

	rep := &replicationReport{}

	// Phase 1: steady-state replicated serving — WAL appends on the observe
	// path, the standby pulling log pages the whole time.
	rep.Replicated, err = serve.RunLoad(primaryURL, serve.LoadOptions{
		Clients:        32,
		Duration:       2 * time.Second,
		ObserveBatches: 20,
		Seed:           seed,
	})
	if err != nil {
		log.Fatalf("replication bench: replicated load: %v", err)
	}
	rep.AddedP99Ms = rep.Replicated.P99Ms - plainP99Ms

	// Phase 2: rolling restart under load. Clients target the primary with
	// the standby as the failover pool; the primary shuts down mid-run.
	loadDone := make(chan struct{})
	var failoverRep serve.LoadReport
	var loadErr error
	go func() {
		defer close(loadDone)
		failoverRep, loadErr = serve.RunLoad(primaryURL, serve.LoadOptions{
			Clients:        32,
			Duration:       2 * time.Second,
			ObserveBatches: 20,
			Seed:           seed + 1,
			Failover:       standbyURL,
		})
	}()
	time.Sleep(500 * time.Millisecond)
	t0 := time.Now()
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 30*time.Second)
	if err := primary.Shutdown(shutCtx); err != nil {
		log.Fatalf("replication bench: primary shutdown: %v", err)
	}
	shutCancel()
	for !standby.Ready() {
		time.Sleep(time.Millisecond)
	}
	rep.HandoffMs = 1e3 * time.Since(t0).Seconds()
	<-loadDone
	if loadErr != nil {
		log.Fatalf("replication bench: failover load: %v", loadErr)
	}
	rep.Failover = failoverRep
	folCancel()
	<-folDone

	// The survivor proves the log: rebuild from (snapshot, log suffix) and
	// compare bit-for-bit against the live learner.
	resp, err := http.Get(standbyURL + "/v1/replication/verify")
	if err != nil {
		log.Fatalf("replication bench: verify: %v", err)
	}
	var vr api.VerifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&vr); err != nil {
		log.Fatalf("replication bench: verify decode: %v", err)
	}
	resp.Body.Close()
	rep.VerifyEqual = vr.Equal

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := standby.Shutdown(ctx); err != nil {
		log.Fatalf("replication bench: survivor shutdown: %v", err)
	}
	return rep
}

// fleetReport is the multi-tenant section of the PR artefact: one Zipf-user
// load run against an in-process fleet server whose hot-set is far smaller
// than the user population, so a meaningful fraction of requests pays the
// evict/fault-in path and the latency histogram actually covers it.
type fleetReport struct {
	Users  int `json:"users"`
	HotSet int `json:"hot_set"`
	Shards int `json:"shards"`
	// Load is the same closed-loop load report the single-learner serve
	// section uses, here with per-request user ids drawn Zipf(s=1.2).
	Load serve.LoadReport `json:"load"`
	// UsersKnown / Resident / Evictions / FaultIns come from fleet.Stats()
	// at the end of the run (before drain).
	UsersKnown int64 `json:"users_known"`
	Resident   int64 `json:"resident_learners"`
	Evictions  int64 `json:"evictions_total"`
	FaultIns   int64 `json:"fault_ins_total"`
	// Fault-in latency quantiles from the fleet_fault_in_seconds histogram
	// (bucket-interpolated, so coarse but machine-independent in shape).
	FaultInP50Ms float64 `json:"fault_in_p50_ms"`
	FaultInP99Ms float64 `json:"fault_in_p99_ms"`
	// HeapMB is the live-heap growth attributable to the fleet run (GC'd
	// before/after measurement); HeapMBPer10kUsers normalises it to the
	// paper-scale question "what does 10k known users cost resident?" —
	// with a bounded hot-set the answer must stay near the hot-set cost,
	// not scale with the user count.
	HeapMB            float64 `json:"heap_mb"`
	HeapMBPer10kUsers float64 `json:"heap_mb_per_10k_users"`
}

// benchFleet stands up a fleet server (10k-user id space, 32-slot hot-set,
// 4 shards) around per-user Chameleon learners and drives it with the Zipf
// load generator.
func benchFleet(model *mobilenet.Model, classes int, seed int64) fleetReport {
	const users, hotSet, shards = 10000, 32, 4

	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)

	dir, err := os.MkdirTemp("", "benchjson-fleet")
	if err != nil {
		log.Fatalf("fleet bench: %v", err)
	}
	defer os.RemoveAll(dir)
	fl, err := fleet.New(fleet.Config{
		New: func(user string) (cl.Learner, error) {
			s := fleet.UserSeed(seed+3, user)
			head := cl.NewHead(model, cl.HeadConfig{Seed: s})
			return core.New(head, core.Config{STCap: 10, LTCap: 100, AccessRate: 5, Seed: s}), nil
		},
		Dir:        dir,
		MaxUsers:   users,
		HotSet:     hotSet,
		Shards:     shards,
		QueueDepth: 256,
	})
	if err != nil {
		log.Fatalf("fleet bench: %v", err)
	}
	srv, err := serve.New(nil, serve.Config{LatentShape: model.LatentShape, Classes: classes, Fleet: fl})
	if err != nil {
		log.Fatalf("fleet bench: %v", err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		log.Fatalf("fleet bench: %v", err)
	}
	before := obs.Default().Report()
	load, err := serve.RunLoad("http://"+srv.Addr(), serve.LoadOptions{
		Clients:        16,
		Duration:       2 * time.Second,
		ObserveBatches: 40,
		Users:          users,
		Seed:           seed,
	})
	if err != nil {
		log.Fatalf("fleet bench: load: %v", err)
	}
	st := fl.Stats()

	// Resident cost: measure while the hot-set is still populated, before the
	// drain evicts everything back to disk.
	runtime.GC()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatalf("fleet bench: shutdown: %v", err)
	}

	rep := fleetReport{
		Users:      users,
		HotSet:     hotSet,
		Shards:     shards,
		Load:       load,
		UsersKnown: st.UsersKnown,
		Resident:   st.Resident,
		Evictions:  st.Evictions,
		FaultIns:   st.FaultIns,
	}
	if h, ok := obs.Default().Report().Histograms["fleet_fault_in_seconds"]; ok && h.Count > before.Histograms["fleet_fault_in_seconds"].Count {
		rep.FaultInP50Ms = 1e3 * h.Quantile(0.50)
		rep.FaultInP99Ms = 1e3 * h.Quantile(0.99)
	}
	if m1.HeapAlloc > m0.HeapAlloc {
		rep.HeapMB = float64(m1.HeapAlloc-m0.HeapAlloc) / (1 << 20)
	}
	if st.UsersKnown > 0 {
		rep.HeapMBPer10kUsers = rep.HeapMB * 1e4 / float64(st.UsersKnown)
	}
	return rep
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	var perf cli.Perf
	perf.Bind(flag.CommandLine)
	var (
		out     = flag.String("out", "BENCH_pr10.json", "output JSON path")
		classes = flag.Int("classes", 10, "synthetic class count")
		pool    = flag.Int("pool", 400, "test-pool size")
		batch   = flag.Int("batch", 11, "train-step batch size (incoming + replay)")
		seed    = flag.Int64("seed", 7, "data and head seed")
		quick   = flag.Bool("quick", false, "gate-only run: skip the serve and checkpoint sections")
		check   = flag.Bool("check", false, "apply the regression gates and exit non-zero on violation")
	)
	flag.Parse()
	if err := perf.Validate(); err != nil {
		log.Fatal(err)
	}
	stop, err := perf.Start(log.Printf)
	if err != nil {
		log.Fatal(err)
	}
	defer stop()

	model, err := mobilenet.New(mobilenet.DefaultConfig(*classes, *seed))
	if err != nil {
		log.Fatalf("backbone: %v", err)
	}
	head := cl.NewHead(model, cl.HeadConfig{Seed: *seed})
	learner := baselines.NewFinetune(head)

	// Synthetic latents: one Gaussian prototype per class plus sample noise,
	// shaped like the backbone's latent activations.
	rng := rand.New(rand.NewSource(*seed))
	protos := make([]*tensor.Tensor, *classes)
	for c := range protos {
		protos[c] = tensor.RandNormal(rng, 1.0, model.LatentShape...)
	}
	sample := func(c int) cl.LatentSample {
		z := tensor.RandNormal(rng, 0.3, model.LatentShape...)
		z.AddInPlace(protos[c])
		return cl.LatentSample{Z: z, Label: c}
	}
	train := make([]cl.LatentSample, 4**pool)
	for i := range train {
		train[i] = sample(i % *classes)
	}
	test := make([]cl.LatentSample, *pool)
	for i := range test {
		test[i] = sample(i % *classes)
	}

	// Train to a plausible operating point before timing anything, so the
	// measured steady state is the one real runs live in.
	for start := 0; start < len(train); start += *batch {
		end := start + *batch
		if end > len(train) {
			end = len(train)
		}
		head.TrainCEOn(train[start:end])
	}
	acc := cl.Evaluate(learner, test)

	stepBatch := train[:*batch]
	zs := make([]*tensor.Tensor, len(test))
	for i, s := range test {
		zs[i] = s.Z
	}
	serialPreds := make([]int, len(test))
	pooledPreds := make([]int, len(test))
	batchedPreds := make([]int, len(test))

	// The pre-PR baseline: a hand-built head with no workspace, evaluating
	// through the allocation-fresh serial path, with the trained weights
	// copied in so all three paths classify the same function.
	unpooled := &cl.Head{Net: model.Head, Opt: nn.NewSGD(0.01), Classes: *classes}
	unpooled.Restore(head.Snapshot())

	rep := report{
		GeneratedUnix: time.Now().Unix(),
		Workers:       parallel.Workers(),
		Classes:       *classes,
		PoolSize:      *pool,
		BatchSize:     *batch,
		AccuracyPct:   100 * acc.AccAll,
	}
	rep.TrainStep = measure(func() { head.TrainCEOn(stepBatch) })
	rep.EvalBatch = measure(func() { cl.Evaluate(learner, test) })
	rep.SerialEval = measure(func() {
		for i, z := range zs {
			serialPreds[i] = unpooled.Predict(z)
		}
	})
	rep.PooledSerialEval = measure(func() {
		for i, z := range zs {
			pooledPreds[i] = learner.Predict(z)
		}
	})
	rep.BatchedEval = measure(func() {
		if err := cl.PredictInto(learner, zs, batchedPreds); err != nil {
			log.Fatalf("batched eval: %v", err)
		}
	})
	rep.EvalSpeedup = float64(rep.SerialEval.NsPerOp) / float64(rep.BatchedEval.NsPerOp)
	rep.PooledSpeedup = float64(rep.PooledSerialEval.NsPerOp) / float64(rep.BatchedEval.NsPerOp)
	rep.PredictionsMatch = true
	for i := range serialPreds {
		if serialPreds[i] != batchedPreds[i] || pooledPreds[i] != batchedPreds[i] {
			rep.PredictionsMatch = false
			break
		}
	}
	rep.TrainBatched = benchTrainBatched(model, train, *seed)
	rep.Precision = benchPrecision(model, stepBatch, *seed)
	rep.Quick = *quick
	if !*quick {
		benchCheckpoint(&rep, model, train, *batch, *seed)
		benchServe(model, *classes, *seed) // warm-up run: JIT-free, but settles pools/conn reuse
		rep.Serve = benchServe(model, *classes, *seed)
		rep.Fleet = benchFleet(model, *classes, *seed)
		rep.Replication = benchReplication(model, *classes, *seed, rep.Serve.P99Ms)
		rep.Frontier = benchFrontier()
	}
	// Snapshot last so the report carries everything the run produced: trainer
	// phase histograms, replay-store counters, pool utilisation, head timings,
	// and the serving layer's queue/batch/shed instrumentation.
	rep.Metrics = obs.Default().Report()

	f, err := os.Create(*out)
	if err != nil {
		log.Fatalf("create %s: %v", *out, err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		log.Fatalf("encode: %v", err)
	}
	if err := f.Close(); err != nil {
		log.Fatalf("close: %v", err)
	}

	fmt.Printf("train_step: %d ns/op, %d allocs/op\n", rep.TrainStep.NsPerOp, rep.TrainStep.AllocsPerOp)
	fmt.Printf("eval_batch (pool=%d): %d ns/op, %d allocs/op\n", rep.PoolSize, rep.EvalBatch.NsPerOp, rep.EvalBatch.AllocsPerOp)
	fmt.Printf("serial Predict loop: %d ns/op, %d allocs/op\n", rep.SerialEval.NsPerOp, rep.SerialEval.AllocsPerOp)
	fmt.Printf("eval speedup (batched vs serial Predict loop): %.2fx (vs pooled serial: %.2fx), predictions match: %v\n",
		rep.EvalSpeedup, rep.PooledSpeedup, rep.PredictionsMatch)
	fmt.Printf("train_batched (B=%d): batched %d ns/op (%d allocs), per-sample %d ns/op, speedup %.2fx (gate >= 1.5)\n",
		rep.TrainBatched.BatchSize, rep.TrainBatched.Batched.NsPerOp, rep.TrainBatched.Batched.AllocsPerOp,
		rep.TrainBatched.PerSample.NsPerOp, rep.TrainBatched.Speedup)
	fmt.Printf("precision: fused %d ns/op (%d allocs), split %d ns/op, fp64 ref %d ns/op\n",
		rep.Precision.TrainStepFP32Fused.NsPerOp, rep.Precision.TrainStepFP32Fused.AllocsPerOp,
		rep.Precision.TrainStepFP32Split.NsPerOp, rep.Precision.TrainStepFP64Ref.NsPerOp)
	fmt.Printf("precision ratios: fp64/fp32-fused %.2fx (gate >= 1.5), fused/split %.2fx (gate <= 1.05)\n",
		rep.Precision.FP64OverFP32Fused, rep.Precision.FusedOverSplit)
	if !*quick {
		fmt.Printf("checkpoint: save %.2f ms, restore %.2f ms, frame %.0f KB (%d round-trips)\n",
			rep.CheckpointSaveMs, rep.CheckpointRestoreMs, rep.CheckpointFrameKB, rep.CheckpointSaves)
		fmt.Printf("serve (%d clients): %.0f req/s, p50 %.2f ms, p95 %.2f ms, p99 %.2f ms, shed %d\n",
			rep.Serve.Clients, rep.Serve.ThroughputRPS, rep.Serve.P50Ms, rep.Serve.P95Ms, rep.Serve.P99Ms, rep.Serve.Shed)
		fmt.Printf("fleet (%d users zipf, hot %d): %.0f req/s, users_known %d, evictions %d, fault-ins %d, fault-in p99 %.2f ms, heap %.1f MB/10k users\n",
			rep.Fleet.Users, rep.Fleet.HotSet, rep.Fleet.Load.ThroughputRPS,
			rep.Fleet.UsersKnown, rep.Fleet.Evictions, rep.Fleet.FaultIns,
			rep.Fleet.FaultInP99Ms, rep.Fleet.HeapMBPer10kUsers)
		fmt.Printf("replication: %.0f req/s replicated (p99 %.2f ms, +%.2f ms over plain), rolling restart: %d errors, %d failovers, handoff %.0f ms, verify equal %v\n",
			rep.Replication.Replicated.ThroughputRPS, rep.Replication.Replicated.P99Ms, rep.Replication.AddedP99Ms,
			rep.Replication.Failover.Errors, rep.Replication.Failover.Failovers, rep.Replication.HandoffMs, rep.Replication.VerifyEqual)
		rep.Frontier.Render(os.Stdout)
	}
	fmt.Printf("accuracy: %.1f%%  →  %s\n", rep.AccuracyPct, *out)
	if *check {
		if fails := checkGates(&rep); len(fails) > 0 {
			for _, f := range fails {
				log.Printf("GATE FAIL: %s", f)
			}
			log.Fatalf("%d regression gate(s) failed", len(fails))
		}
		fmt.Println("regression gates: all passed")
	}
}
