package main

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"time"

	"chameleon/internal/api"
)

// layerMetrics is every per-layer metric a traced run prints, in order.
// BENCHMARK.json lists the same names.
var layerMetrics = []struct{ name, unit string }{
	{"loadgen.lag_p99_ms", "ms"}, {"loadgen.predict_p99_ms", "ms"}, {"loadgen.observe_p99_ms", "ms"},
	{"loadgen.open.sent", "count"}, {"loadgen.open.ok", "count"}, {"loadgen.open.failed", "count"}, {"loadgen.open.shed", "count"},
	{"loadgen.closed.sent", "count"}, {"loadgen.closed.ok", "count"}, {"loadgen.closed.failed", "count"}, {"loadgen.closed.shed", "count"},
	{"api.decode_us", "us"}, {"api.body_bytes", "bytes"},
	{"serve.handler_ms", "ms"}, {"serve.predict_wait_ms", "ms"}, {"serve.predict_batch_size", "count"}, {"serve.observe_apply_ms", "ms"},
	{"cl.predict_batch_ms", "ms"}, {"cl.predict_ms", "ms"}, {"cl.observe_ms", "ms"}, {"cl.head_train_step_ms", "ms"},
	{"nn.train_steps_batched", "count"}, {"nn.train_steps_per_sample", "count"},
	{"core.step_ms", "ms"}, {"core.extract_ms", "ms"}, {"core.concat_ms", "ms"}, {"core.sgd_ms", "ms"},
	{"core.ms_update_ms", "ms"}, {"core.ml_promote_ms", "ms"}, {"core.ml_promotions", "count"},
	{"replay.samples_drawn", "count"}, {"replay.int8_decodes", "count"},
	{"baselines.observe_ms", "ms"},
	{"parallel.for_calls", "1/batch"}, {"parallel.chunks_spawned", "1/batch"}, {"parallel.chunks_inline", "1/batch"},
	{"runtime.allocs_per_op", "count"}, {"runtime.gc_pause_ms", "ms"}, {"host.steal_pct", "%"},
	{"fleet.miss_ratio", "ratio"}, {"fleet.fault_in_ms", "ms"}, {"fleet.evict_ms", "ms"}, {"fleet.snapshot_ms", "ms"},
	{"fleet.restore_ms", "ms"}, {"fleet.replayed_batches", "count"},
	{"replication.append_ms", "ms"}, {"replication.fsync_ms", "ms"}, {"replication.append_bytes", "bytes"}, {"replication.log_mb", "MB"},
	{"checkpoint.save_ms", "ms"}, {"checkpoint.restore_ms", "ms"}, {"checkpoint.frame_kb", "KB"},
	{"trace.overhead_pct", "%"}, {"trace.spans", "count"}, {"trace.e2e_ms", "ms"},
	{"trace.self.api_ms", "ms"}, {"trace.self.serve_ms", "ms"}, {"trace.self.cl_ms", "ms"}, {"trace.self.fleet_ms", "ms"},
	{"trace.unaccounted_ms", "ms"}, {"trace.unaccounted_pct", "%"},
}

// initLayers sets every per-layer metric to zero; a workload that does not
// reach a layer leaves its zeros (fleet.* on serve-json, say).
func initLayers(o *outcome) {
	for _, m := range layerMetrics {
		o.layer(m.name, 0, m.unit)
	}
}

// spanMeanMs is the mean duration of the non-duplicate spans named name.
func spanMeanMs(spans []span, name string) float64 {
	var xs []float64
	for _, s := range spans {
		if s.Name == name && !s.Dup {
			xs = append(xs, float64(s.dur())/1e6)
		}
	}
	if len(xs) == 0 {
		return 0
	}
	return mean(xs)
}

// layerOf maps a span to the module it times.
func layerOf(name string) string {
	switch {
	case strings.HasPrefix(name, "loadgen"), name == "train.step":
		return "loadgen"
	case name == "serve.handler":
		return "serve"
	case strings.HasPrefix(name, "fleet."):
		return "fleet"
	default:
		return "cl"
	}
}

// blockingPath splits the traced end-to-end mean of the root spans (one per
// request or training step) into the self time of each layer beneath them.
// decodeMs estimates, per root name, the part of the handler's self time
// spent decoding the body (the api layer). What the program's layers leave
// unaccounted is the root's own self time: the client, HTTP transport and
// loop overhead outside every program call.
func blockingPath(o *outcome, spans []span, decodeMs map[string]float64) {
	self := selfTimes(spans)
	byID := make(map[int64]span, len(spans))
	kids := map[int64][]int64{}
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	sums := map[string]float64{}
	var e2e float64
	roots := 0
	var walk func(id int64, root string)
	walk = func(id int64, root string) {
		s := byID[id]
		ms := float64(self[id]) / 1e6
		l := layerOf(s.Name)
		if l == "serve" {
			d := min(decodeMs[root], ms)
			sums["api"] += d
			ms -= d
		}
		sums[l] += ms
		for _, k := range kids[id] {
			walk(k, root)
		}
	}
	for _, s := range spans {
		if s.Parent == 0 && layerOf(s.Name) == "loadgen" {
			roots++
			e2e += float64(s.dur()) / 1e6
			walk(s.ID, s.Name)
		}
	}
	if roots == 0 {
		return
	}
	n := float64(roots)
	o.layer("trace.spans", float64(len(spans)), "count")
	o.layer("trace.e2e_ms", e2e/n, "ms")
	for _, l := range []string{"api", "serve", "cl", "fleet"} {
		o.layer("trace.self."+l+"_ms", sums[l]/n, "ms")
	}
	o.layer("trace.unaccounted_ms", sums["loadgen"]/n, "ms")
	o.layer("trace.unaccounted_pct", 100*sums["loadgen"]/e2e, "%")
}

// programLayers fills the layers read from the program's own counters and
// from the learner spans; batches is the number of observe batches applied.
func programLayers(o *outcome, d regDelta, spans []span, batches int) {
	ms := func(name string) float64 { return 1e3 * d.histMean(name) }
	per := func(v float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return v / float64(n)
	}
	o.layer("serve.predict_batch_size", d.histMean("serve_predict_batch_size"), "count")
	o.layer("serve.observe_apply_ms", ms("serve_observe_apply_seconds"), "ms")
	o.layer("serve.handler_ms", spanMeanMs(spans, "serve.handler"), "ms")
	o.layer("cl.predict_batch_ms", spanMeanMs(spans, "cl.predict_batch"), "ms")
	o.layer("cl.predict_ms", spanMeanMs(spans, "cl.predict"), "ms")
	o.layer("cl.observe_ms", spanMeanMs(spans, "cl.observe"), "ms")
	o.layer("cl.head_train_step_ms", ms("head_train_step_seconds"), "ms")
	o.layer("nn.train_steps_batched", d.counter("train_step_batched_total"), "count")
	o.layer("nn.train_steps_per_sample", d.counter("train_step_fused_total")+d.counter("train_step_split_total"), "count")
	for _, st := range []string{"", "extract", "concat", "sgd", "ms_update", "ml_promote"} {
		name, hist := "core.step_ms", "chameleon_step_seconds"
		if st != "" {
			name, hist = "core."+st+"_ms", "chameleon_step_"+st+"_seconds"
		}
		o.layer(name, ms(hist), "ms")
	}
	o.layer("core.ml_promotions", d.counter("chameleon_ml_promotions_total"), "count")
	o.layer("replay.samples_drawn", d.counter("replay_samples_drawn_total"), "count")
	o.layer("replay.int8_decodes", d.counter("replay_int8_decodes_total"), "count")
	o.layer("baselines.observe_ms", ms("baseline_observe_seconds_der"), "ms")
	o.layer("parallel.for_calls", per(d.counter("parallel_for_calls_total"), batches), "1/batch")
	o.layer("parallel.chunks_spawned", per(d.counter("parallel_chunks_spawned_total"), batches), "1/batch")
	o.layer("parallel.chunks_inline", per(d.counter("parallel_chunks_inline_total"), batches), "1/batch")
	o.layer("fleet.fault_in_ms", spanMeanMs(spans, "fleet.fault_in"), "ms")
	o.layer("fleet.evict_ms", ms("fleet_eviction_seconds"), "ms")
	o.layer("fleet.snapshot_ms", spanMeanMs(spans, "cl.snapshot"), "ms")
	o.layer("fleet.restore_ms", spanMeanMs(spans, "cl.restore"), "ms")
	o.layer("fleet.replayed_batches", d.counter("fleet_log_replayed_total"), "count")
	o.layer("replication.append_ms", ms("wal_append_seconds"), "ms")
	o.layer("replication.fsync_ms", ms("wal_fsync_seconds"), "ms")
	o.layer("replication.append_bytes", d.counter("wal_append_bytes_total"), "bytes")
	o.layer("checkpoint.save_ms", ms("checkpoint_save_seconds"), "ms")
	o.layer("checkpoint.restore_ms", ms("checkpoint_restore_seconds"), "ms")
	frames := d.counter("checkpoint_saves_total") + d.counter("checkpoint_restores_total")
	bytes := d.counter("checkpoint_save_bytes_total") + d.counter("checkpoint_restore_bytes_total")
	if frames > 0 {
		o.layer("checkpoint.frame_kb", bytes/frames/1024, "KB")
	}
}

// decodeUs times json.Unmarshal of bodies into the api request types: the
// mean microseconds per body over up to 256 of them.
func decodeUs[T any](reqs []wireReq) (us, bytes float64) {
	n := min(len(reqs), 256)
	if n == 0 {
		return 0, 0
	}
	var total time.Duration
	var size int
	for _, r := range reqs[:n] {
		var v T
		t0 := time.Now()
		err := json.Unmarshal(r.body, &v)
		total += time.Since(t0)
		if err != nil {
			return 0, 0
		}
		size += len(r.body)
	}
	return float64(total) / 1e3 / float64(n), float64(size) / float64(n)
}

// layers fills a traced serving run's per-layer metrics.
func (e *servingEnv) layers(o *outcome, run *servingRun, d regDelta, spans []span, okTotal int64, acked int) {
	initLayers(o)
	o.layer("loadgen.lag_p99_ms", percentile(run.open.lag, 0.99), "ms")
	for _, p := range []struct {
		name string
		pc   *phaseCounts
	}{{"open", &run.openPC}, {"closed", &run.closedPC}} {
		o.layer("loadgen."+p.name+".sent", float64(p.pc.sent.Load()), "count")
		o.layer("loadgen."+p.name+".ok", float64(p.pc.ok.Load()), "count")
		o.layer("loadgen."+p.name+".failed", float64(p.pc.failed.Load()), "count")
		o.layer("loadgen."+p.name+".shed", float64(p.pc.shed.Load()), "count")
	}
	var chainPredicts, observes []wireReq
	for _, st := range e.chain {
		chainPredicts = append(chainPredicts, st.predicts...)
		observes = append(observes, st.observe)
	}
	pUs, pBytes := decodeUs[api.PredictRequest](append(append([]wireReq(nil), e.predicts...), chainPredicts...))
	oUs, oBytes := decodeUs[api.ObserveRequest](observes)
	nObs := float64(len(run.chainRes.acked))
	nPred := float64(okTotal) - nObs
	o.layer("api.decode_us", (pUs*nPred+oUs*nObs)/(nPred+nObs), "us")
	o.layer("api.body_bytes", (pBytes*nPred+oBytes*nObs)/(nPred+nObs), "bytes")
	calls := float64(e.newCalls.Load())
	if e.isFleet() {
		o.layer("fleet.miss_ratio", calls/float64(okTotal), "ratio")
		o.layer("replication.log_mb", dirMB(filepath.Join(e.dir, "wal")), "MB")
	}
	programLayers(o, d, spans, acked)
	decodeMs := map[string]float64{"loadgen/v1/predict": pUs / 1e3, "loadgen/v1/observe": oUs / 1e3}
	// Handler self time on a predict is decode + queue wait + batch fill +
	// encode/write; take decode out and what is left waited.
	self := selfTimes(spans)
	byID := map[int64]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	var wait []float64
	for _, s := range spans {
		if s.Name == "serve.handler" && byID[s.Parent].Name == "loadgen/v1/predict" {
			wait = append(wait, float64(self[s.ID])/1e6-pUs/1e3)
		}
	}
	if len(wait) > 0 {
		o.layer("serve.predict_wait_ms", mean(wait), "ms")
	}
	blockingPath(o, spans, decodeMs)
}

// trainLayers fills a traced training run's per-layer metrics.
func trainLayers(o *outcome, d regDelta, spans []span, applied int) {
	initLayers(o)
	programLayers(o, d, spans, applied)
	blockingPath(o, spans, nil)
}
