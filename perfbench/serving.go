package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"chameleon/internal/api"
	"chameleon/internal/cl"
	"chameleon/internal/exp"
	"chameleon/internal/fleet"
	"chameleon/internal/mobilenet"
	"chameleon/internal/quant"
	"chameleon/internal/replication"
	"chameleon/internal/serve"
	"chameleon/internal/tensor"
)

// Serving-workload constants. The serving knobs are chameleon-serve's
// defaults, kept as they are even where they set a floor the numbers show
// (the 2 ms coalescing window, the log's fsync cadence).
const (
	classes     = 10
	batchWindow = 2 * time.Millisecond
	maxBatch    = 64
	queueDepth  = 256
	reqTimeout  = 10 * time.Second
	// openRate is the serve-json open-loop predict rate. The single
	// open-loop connection is busy about a fifth of the time at this rate,
	// so queueing behind a slow request stays rare, while a 16 s phase still
	// gives over 1,000 predicts.
	openRate      = 70.0
	predictPool   = 1024 // distinct unlabelled latents (and fleet users) cycled by predict traffic
	fleetUsers    = 10000
	fleetZipfS    = 1.2
	fleetHot      = 32
	fleetShards   = 4
	walSyncEvery  = 16
	walSegmentMB  = 4
	fleetMaxChain = 2000 // pre-encoded chain steps on the fleet
	// serveChainBatch is serve-json's labelled-chain batch. Every chain step
	// pays one coalescing window per predicted sample; single-sample batches
	// (the fully online setting) give a run about 3,000 observes in its 16 s
	// open-loop phase: three blocks of 1,000 for the p99.
	serveChainBatch = 1
	// fleetChainBatch is the fleet chain's batch. A step's first request
	// faults a cold user in, so three predicts per step keep most predicts
	// on resident learners, as on the predict-only client.
	fleetChainBatch = 3
	// openShare is the part of a serve-json run spent in the open-loop
	// phase; the closed-loop phase takes the rest.
	openShare = 0.8
)

// chainStep is one test-then-train step of the labelled chain: predict each
// sample of the batch, then observe the batch.
type chainStep struct {
	user     string
	k        int // the user's batch index the observe must be acknowledged as
	domain   int
	samples  []sample // latents exactly as the program decodes them
	predicts []wireReq
	observe  wireReq
}

// chainResult is what the chain saw: per step, the served class of each
// sample and whether the observe was acknowledged.
type chainResult struct {
	preds [][]int
	acked []bool
	errs  []error
}

// servingEnv is one set-up of a serving workload.
type servingEnv struct {
	wl       string
	opt      options
	tr       *tracer
	dir      string
	backbone *mobilenet.Model
	st       *stream
	srv      *serve.Server
	hs       *http.Server // traced runs serve the wrapped handler themselves
	base     string
	learner  cl.Learner // serve-json: the served learner
	wlog     *replication.Log
	newCalls atomic.Int64 // fleet Config.New calls

	chain    []chainStep
	predicts []wireReq // unlabelled traffic, cycled
	sched    []time.Duration
}

func (e *servingEnv) isFleet() bool { return e.wl == "fleet-zipf-wal" }

// openPhase is the length of the open-loop phase (none on the fleet).
func (e *servingEnv) openPhase() time.Duration {
	if e.isFleet() {
		return 0
	}
	return time.Duration(openShare * float64(e.opt.duration))
}

// newLearner builds a learner the way chameleon-serve -dataset synthetic
// does, with the cli defaults.
func newLearner(method string, backbone *mobilenet.Model, seed int64) (cl.Learner, error) {
	spec := exp.MethodSpec{Name: method, Buffer: 100, ST: 10}
	return exp.NewLearnerOn(spec, backbone, classes, exp.TestScale(), seed, &cl.TrafficMeter{})
}

func newBackbone(seed int64) (*mobilenet.Model, error) {
	return mobilenet.New(mobilenet.DefaultConfig(classes, seed))
}

func setupServing(wl string, opt options, tr *tracer) (*servingEnv, error) {
	e := &servingEnv{wl: wl, opt: opt, tr: tr}
	var err error
	if e.dir, err = os.MkdirTemp(opt.dataRoot, wl+"-"); err != nil {
		return nil, err
	}
	if e.backbone, err = newBackbone(opt.seed); err != nil {
		return nil, err
	}
	dim := tensor.New(e.backbone.LatentShape...).Len()
	batch := serveChainBatch
	if e.isFleet() {
		batch = fleetChainBatch
	}
	e.st = newStream(defaultStream(batch), dim, opt.seed)
	cfg := serve.Config{
		LatentShape: e.backbone.LatentShape, Classes: classes, Backbone: e.backbone,
		BatchWindow: batchWindow, MaxBatch: maxBatch, QueueDepth: queueDepth, RequestTimeout: reqTimeout,
	}
	if e.isFleet() {
		e.wlog, err = replication.Open(filepath.Join(e.dir, "wal"), replication.Options{
			SegmentBytes: walSegmentMB << 20, SyncEvery: walSyncEvery,
		})
		if err != nil {
			return nil, err
		}
		fl, err := fleet.New(fleet.Config{
			New:         e.fleetLearner,
			Dir:         filepath.Join(e.dir, "fleet"),
			MaxUsers:    fleetUsers,
			HotSet:      fleetHot,
			Shards:      fleetShards,
			WAL:         e.wlog,
			LatentShape: e.backbone.LatentShape,
		})
		if err != nil {
			return nil, err
		}
		cfg.Fleet, cfg.WAL = fl, e.wlog
	} else {
		if e.learner, err = newLearner("chameleon", e.backbone, opt.seed); err != nil {
			return nil, err
		}
		if tr != nil {
			if e.learner, err = wrapLearner(e.learner, tr, ""); err != nil {
				return nil, err
			}
		}
	}
	if e.srv, err = serve.New(e.learner, cfg); err != nil {
		return nil, err
	}
	if tr == nil {
		if err := e.srv.Start("127.0.0.1:0"); err != nil {
			return nil, err
		}
		e.base = "http://" + e.srv.Addr()
	} else {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		e.hs = &http.Server{Handler: tr.wrapHandler(e.srv.Handler())}
		go func() { _ = e.hs.Serve(ln) }()
		e.base = "http://" + ln.Addr().String()
	}
	if err := e.makeInputs(); err != nil {
		return nil, err
	}
	return e, nil
}

// fleetLearner is the fleet's Config.New: chameleon-serve's per-user
// construction, wrapped when tracing.
func (e *servingEnv) fleetLearner(user string) (cl.Learner, error) {
	e.newCalls.Add(1)
	var start int64
	if e.tr != nil {
		start = e.tr.now()
	}
	l, err := newLearner("chameleon", e.backbone, fleet.UserSeed(e.opt.seed, user))
	if err != nil || e.tr == nil {
		return l, err
	}
	w, err := wrapLearner(l, e.tr, user)
	if err != nil {
		return nil, err
	}
	w.faultStart = start
	return w, nil
}

// wireLatent encodes one latent for the workload's wire and returns the
// values the program will decode from it.
func (e *servingEnv) wireLatent(z []float32) (lat []float32, q []byte, scale float32, decoded []float32) {
	if !e.isFleet() {
		return z, nil, 0, z
	}
	qs := make([]int8, len(z))
	scale = quant.QuantizeInt8(qs, z)
	q = make([]byte, len(z))
	decoded = make([]float32, len(z))
	for i, v := range qs {
		q[i] = byte(v)
		decoded[i] = float32(v) * scale
	}
	return nil, q, scale, decoded
}

func (e *servingEnv) predictReq(user string, z []float32) (wireReq, []float32, error) {
	lat, q, scale, dec := e.wireLatent(z)
	body, err := json.Marshal(api.PredictRequest{User: user, Latent: lat, LatentInt8: q, Scale: scale})
	r := wireReq{path: "/v1/predict", body: body}
	if e.tr != nil {
		r.keys = []latentKey{{user, fingerprint(dec)}}
	}
	return r, dec, err
}

// makeInputs generates and encodes every request body from the seed before
// timing starts.
func (e *servingEnv) makeInputs() error {
	rng := rand.New(rand.NewSource(e.opt.seed ^ 0x5eed))
	zipf := rand.NewZipf(rng, fleetZipfS, 1, fleetUsers-1)
	pickUser := func() string {
		if !e.isFleet() {
			return ""
		}
		return fmt.Sprintf("u%d", zipf.Uint64())
	}
	for i := 0; i < predictPool; i++ {
		r, _, err := e.predictReq(pickUser(), e.st.gen.random(rng).Z)
		if err != nil {
			return err
		}
		e.predicts = append(e.predicts, r)
	}
	nb := e.st.numBatches()
	steps := nb
	if e.isFleet() {
		steps = fleetMaxChain
	}
	next := map[string]int{}
	for j := 0; j < steps; j++ {
		user := pickUser()
		k := next[user]
		next[user]++
		src := e.st.batch(k % nb)
		step := chainStep{user: user, k: k, domain: src[0].Domain}
		obs := api.ObserveRequest{User: user, Domain: step.domain}
		var keys []latentKey
		for _, s := range src {
			r, dec, err := e.predictReq(user, s.Z)
			if err != nil {
				return err
			}
			step.predicts = append(step.predicts, r)
			step.samples = append(step.samples, sample{Z: dec, Label: s.Label, Domain: step.domain})
			lat, q, scale, _ := e.wireLatent(s.Z)
			obs.Samples = append(obs.Samples, api.ObserveSample{Latent: lat, LatentInt8: q, Scale: scale, Label: s.Label})
			if keys == nil {
				keys = r.keys
			}
		}
		body, err := json.Marshal(obs)
		if err != nil {
			return err
		}
		step.observe = wireReq{path: "/v1/observe", body: body, keys: keys}
		e.chain = append(e.chain, step)
	}
	if !e.isFleet() {
		e.sched = poissonSchedule(rng, openRate, e.openPhase())
	}
	return nil
}

// shutdown drains the server (the fleet demotes its learners to disk) and
// closes the listener.
func (e *servingEnv) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := e.srv.Shutdown(ctx)
	if e.hs != nil {
		err = errors.Join(err, e.hs.Shutdown(ctx))
	}
	return err
}

// discard tears a set-up down and removes its data.
func (e *servingEnv) discard() {
	_ = e.shutdown()
	if e.wlog != nil {
		_ = e.wlog.Close()
	}
	_ = os.RemoveAll(e.dir)
}

// runChain drives the labelled test-then-train chain from one sender until
// the deadline, stopping only between steps. Chain steps wrap around the
// pre-encoded list on serve-json (a repeated pass over the stream); the fleet
// chain stops when its pre-encoded steps run out.
func runChain(c *client, steps []chainStep, wrap bool, deadline time.Time, phase func() (*phaseCounts, *recorder)) chainResult {
	var res chainResult
	for j := 0; time.Now().Before(deadline); j++ {
		if j >= len(steps) && !wrap {
			break
		}
		st := steps[j%len(steps)]
		if wrap {
			st.k = j
		}
		preds := make([]int, len(st.predicts))
		var stepErr error
		for i, r := range st.predicts {
			t0 := time.Now()
			var pr api.PredictResponse
			oc, err := c.send(r, &pr)
			pc, rec := phase()
			pc.count(oc)
			rec.add("predict", msSince(t0), time.Now(), oc == outcomeOK)
			preds[i] = pr.Class
			if oc != outcomeOK {
				preds[i] = -1
				stepErr = errors.Join(stepErr, err)
			}
		}
		t0 := time.Now()
		var or api.ObserveResponse
		oc, err := c.send(st.observe, &or)
		pc, rec := phase()
		pc.count(oc)
		rec.add("observe", msSince(t0), time.Now(), oc == outcomeOK)
		acked := oc == outcomeOK && or.Batch == st.k
		if oc == outcomeOK && !acked {
			err = fmt.Errorf("observe step %d acknowledged as batch %d, want %d", j, or.Batch, st.k)
		}
		res.preds = append(res.preds, preds)
		res.acked = append(res.acked, acked)
		res.errs = append(res.errs, errors.Join(stepErr, err))
	}
	return res
}

// servingRun is the raw outcome of one measured serving run.
type servingRun struct {
	// The chain's requests are recorded by the phase they ended in.
	open, chainOpen, chain, closed recorder
	openPC, closedPC               phaseCounts
	chainRes                       chainResult
	closedStart                    time.Time
	end                            time.Time
	elapsed                        time.Duration
	cpuMs                          float64
}

// measureServing runs the timed phases. serve-json: an open-loop phase
// (Poisson predicts from the schedule, beside the labelled chain), then a
// closed-loop phase (nproc clients: the chain plus back-to-back predicts).
// fleet-zipf-wal: the closed-loop phase alone, for the whole run.
func (e *servingEnv) measureServing(nproc int) *servingRun {
	run := &servingRun{}
	var ids atomic.Uint64
	senders := make([]*client, nproc)
	for i := range senders {
		senders[i] = newClient(e.base, e.tr, &ids)
		defer senders[i].close()
	}
	cpu0 := cpuMs()
	start := time.Now()
	end := start.Add(e.opt.duration)
	run.closedStart = start.Add(e.openPhase())
	phase := func() (*phaseCounts, *recorder) {
		if time.Now().Before(run.closedStart) {
			return &run.openPC, &run.chainOpen
		}
		return &run.closedPC, &run.chain
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		run.chainRes = runChain(senders[0], e.chain, !e.isFleet(), end, phase)
	}()
	others := senders[1:]
	if !e.isFleet() {
		openLoop(others, start, e.sched, e.predicts, &run.open, &run.openPC)
		if d := time.Until(run.closedStart); d > 0 {
			time.Sleep(d)
		}
	}
	closedLoop(others, end, e.predicts, &run.closed, &run.closedPC)
	wg.Wait()
	run.end = end
	run.elapsed = time.Since(start)
	run.cpuMs = cpuMs() - cpu0
	return run
}
