package main

import (
	"fmt"

	"chameleon/internal/cl"
	"chameleon/internal/tensor"
)

// tracedLearner times every call into a cl.Learner from outside it. It
// forwards cl.BatchPredictor and cl.Snapshotter, so serve and fleet drive it
// exactly as they drive the learner it wraps. Each call becomes a span under
// the handler span of the request whose latent it carries.
//
// On a fleet, a learner built by Config.New is faulting in until its first
// call on behalf of a request: that interval (checkpoint load, Restore, log
// scan and replayed Observes) becomes one "fleet.fault_in" span, and the
// Restore and replay spans inside it become its children.
type tracedLearner struct {
	inner cl.Learner
	bp    cl.BatchPredictor
	snap  cl.Snapshotter
	t     *tracer
	user  string

	// A learner is only ever called from one engine goroutine, so the
	// fault-in bookkeeping needs no lock.
	faultStart int64 // 0: not faulting in
	pending    []span
}

func wrapLearner(l cl.Learner, t *tracer, user string) (*tracedLearner, error) {
	c := cl.Caps(l)
	if c.BatchPredictor == nil || c.Snapshotter == nil {
		return nil, fmt.Errorf("perfbench: %s must implement BatchPredictor and Snapshotter to be traced", l.Name())
	}
	return &tracedLearner{inner: l, bp: c.BatchPredictor, snap: c.Snapshotter, t: t, user: user}, nil
}

func (w *tracedLearner) Name() string { return w.inner.Name() }

func (w *tracedLearner) key(z *tensor.Tensor) latentKey {
	return latentKey{user: w.user, fp: fingerprint(z.Data())}
}

// record files span s under the request that sent key (if any request in
// flight did), closing a pending fault-in first.
func (w *tracedLearner) record(s span, keys []latentKey) {
	type owner struct {
		req     uint64
		handler int64
	}
	var owners []owner
	for _, k := range keys {
		if req, h, ok := w.t.owner(k); ok {
			owners = append(owners, owner{req, h})
		}
	}
	if w.faultStart != 0 {
		if len(owners) == 0 {
			w.pending = append(w.pending, s)
			return
		}
		f := span{ID: w.t.newID(), Parent: owners[0].handler, Req: owners[0].req, Name: "fleet.fault_in", Start: w.faultStart, End: s.Start}
		for _, p := range w.pending {
			p.Parent, p.Req = f.ID, f.Req
			w.t.add(p)
		}
		w.t.add(f)
		w.faultStart, w.pending = 0, nil
	}
	if len(owners) == 0 {
		s.Parent = w.t.step.Load()
		w.t.add(s)
		return
	}
	seen := map[uint64]bool{}
	for i, o := range owners {
		if seen[o.req] {
			continue
		}
		seen[o.req] = true
		d := s
		d.Parent, d.Req, d.Dup = o.handler, o.req, i > 0
		if d.Dup {
			d.ID = w.t.newID()
		}
		w.t.add(d)
	}
}

func (w *tracedLearner) timed(name string) span {
	return span{ID: w.t.newID(), Name: name, Start: w.t.now()}
}

func (w *tracedLearner) Observe(b cl.LatentBatch) {
	s := w.timed("cl.observe")
	w.inner.Observe(b)
	s.End = w.t.now()
	var keys []latentKey
	if len(b.Samples) > 0 {
		keys = []latentKey{w.key(b.Samples[0].Z)}
	}
	w.record(s, keys)
}

func (w *tracedLearner) Predict(z *tensor.Tensor) int {
	s := w.timed("cl.predict")
	c := w.inner.Predict(z)
	s.End = w.t.now()
	w.record(s, []latentKey{w.key(z)})
	return c
}

func (w *tracedLearner) PredictBatch(zs []*tensor.Tensor, out []int) {
	s := w.timed("cl.predict_batch")
	w.bp.PredictBatch(zs, out)
	s.End = w.t.now()
	keys := make([]latentKey, len(zs))
	for i, z := range zs {
		keys[i] = w.key(z)
	}
	w.record(s, keys)
}

func (w *tracedLearner) Snapshot() ([]byte, error) {
	s := w.timed("cl.snapshot")
	b, err := w.snap.Snapshot()
	s.End = w.t.now()
	w.record(s, nil)
	return b, err
}

func (w *tracedLearner) Restore(state []byte) error {
	s := w.timed("cl.restore")
	err := w.snap.Restore(state)
	s.End = w.t.now()
	w.record(s, nil)
	return err
}
