package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"chameleon/internal/obs"
)

// reqHeader carries the generator's request id to the traced handler.
const reqHeader = "X-Perfbench-Req"

// span is one timed interval at a layer boundary. Spans of one request share
// Req; Parent links a span to the span that caused it (0: none). A Dup span
// repeats a shared call (one PredictBatch answers many requests) under each
// extra request it served; per-call means skip duplicates.
type span struct {
	ID, Parent int64
	Req        uint64
	Name       string
	Start, End int64 // ns since the tracer's epoch
	Dup        bool
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory for the length of a run. It is also the
// attribution table that lets code outside the program tell which request a
// learner call serves: the generator registers every latent it puts on the
// wire under its request id, and the learner wrapper looks the latent up.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	// step is the root span of the in-process training step in progress
	// (0: none); learner calls no request owns are filed under it.
	step atomic.Int64

	mu       sync.Mutex
	spans    []span
	roots    map[uint64]int64       // request id → root span id
	handlers map[uint64]int64       // request id → handler span id (in flight)
	owners   map[latentKey][]uint64 // latent → in-flight request ids, FIFO
}

// latentKey identifies a latent on the wire: the user it is for and a hash
// of its values (exactly as the program decodes them).
type latentKey struct {
	user string
	fp   uint64
}

func newTracer() *tracer {
	return &tracer{
		epoch:    time.Now(),
		roots:    map[uint64]int64{},
		handlers: map[uint64]int64{},
		owners:   map[latentKey][]uint64{},
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newID() int64 { return t.ids.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// fingerprint hashes a latent's values.
func fingerprint(z []float32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range z {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// begin registers request req (root span id root) as the sender of the
// latents keyed by keys.
func (t *tracer) begin(req uint64, root int64, keys []latentKey) {
	t.mu.Lock()
	t.roots[req] = root
	for _, k := range keys {
		t.owners[k] = append(t.owners[k], req)
	}
	t.mu.Unlock()
}

// end retires request req.
func (t *tracer) end(req uint64, keys []latentKey) {
	t.mu.Lock()
	delete(t.roots, req)
	for _, k := range keys {
		q := t.owners[k]
		for i, r := range q {
			if r == req {
				q = append(q[:i], q[i+1:]...)
				break
			}
		}
		if len(q) == 0 {
			delete(t.owners, k)
		} else {
			t.owners[k] = q
		}
	}
	t.mu.Unlock()
}

// owner returns the in-flight request that sent latent k and that request's
// handler span (ok false for a latent no request in flight carries: a log
// replay, or a call outside any request).
func (t *tracer) owner(k latentKey) (req uint64, handler int64, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	q := t.owners[k]
	if len(q) == 0 {
		return 0, 0, false
	}
	req = q[0]
	handler, ok = t.handlers[req]
	return req, handler, ok
}

// wrapHandler times every request through h as a "serve.handler" span whose
// parent is the generator's root span of the same request.
func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		s := span{ID: t.newID(), Req: req, Name: "serve.handler", Start: t.now()}
		t.mu.Lock()
		s.Parent = t.roots[req]
		t.handlers[req] = s.ID
		t.mu.Unlock()
		h.ServeHTTP(w, r)
		s.End = t.now()
		t.mu.Lock()
		delete(t.handlers, req)
		t.spans = append(t.spans, s)
		t.mu.Unlock()
	})
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes maps each span id to its self time: its duration minus the part
// of its interval that its direct children cover. Overlapping children are
// merged first, so a nanosecond covered twice is subtracted once; children
// are clipped to the parent's interval.
func selfTimes(spans []span) map[int64]int64 {
	kids := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	c := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			c = append(c, [2]int64{a, b})
		}
	}
	sort.Slice(c, func(i, j int) bool { return c[i][0] < c[j][0] })
	var total int64
	curA, curB := int64(0), int64(-1)
	for i, iv := range c {
		if i == 0 || iv[0] > curB {
			if i > 0 {
				total += curB - curA
			}
			curA, curB = iv[0], iv[1]
		} else if iv[1] > curB {
			curB = iv[1]
		}
	}
	if len(c) > 0 {
		total += curB - curA
	}
	return total
}

// regDelta is the change of the process metrics registry over a window.
type regDelta struct{ before, after obs.Report }

func snapshotRegistry() obs.Report { return obs.Default().Report() }

func (d regDelta) counter(name string) float64 {
	return float64(d.after.Counters[name] - d.before.Counters[name])
}

// histCount and histMeanMs read a histogram's observations in the window.
func (d regDelta) histCount(name string) float64 {
	return float64(d.after.Histograms[name].Count - d.before.Histograms[name].Count)
}

func (d regDelta) histSum(name string) float64 {
	return d.after.Histograms[name].Sum - d.before.Histograms[name].Sum
}

// histMean is the mean observation in the window (0 when there was none).
func (d regDelta) histMean(name string) float64 {
	n := d.histCount(name)
	if n == 0 {
		return 0
	}
	return d.histSum(name) / n
}
