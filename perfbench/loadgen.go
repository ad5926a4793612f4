package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"chameleon/internal/api"
)

// Request outcomes as the generator counts them.
const (
	outcomeOK = iota
	outcomeShed
	outcomeFailed
)

// wireReq is one pre-encoded request body plus what the tracer needs to
// attribute the program's work to it.
type wireReq struct {
	path string
	body []byte
	keys []latentKey
}

// phaseCounts are the generator's per-phase counters.
type phaseCounts struct {
	sent, ok, failed, shed atomic.Int64
}

// clientTimeout bounds one request; a failed or shed request is recorded at
// this latency, so it counts as missing every percentile it reaches.
const clientTimeout = 30 * time.Second

var failedMs = float64(clientTimeout) / float64(time.Millisecond)

// recorder collects request latencies and outcomes across sender goroutines.
type recorder struct {
	mu      sync.Mutex
	predict []float64 // ms; failedMs for a failed or shed request
	observe []float64
	lag     []float64 // ms the open-loop sender ran late
	// doneOK holds completion times of successful requests (for throughput
	// over a phase window).
	doneOK []time.Time
}

func (r *recorder) add(kind string, ms float64, done time.Time, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !ok {
		ms = failedMs
	}
	if kind == "observe" {
		r.observe = append(r.observe, ms)
	} else {
		r.predict = append(r.predict, ms)
	}
	if ok {
		r.doneOK = append(r.doneOK, done)
	}
}

func (r *recorder) addLag(ms float64) {
	r.mu.Lock()
	r.lag = append(r.lag, ms)
	r.mu.Unlock()
}

// completedIn counts successful completions in [a, b].
func (r *recorder) completedIn(a, b time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, t := range r.doneOK {
		if !t.Before(a) && !t.After(b) {
			n++
		}
	}
	return n
}

// client is one sender: one goroutine, one keep-alive connection.
type client struct {
	hc   *http.Client
	base string
	t    *tracer // nil: untraced
	ids  *atomic.Uint64
}

func newClient(base string, t *tracer, ids *atomic.Uint64) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: clientTimeout}, base: base, t: t, ids: ids}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// send posts one request and classifies the answer. out, when non-nil,
// receives the decoded 200 response.
func (c *client) send(r wireReq, out any) (int, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return outcomeFailed, err
	}
	req.Header.Set("Content-Type", "application/json")
	var root span
	var id uint64
	if c.t != nil {
		id = c.ids.Add(1)
		root = span{ID: c.t.newID(), Req: id, Name: "loadgen" + r.path, Start: c.t.now()}
		c.t.begin(id, root.ID, r.keys)
		req.Header.Set(reqHeader, strconv.FormatUint(id, 10))
	}
	oc, err := c.do(req, out)
	if c.t != nil {
		root.End = c.t.now()
		c.t.end(id, r.keys)
		c.t.add(root)
	}
	return oc, err
}

func (c *client) do(req *http.Request, out any) (int, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return outcomeFailed, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return outcomeFailed, err
	}
	if resp.StatusCode != http.StatusOK {
		var e api.Error
		_ = json.Unmarshal(body, &e) // best effort: the status alone classifies
		if resp.StatusCode == http.StatusTooManyRequests {
			return outcomeShed, fmt.Errorf("shed: %s", e.Code)
		}
		return outcomeFailed, fmt.Errorf("%s: status %d: %s", req.URL.Path, resp.StatusCode, e.Message)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			return outcomeFailed, fmt.Errorf("%s: decode response: %w", req.URL.Path, err)
		}
	}
	return outcomeOK, nil
}

// count files an outcome under a phase.
func (p *phaseCounts) count(oc int) {
	p.sent.Add(1)
	switch oc {
	case outcomeOK:
		p.ok.Add(1)
	case outcomeShed:
		p.shed.Add(1)
	default:
		p.failed.Add(1)
	}
}

// poissonSchedule draws the send offsets of an open-loop Poisson process at
// rate per second over d: the same rng state gives the same schedule.
func poissonSchedule(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		off := time.Duration(t * float64(time.Second))
		if off >= d {
			return out
		}
		out = append(out, off)
	}
}

// openLoop sends reqs[i % len(reqs)] at start+sched[i] from the given
// senders (they share the schedule), timing each request from when it was
// due. It returns when the schedule is exhausted.
func openLoop(senders []*client, start time.Time, sched []time.Duration, reqs []wireReq, rec *recorder, pc *phaseCounts) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range senders {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				due := start.Add(sched[i])
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				rec.addLag(msSince(due))
				var pr api.PredictResponse
				oc, _ := c.send(reqs[i%len(reqs)], &pr)
				pc.count(oc)
				rec.add("predict", msSince(due), time.Now(), oc == outcomeOK)
			}
		}(c)
	}
	wg.Wait()
}

// closedLoop has each sender post reqs back to back (sender j starts at
// offset j·len(reqs)/len(senders)) until the deadline.
func closedLoop(senders []*client, deadline time.Time, reqs []wireReq, rec *recorder, pc *phaseCounts) {
	var wg sync.WaitGroup
	for j, c := range senders {
		wg.Add(1)
		go func(j int, c *client) {
			defer wg.Done()
			for i := j * len(reqs) / len(senders); time.Now().Before(deadline); i++ {
				t0 := time.Now()
				var pr api.PredictResponse
				oc, _ := c.send(reqs[i%len(reqs)], &pr)
				pc.count(oc)
				rec.add("predict", msSince(t0), time.Now(), oc == outcomeOK)
			}
		}(j, c)
	}
	wg.Wait()
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
