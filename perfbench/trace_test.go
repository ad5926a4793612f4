package main

import (
	"math"
	"testing"
)

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "loadgen/v1/predict", Start: 0, End: 100},
		// Two overlapping children of the root: [10,40] ∪ [30,60] covers 50.
		{ID: 2, Parent: 1, Name: "serve.handler", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "serve.handler", Start: 30, End: 60},
		// A grandchild counts against its parent only, not the root.
		{ID: 4, Parent: 2, Name: "cl.predict_batch", Start: 15, End: 25},
		// A child sticking out of its parent is clipped to the parent.
		{ID: 5, Parent: 3, Name: "cl.predict_batch", Start: 50, End: 90},
		// A nested pair inside one child: [52,58] lies within [50,90].
		{ID: 6, Parent: 5, Name: "cl.restore", Start: 52, End: 58},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 50, 2: 20, 3: 20, 4: 10, 5: 34, 6: 6}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
	}
}

func TestCoveredUnion(t *testing.T) {
	for _, c := range []struct {
		lo, hi int64
		ivs    [][2]int64
		want   int64
	}{
		{0, 100, nil, 0},
		{0, 100, [][2]int64{{10, 20}, {30, 40}}, 20},
		{0, 100, [][2]int64{{10, 50}, {20, 30}}, 40},            // contained
		{0, 100, [][2]int64{{30, 40}, {10, 35}}, 30},            // unsorted, overlapping
		{0, 100, [][2]int64{{-10, 10}, {90, 120}}, 20},          // clipped both ends
		{0, 100, [][2]int64{{10, 20}, {20, 30}}, 20},            // touching
		{50, 60, [][2]int64{{0, 10}, {70, 80}}, 0},              // disjoint from the parent
		{0, 100, [][2]int64{{0, 100}, {0, 100}, {10, 20}}, 100}, // duplicates
	} {
		if got := covered(c.lo, c.hi, c.ivs); got != c.want {
			t.Errorf("covered(%d, %d, %v) = %d, want %d", c.lo, c.hi, c.ivs, got, c.want)
		}
	}
}

func TestBlockingPathAccountsForTheMean(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "loadgen/v1/predict", Start: 0, End: 10e6},
		{ID: 2, Parent: 1, Name: "serve.handler", Start: 1e6, End: 9e6},
		{ID: 3, Parent: 2, Name: "cl.predict_batch", Start: 5e6, End: 7e6},
		{ID: 4, Name: "loadgen/v1/observe", Start: 20e6, End: 24e6},
		{ID: 5, Parent: 4, Name: "serve.handler", Start: 20.5e6, End: 23.5e6},
		{ID: 6, Parent: 5, Name: "fleet.fault_in", Start: 21e6, End: 23e6},
		{ID: 7, Parent: 6, Name: "cl.restore", Start: 21e6, End: 21.5e6},
	}
	o := &outcome{layers: map[string]metric{}}
	blockingPath(o, spans, map[string]float64{"loadgen/v1/predict": 1})
	e2e := o.layers["trace.e2e_ms"].Value
	if e2e != 7 {
		t.Fatalf("e2e mean = %v ms, want 7", e2e)
	}
	var sum float64
	for _, n := range []string{"trace.self.api_ms", "trace.self.serve_ms", "trace.self.cl_ms", "trace.self.fleet_ms", "trace.unaccounted_ms"} {
		sum += o.layers[n].Value
	}
	if math.Abs(sum-e2e) > 1e-9 {
		t.Errorf("layer self times sum to %v ms, e2e mean is %v ms", sum, e2e)
	}
	// predict: api 1, serve 8-2-1=5, cl 2, unaccounted 2; observe: serve 1,
	// fleet 1.5, cl 0.5, unaccounted 1. Means over the two roots:
	for n, w := range map[string]float64{
		"trace.self.api_ms": 0.5, "trace.self.serve_ms": 3, "trace.self.cl_ms": 1.25,
		"trace.self.fleet_ms": 0.75, "trace.unaccounted_ms": 1.5,
	} {
		if got := o.layers[n].Value; math.Abs(got-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", n, got, w)
		}
	}
}
