package main

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func TestStreamSameForSameSeed(t *testing.T) {
	a := newStream(defaultStream(5), 64, 7)
	b := newStream(defaultStream(5), 64, 7)
	if !reflect.DeepEqual(a.Train, b.Train) || !reflect.DeepEqual(a.Test, b.Test) {
		t.Fatal("two streams from seed 7 differ")
	}
	c := newStream(defaultStream(5), 64, 8)
	if reflect.DeepEqual(a.Train[0].Z, c.Train[0].Z) {
		t.Fatal("seeds 7 and 8 gave the same first latent")
	}
}

func TestStreamShape(t *testing.T) {
	spec := defaultStream(10)
	s := newStream(spec, 64, 1)
	if want := spec.Domains * spec.Classes * spec.Sessions * spec.Frames; len(s.Train) != want {
		t.Fatalf("train samples = %d, want %d", len(s.Train), want)
	}
	if want := spec.Domains * spec.Classes * spec.Test; len(s.Test) != want {
		t.Fatalf("test samples = %d, want %d", len(s.Test), want)
	}
	// Domains arrive in sequence, and every batch lies in one domain.
	for k := 0; k < s.numBatches(); k++ {
		b := s.batch(k)
		for _, x := range b {
			if x.Domain != b[0].Domain {
				t.Fatalf("batch %d mixes domains %d and %d", k, b[0].Domain, x.Domain)
			}
		}
		if k > 0 && b[0].Domain < s.batch(k - 1)[0].Domain {
			t.Fatalf("batch %d goes back to domain %d", k, b[0].Domain)
		}
	}
	// Sessions are one class for Frames consecutive frames.
	for i := 0; i < len(s.Train); i += spec.Frames {
		for _, x := range s.Train[i : i+spec.Frames] {
			if x.Label != s.Train[i].Label {
				t.Fatalf("session at %d mixes classes", i)
			}
		}
	}
}

func TestScheduleSameForSameSeed(t *testing.T) {
	a := poissonSchedule(rand.New(rand.NewSource(3)), 120, 10*time.Second)
	b := poissonSchedule(rand.New(rand.NewSource(3)), 120, 10*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two schedules from seed 3 differ")
	}
	c := poissonSchedule(rand.New(rand.NewSource(4)), 120, 10*time.Second)
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 3 and 4 gave the same schedule")
	}
	// About rate × duration arrivals, increasing, all inside the window.
	if len(a) < 1000 || len(a) > 1400 {
		t.Fatalf("%d arrivals in 10 s at 120/s", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= 10*time.Second {
			t.Fatalf("arrival %d at %v after %v", i, a[i], a[i-1])
		}
	}
}
