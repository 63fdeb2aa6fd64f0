package ntpnet

import (
	"testing"
	"time"
)

func TestLatencyQuantileEdgeCases(t *testing.T) {
	bounds := LatencyBounds()

	// Empty histogram: no quantile.
	var empty Snapshot
	if q, ok := empty.LatencyQuantile(0.5); ok || q != 0 {
		t.Errorf("empty histogram: got (%v, %v), want (0, false)", q, ok)
	}

	// q=0 degenerates to the first non-empty bucket (target is
	// clamped to at least one observation).
	var s Snapshot
	s.Latency[3] = 10
	if q, ok := s.LatencyQuantile(0); !ok || q != bounds[3] {
		t.Errorf("q=0: got (%v, %v), want (%v, true)", q, ok, bounds[3])
	}

	// q=1 lands in the highest non-empty bucket.
	s.Latency[5] = 1
	if q, ok := s.LatencyQuantile(1); !ok || q != bounds[5] {
		t.Errorf("q=1: got (%v, %v), want (%v, true)", q, ok, bounds[5])
	}

	// All mass in the overflow bucket: the histogram can only say
	// "slower than the largest finite bound", and reports that bound.
	var over Snapshot
	over.Latency[len(over.Latency)-1] = 7
	want := bounds[len(bounds)-1]
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got, ok := over.LatencyQuantile(q); !ok || got != want {
			t.Errorf("overflow-only q=%v: got (%v, %v), want (%v, true)", q, got, ok, want)
		}
	}
}

func TestObserveLatencyOverflowBucket(t *testing.T) {
	var m Metrics
	m.latencyBucket(time.Hour).Add(1) // beyond every finite bound
	m.latencyBucket(time.Microsecond).Add(1)
	s := m.Snapshot()
	if s.Latency[len(s.Latency)-1] != 1 {
		t.Errorf("overflow bucket = %d, want 1", s.Latency[len(s.Latency)-1])
	}
	if s.Latency[0] != 1 {
		t.Errorf("first bucket = %d, want 1", s.Latency[0])
	}
}

func TestSnapshotMerge(t *testing.T) {
	var a, b Metrics
	a.Served.Store(3)
	a.Limited.Store(1)
	a.latencyBucket(10 * time.Microsecond).Add(1)
	a.latencyBucket(time.Second).Add(1) // overflow
	b.Served.Store(5)
	b.Malformed.Store(2)
	b.WriteErrors.Store(4)
	b.Dropped.Store(6)
	b.latencyBucket(10 * time.Microsecond).Add(1)

	m := a.Snapshot()
	m.Merge(b.Snapshot())
	if m.Served != 8 || m.Limited != 1 || m.Malformed != 2 || m.WriteErrors != 4 || m.Dropped != 6 {
		t.Errorf("merged counters wrong: %+v", m)
	}
	if m.Latency[0] != 2 {
		t.Errorf("merged first bucket = %d, want 2", m.Latency[0])
	}
	if m.Latency[len(m.Latency)-1] != 1 {
		t.Errorf("merged overflow bucket = %d, want 1", m.Latency[len(m.Latency)-1])
	}
	// Quantiles over the merged histogram see all shards' mass.
	if q, ok := m.LatencyQuantile(0.5); !ok || q != LatencyBounds()[0] {
		t.Errorf("merged p50 = (%v, %v)", q, ok)
	}
}
