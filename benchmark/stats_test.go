package main

import (
	"math"
	"testing"
	"time"

	"mntp/internal/ntptime"
)

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {1, 5},
	}
	for _, c := range cases {
		if got := quantile(append([]float64(nil), xs...), c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples is not NaN")
	}
	ys := []float64{3, 1, 2}
	median(ys)
	if ys[0] != 3 {
		t.Error("median reordered its argument")
	}
}

// TestOffsetDelay checks θ and δ on an exchange with known legs: the
// server clock runs 5 ms ahead, each one-way trip takes 10 ms, and the
// server holds the request for 1 ms.
func TestOffsetDelay(t *testing.T) {
	base := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	const offset, oneWay, hold = 5 * time.Millisecond, 10 * time.Millisecond, time.Millisecond
	t1 := base
	t2 := t1.Add(oneWay + offset)
	t3 := t2.Add(hold)
	t4 := t3.Add(-offset + oneWay)
	theta, delay := offsetDelay(ntptime.FromTime(t1), ntptime.FromTime(t2), ntptime.FromTime(t3), ntptime.FromTime(t4))
	if d := absDur(theta - offset); d > time.Microsecond {
		t.Errorf("θ = %v, want %v", theta, offset)
	}
	if d := absDur(delay - 2*oneWay); d > time.Microsecond {
		t.Errorf("δ = %v, want %v", delay, 2*oneWay)
	}

	// An asymmetric path biases θ by half the asymmetry, even with
	// one shared clock: the bias the serve workloads report.
	t2 = t1.Add(30 * time.Microsecond)
	t3 = t2.Add(2 * time.Microsecond)
	t4 = t3.Add(10 * time.Microsecond)
	theta, _ = offsetDelay(ntptime.FromTime(t1), ntptime.FromTime(t2), ntptime.FromTime(t3), ntptime.FromTime(t4))
	if d := absDur(theta - 10*time.Microsecond); d > 10*time.Nanosecond {
		t.Errorf("asymmetric θ = %v, want 10µs", theta)
	}
}

func TestCheckCausal(t *testing.T) {
	base := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	ts := func(d time.Duration) ntptime.Timestamp { return ntptime.FromTime(base.Add(d)) }
	if err := checkCausal(ts(0), ts(20*time.Microsecond), ts(25*time.Microsecond), ts(50*time.Microsecond)); err != nil {
		t.Errorf("ordered stamps rejected: %v", err)
	}
	if err := checkCausal(ts(0), ts(-2*time.Millisecond), ts(0), ts(time.Millisecond)); err == nil {
		t.Error("a T2 2 ms before T1 was accepted")
	}
	if err := checkCausal(ts(0), ts(time.Microsecond), ts(5*time.Millisecond), ts(time.Millisecond)); err == nil {
		t.Error("a T3 after T4 was accepted")
	}
}

func TestParseStats(t *testing.T) {
	st := parseStats("served=12 limited=0 shed=1 health=healthy nts-served=3 nts-naks=0 latency p50≤50µs p99≤1ms rate-table=0")
	want := serverStats{"served": 12, "limited": 0, "shed": 1, "nts-served": 3, "nts-naks": 0, "rate-table": 0}
	for k, v := range want {
		if st[k] != v {
			t.Errorf("%s = %d, want %d", k, st[k], v)
		}
	}
	if _, ok := st["health"]; ok {
		t.Error("non-numeric health parsed as a counter")
	}
}

func TestReconcile(t *testing.T) {
	run := &serveRun{
		probesSent: 2,
		light:      &phaseResult{sent: 100, ok: 98, ntsSent: 100},
		ovl:        &phaseResult{sent: 1000, ok: 900, ntsSent: 1000},
	}
	run.final = serverStats{"served": 1000, "nts-served": 999}
	if bad := run.reconcile(true); len(bad) != 0 {
		t.Errorf("consistent counters flagged: %v", bad)
	}
	run.final = serverStats{"served": 1000, "nts-served": 999, "nts-naks": 1}
	if bad := run.reconcile(true); len(bad) != 1 {
		t.Errorf("a NAK gave %v, want one problem", bad)
	}
	run.final = serverStats{"served": 990}
	if bad := run.reconcile(false); len(bad) != 1 {
		t.Errorf("served below the valid replies gave %v, want one problem", bad)
	}
	run.final = serverStats{"served": 2000}
	if bad := run.reconcile(false); len(bad) != 1 {
		t.Errorf("served above the requests sent gave %v, want one problem", bad)
	}
}
