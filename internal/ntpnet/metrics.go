package ntpnet

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"mntp/internal/overload"
)

// numLatencyBuckets is the bucket count of the latency histogram:
// len(latencyBounds) bounded buckets plus the overflow.
const numLatencyBuckets = len(latencyBounds) + 1

// latencyBounds are the upper bounds of the request-latency histogram
// buckets (receive timestamp to reply encoded). The last bucket is
// unbounded.
var latencyBounds = [...]time.Duration{
	50 * time.Microsecond,
	100 * time.Microsecond,
	250 * time.Microsecond,
	500 * time.Microsecond,
	time.Millisecond,
	5 * time.Millisecond,
	25 * time.Millisecond,
	100 * time.Millisecond,
}

// Metrics counts server outcomes. All counters are atomic: the serve
// pool updates them concurrently without a lock, and readers may
// snapshot them at any time.
type Metrics struct {
	// Served counts valid client requests answered with time.
	Served atomic.Uint64
	// Limited counts requests answered with a RATE kiss-of-death.
	Limited atomic.Uint64
	// Dropped counts decodable packets ignored for not being mode-3
	// client requests.
	Dropped atomic.Uint64
	// Malformed counts datagrams that failed to decode.
	Malformed atomic.Uint64
	// WriteErrors counts replies the socket failed to send.
	WriteErrors atomic.Uint64
	// Shed counts new-flow requests refused with RATE by the
	// admission controller while Degraded.
	Shed atomic.Uint64
	// ShedDropped counts datagrams dropped before parsing while
	// Overloaded.
	ShedDropped atomic.Uint64
	// Panics counts worker goroutines that died to a handler panic
	// and were respawned.
	Panics atomic.Uint64
	// NTSServed counts authenticated NTS requests answered with a
	// protected reply (a subset of Served).
	NTSServed atomic.Uint64
	// NTSNaks counts NTS requests whose verification failed and were
	// answered with an NTS NAK kiss-of-death.
	NTSNaks atomic.Uint64

	latency [numLatencyBuckets]atomic.Uint64
}

// latencyBucket returns the histogram counter a request-handling
// latency of d lands in.
func (m *Metrics) latencyBucket(d time.Duration) *atomic.Uint64 {
	for i, b := range latencyBounds {
		if d <= b {
			return &m.latency[i]
		}
	}
	return &m.latency[len(latencyBounds)]
}

// Snapshot is a consistent-enough copy of the counters for reporting
// (individual counters are read atomically; the set is not a single
// atomic transaction, which is fine for monitoring).
type Snapshot struct {
	Served, Limited, Dropped, Malformed, WriteErrors uint64
	// Shed / ShedDropped / Panics mirror the Metrics counters of the
	// same names. Restarts counts watchdog-initiated worker-pool
	// restarts (a server-level counter, set only on the aggregate
	// snapshot). Health is the admission controller's state at
	// snapshot time (Healthy when overload control is off or on
	// per-shard snapshots).
	Shed, ShedDropped, Panics, Restarts uint64
	// NTSServed / NTSNaks mirror the Metrics counters: authenticated
	// requests answered, and NTS verification failures NAKed.
	NTSServed, NTSNaks uint64
	Health             overload.State
	// Latency holds the histogram counts; Latency[i] counts requests
	// handled within LatencyBounds()[i], the last entry the overflow.
	Latency [numLatencyBuckets]uint64
}

// LatencyBounds returns the histogram bucket upper bounds, matching
// Snapshot.Latency[:len(bounds)]; the final Latency entry counts
// requests slower than the last bound.
func LatencyBounds() []time.Duration {
	out := make([]time.Duration, len(latencyBounds))
	copy(out, latencyBounds[:])
	return out
}

// Merge adds o's counts into s. A sharded server keeps one Metrics
// per shard so the fast path never bounces a cache line between
// shards; Merge folds the shard-local views into the aggregate.
func (s *Snapshot) Merge(o Snapshot) {
	s.Served += o.Served
	s.Limited += o.Limited
	s.Dropped += o.Dropped
	s.Malformed += o.Malformed
	s.WriteErrors += o.WriteErrors
	s.Shed += o.Shed
	s.ShedDropped += o.ShedDropped
	s.Panics += o.Panics
	s.Restarts += o.Restarts
	s.NTSServed += o.NTSServed
	s.NTSNaks += o.NTSNaks
	if o.Health > s.Health {
		s.Health = o.Health // the merged view reports the worst state
	}
	for i := range s.Latency {
		s.Latency[i] += o.Latency[i]
	}
}

// Snapshot reads all counters.
func (m *Metrics) Snapshot() Snapshot {
	var s Snapshot
	s.Served = m.Served.Load()
	s.Limited = m.Limited.Load()
	s.Dropped = m.Dropped.Load()
	s.Malformed = m.Malformed.Load()
	s.WriteErrors = m.WriteErrors.Load()
	s.Shed = m.Shed.Load()
	s.ShedDropped = m.ShedDropped.Load()
	s.Panics = m.Panics.Load()
	s.NTSServed = m.NTSServed.Load()
	s.NTSNaks = m.NTSNaks.Load()
	for i := range m.latency {
		s.Latency[i] = m.latency[i].Load()
	}
	return s
}

// LatencyQuantile returns the histogram bucket bound at or above the
// q-th quantile (0 < q ≤ 1) of handled requests, and false when
// nothing has been observed. The overflow bucket reports the largest
// finite bound (the true value is "greater than" it).
func (s Snapshot) LatencyQuantile(q float64) (time.Duration, bool) {
	var total uint64
	for _, c := range s.Latency {
		total += c
	}
	if total == 0 {
		return 0, false
	}
	target := uint64(q * float64(total))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range s.Latency {
		cum += c
		if cum >= target {
			if i < len(latencyBounds) {
				return latencyBounds[i], true
			}
			return latencyBounds[len(latencyBounds)-1], true
		}
	}
	return latencyBounds[len(latencyBounds)-1], true
}

// String renders a one-line summary for periodic logging.
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "served=%d limited=%d shed=%d shed-dropped=%d dropped=%d malformed=%d write-errors=%d panics=%d restarts=%d health=%s",
		s.Served, s.Limited, s.Shed, s.ShedDropped, s.Dropped, s.Malformed,
		s.WriteErrors, s.Panics, s.Restarts, s.Health)
	if s.NTSServed > 0 || s.NTSNaks > 0 {
		fmt.Fprintf(&b, " nts-served=%d nts-naks=%d", s.NTSServed, s.NTSNaks)
	}
	if p50, ok := s.LatencyQuantile(0.50); ok {
		p99, _ := s.LatencyQuantile(0.99)
		fmt.Fprintf(&b, " latency p50≤%v p99≤%v", p50, p99)
	}
	return b.String()
}
