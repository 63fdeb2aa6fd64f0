// Population-scale scenarios: first-class, seeded, assertable
// programs over the engine. Each returns a Report whose Violations
// list is empty iff the scenario's invariants held — the same
// contract as the chaos harness, so CI and cmd/ntppop consume them
// uniformly.
package population

import (
	"fmt"
	"time"

	"mntp/internal/clock"
	"mntp/internal/ntpnet"
	"mntp/internal/overload"
)

// Report is one scenario's JSON-serializable outcome.
type Report struct {
	Scenario       string  `json:"scenario"`
	N              int     `json:"n"`
	Seed           int64   `json:"seed"`
	Mode           string  `json:"mode"`
	VirtualSeconds float64 `json:"virtual_seconds"`

	Sent     uint64 `json:"sent"`
	Served   uint64 `json:"served"`
	Rated    uint64 `json:"rated"`
	Fails    uint64 `json:"fails"`
	Suspends uint64 `json:"suspends,omitempty"`

	ServedClients int `json:"served_clients"`
	RatedClients  int `json:"rated_clients,omitempty"`
	MaxDryStreak  int `json:"max_dry_streak"`

	PeakToMeanLocked   float64 `json:"peak_to_mean_locked,omitempty"`
	PeakToMeanJittered float64 `json:"peak_to_mean_jittered,omitempty"`

	MedianOffsetMS float64 `json:"median_offset_ms,omitempty"`
	P99OffsetMS    float64 `json:"p99_offset_ms,omitempty"`
	FracAbove100MS float64 `json:"frac_above_100ms,omitempty"`

	DarkStreakReal int    `json:"dark_streak_real,omitempty"`
	Shed           uint64 `json:"shed,omitempty"`
	ShedDropped    uint64 `json:"shed_dropped,omitempty"`

	// Restart-storm fields: the persisted-keyring pass's NTS NAK and
	// re-KE counts (both must be zero) and the cold baseline's, which
	// must show the herd. Cold's dark interval is reported beside the
	// persisted pass's DarkStreakReal for comparison.
	NTSNaks            uint64 `json:"nts_naks,omitempty"`
	ReKEs              uint64 `json:"re_kes,omitempty"`
	ColdNTSNaks        uint64 `json:"cold_nts_naks,omitempty"`
	ColdReKEs          uint64 `json:"cold_re_kes,omitempty"`
	ColdDarkStreakReal int    `json:"cold_dark_streak_real,omitempty"`

	RTTP50MS float64 `json:"rtt_p50_ms,omitempty"`
	RTTP99MS float64 `json:"rtt_p99_ms,omitempty"`

	Violations []string `json:"violations"`
	Pass       bool     `json:"pass"`
}

func (r *Report) Violate(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

func (r *Report) Finish(e *Engine, horizon time.Duration) {
	t := e.Totals()
	r.Sent, r.Served, r.Rated, r.Fails, r.Suspends = t.Sent, t.OK, t.Rated, t.Fails, t.Suspends
	r.ServedClients = e.ServedClients()
	r.RatedClients = e.RatedClients()
	r.MaxDryStreak = e.MaxDryStreak()
	r.VirtualSeconds = horizon.Seconds()
	if q, ok := e.RTT().Quantile(0.5); ok {
		r.RTTP50MS = float64(q) / 1e6
	}
	if q, ok := e.RTT().Quantile(0.99); ok {
		r.RTTP99MS = float64(q) / 1e6
	}
	r.Pass = len(r.Violations) == 0
	if r.Violations == nil {
		r.Violations = []string{}
	}
}

// Scenario names accepted by Run and cmd/ntppop.
const (
	ScenarioFlashCrowd  = "flashcrowd"
	ScenarioHerd        = "herd"
	ScenarioNAT         = "nat"
	ScenarioFalseticker = "falseticker"
	ScenarioRestart     = "restart"
)

// Scenarios lists the catalog in presentation order.
func Scenarios() []string {
	return []string{ScenarioFlashCrowd, ScenarioHerd, ScenarioNAT, ScenarioFalseticker, ScenarioRestart}
}

// Run dispatches a scenario by name with its default population size
// when n is 0.
func Run(name string, n int, seed int64) (*Report, error) {
	switch name {
	case ScenarioFlashCrowd:
		if n == 0 {
			n = 2500
		}
		return FlashCrowd(n, seed)
	case ScenarioHerd:
		if n == 0 {
			n = 5000
		}
		return ThunderingHerd(n, seed)
	case ScenarioNAT:
		if n == 0 {
			n = 10000
		}
		return NATCollision(n, seed)
	case ScenarioFalseticker:
		if n == 0 {
			n = 20000
		}
		return PartialFalseticker(n, seed)
	case ScenarioRestart:
		if n == 0 {
			n = 48
		}
		return RestartStorm(n, seed)
	default:
		return nil, fmt.Errorf("population: unknown scenario %q (have %v)", name, Scenarios())
	}
}

// goodPool is the default honest four-server pool for sim scenarios.
func goodPool() []Upstream {
	return []Upstream{
		{Name: "s0", Err: 1 * time.Millisecond, Stratum: 2},
		{Name: "s1", Err: -2 * time.Millisecond, Stratum: 2},
		{Name: "s2", Err: 2 * time.Millisecond, Stratum: 2},
		{Name: "s3", Err: -1 * time.Millisecond, Stratum: 3},
	}
}

// ThunderingHerd runs the same synchronized cold start twice — once
// with poll jitter disabled (the phase-locked fleet) and once with
// the default 10% jitter — and compares arrival burstiness. The
// assertion is the satellite fix's contract: jitter breaks the lock.
func ThunderingHerd(n int, seed int64) (*Report, error) {
	const (
		poll    = 64 * time.Second
		rounds  = 16
		horizon = time.Duration(rounds) * poll
	)
	run := func(jitter float64) (*Engine, error) {
		e, err := New(Config{
			N:         n,
			Seed:      seed,
			Mode:      ModeSim,
			Upstreams: goodPool(),
			PollBase:  poll,
			// StartSpread 0: every device wakes at the same instant —
			// the post-outage regional power-restore shape.
			PollJitter: jitter,
		})
		if err != nil {
			return nil, err
		}
		return e, e.Run(horizon)
	}

	locked, err := run(0)
	if err != nil {
		return nil, err
	}
	jittered, err := run(0.1)
	if err != nil {
		return nil, err
	}

	r := &Report{Scenario: ScenarioHerd, N: n, Seed: seed, Mode: "sim"}
	// Skip the synchronized cold-start bin — identical for both
	// fleets by construction; the herd is about every round after.
	r.PeakToMeanLocked = locked.Bins().PeakToMean(1)
	r.PeakToMeanJittered = jittered.Bins().PeakToMean(1)
	if r.PeakToMeanLocked < 20 {
		r.Violate("locked fleet peak/mean %.1f < 20: the herd never formed (harness broken)", r.PeakToMeanLocked)
	}
	if r.PeakToMeanJittered > 15 {
		r.Violate("jittered fleet peak/mean %.1f > 15: jitter failed to break the phase lock", r.PeakToMeanJittered)
	}
	if r.PeakToMeanLocked < 3*r.PeakToMeanJittered {
		r.Violate("locked/jittered burstiness ratio %.1f < 3", r.PeakToMeanLocked/r.PeakToMeanJittered)
	}
	r.Finish(jittered, horizon)
	return r, nil
}

// PartialFalseticker puts a 400ms liar in the pool that only a
// fraction of the population can see — and the affected clients can
// see just one honest server beside it, so the warm-up median has no
// rejection power for them (two samples average instead of vote).
// The assertion is the population-scale contract: a partial liar may
// wreck its captives' tails, but the population median stays sane.
func PartialFalseticker(n int, seed int64) (*Report, error) {
	const (
		liarErr        = 400 * time.Millisecond
		affectedFrac   = 0.2
		poll           = 64 * time.Second
		horizon        = 8 * poll
		liarIdx        = 4
		goodVisibility = 0b1111
	)
	ups := append(goodPool(), Upstream{Name: "liar", Err: liarErr, Stratum: 2})
	e, err := New(Config{
		N:         n,
		Seed:      seed,
		Mode:      ModeSim,
		Upstreams: ups,
		PollBase:  poll,
		// De-phase starts so warm-ups don't collide in one instant.
		StartSpread: poll,
		PollJitter:  0.1,
		VisibilityFn: func(id int, rng *uint64) uint64 {
			if RandFloat(rng) < affectedFrac {
				// Captive client: the liar plus one honest server.
				return 1<<liarIdx | 1<<(Rand(rng)%4)
			}
			return goodVisibility
		},
	})
	if err != nil {
		return nil, err
	}
	if err := e.Run(horizon); err != nil {
		return nil, err
	}

	r := &Report{Scenario: ScenarioFalseticker, N: n, Seed: seed, Mode: "sim"}
	st := e.Stats(100 * time.Millisecond)
	r.MedianOffsetMS = float64(st.Median) / 1e6
	r.P99OffsetMS = float64(st.P99) / 1e6
	r.FracAbove100MS = st.FracAbove
	if st.Median > 25*time.Millisecond {
		r.Violate("population median offset %v > 25ms: the liar moved the median", st.Median)
	}
	if st.FracAbove > 0.18 {
		r.Violate("%.1f%% of clients beyond 100ms > 18%%: liar captured more than its visibility share", 100*st.FracAbove)
	}
	if st.FracAbove < 0.02 {
		r.Violate("only %.1f%% of clients beyond 100ms < 2%%: the liar did no damage (harness broken)", 100*st.FracAbove)
	}
	r.Finish(e, horizon)
	return r, nil
}

// NATCollision drives n clients that all share one source IP (every
// pool worker dials from 127.0.0.1) into the real server's per-IP
// rate-limit table. The first synchronized window blows the budget —
// thousands of RATE kisses — and the assertion is the starvation
// bound: backoff plus jitter must get every single client served
// within the horizon, with a small worst dry streak.
func NATCollision(n int, seed int64) (*Report, error) {
	const (
		poll       = 60 * time.Second
		horizon    = 300 * time.Second
		rateWindow = 10 * time.Second
		rateLimit  = 5000
	)
	e, err := New(Config{
		N:           n,
		Seed:        seed,
		Mode:        ModeUDP,
		Addr:        "127.0.0.1:0", // replaced below once the server binds
		PollBase:    poll,
		PollJitter:  0.1,
		StartSpread: 5 * time.Second,
		// Cap KoD backoff at 2× the base poll: with half the
		// population RATE'd in the first shared window, a deeper
		// exponential would push twice-kissed clients past any
		// reasonable horizon — the starvation the scenario polices.
		MaxBackoffShift: 1,
		Workers:         32,
		Timeout:         250 * time.Millisecond,
		Quantum:         500 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}

	srv := ntpnet.NewServer(e.VClock(), 2)
	srv.RateLimit = rateLimit
	srv.RateWindow = rateWindow
	srv.Workers = 2
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	e.cfg.Addr = addr.String()

	if err := e.Run(horizon); err != nil {
		return nil, err
	}

	r := &Report{Scenario: ScenarioNAT, N: n, Seed: seed, Mode: "udp"}
	snap := srv.Snapshot()
	if e.ServedClients() < n {
		r.Violate("%d of %d clients never served: the rate limiter starved the NAT population", n-e.ServedClients(), n)
	}
	if e.RatedClients() < n/4 {
		r.Violate("only %d clients saw RATE (< n/4): the collision never happened (harness broken)", e.RatedClients())
	}
	if d := e.MaxDryStreak(); d > 3 {
		r.Violate("worst dry streak %d > 3 polls", d)
	}
	if snap.Limited == 0 {
		r.Violate("server counted no rate-limited requests")
	}
	r.Finish(e, horizon)
	return r, nil
}

// FlashCrowd is the synchronized cold start after a regional outage,
// aimed at a deliberately under-provisioned real server (a per-request
// FaultHook sleep pins its capacity below the offered storm). The
// overload controller must shed — RATE kisses or pre-parse drops —
// while never going dark: some requests are answered in every 100ms
// of wall time while the storm drains.
func FlashCrowd(n int, seed int64) (*Report, error) {
	const (
		horizon = 60 * time.Second
		// serviceTime pins server capacity at ~workers/serviceTime
		// ≈ 1000 req/s — far below the cold-start burst.
		serviceTime = 2 * time.Millisecond
	)
	e, err := New(Config{
		N:    n,
		Seed: seed,
		Mode: ModeUDP,
		Addr: "127.0.0.1:0",
		// The whole region restores within 2s; clients re-poll every
		// 10s (backoff-shifted) until they get through.
		PollBase:    10 * time.Second,
		PollJitter:  0.1,
		StartSpread: 2 * time.Second,
		Workers:     48,
		Timeout:     100 * time.Millisecond,
		Quantum:     500 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}

	srv := ntpnet.NewServer(e.VClock(), 2)
	srv.Workers = 2
	srv.Overload = &overload.Config{}
	srv.FaultHook = func(int) { time.Sleep(serviceTime) }
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	e.cfg.Addr = addr.String()

	if err := e.Run(horizon); err != nil {
		return nil, err
	}

	r := &Report{Scenario: ScenarioFlashCrowd, N: n, Seed: seed, Mode: "udp"}
	snap := srv.Snapshot()
	r.Shed = snap.Shed
	r.ShedDropped = snap.ShedDropped
	r.DarkStreakReal = e.DarkStreakReal()
	if snap.Shed+snap.ShedDropped == 0 {
		r.Violate("overload controller never shed: the crowd did not overload the server (harness broken)")
	}
	if r.DarkStreakReal > 5 {
		r.Violate("dark interval: %d consecutive 100ms wall bins with zero answers (> 5)", r.DarkStreakReal)
	}
	t := e.Totals()
	if t.OK < uint64(n)/4 {
		r.Violate("only %d successes for %d clients: the server collapsed instead of shedding", t.OK, n)
	}
	r.Finish(e, horizon)
	return r, nil
}

var _ clock.Clock = (*VClock)(nil)
