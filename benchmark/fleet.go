package main

import (
	"fmt"
	"runtime"
	"time"

	"mntp/internal/chaos"
	"mntp/internal/population"
)

// Fleet-sim sizes: the ROADMAP's multi-seed chaos sweep, and the
// population falseticker scenario at a million clients.
const (
	chaosSeeds = 20
	popClients = 1_000_000
	popSetups  = 3 // engine constructions per run; the last one runs
	popPoll    = 64 * time.Second
	popHorizon = 8 * popPoll
	popLiarErr = 400 * time.Millisecond
	popLiarIdx = 4
	popCaptive = 0.2
)

// chaosSeed is the seed of run i (1..chaosSeeds) of a scenario whose
// pinned seed is base: benchmark seed 1 gives the ROADMAP sweep
// base·1000 + i, and each further seed the next block of chaosSeeds.
func chaosSeed(base, seed int64, i int) int64 {
	return base*1000 + (seed-1)*chaosSeeds + int64(i)
}

// chaosRun is one scenario run's outcome.
type chaosRun struct {
	scenario   string
	seed       int64
	final      time.Duration // |true offset| at the end
	violations []string
	requests   int           // NTP requests the client sent
	virtual    time.Duration // simulated time
	cpu        time.Duration // process CPU time
	report     *chaos.Report
}

// chaosSweep runs every scenario at chaosSeeds seeds with the default
// estimator, in a fixed order.
func chaosSweep(seed int64, buf *spanBuf) []chaosRun {
	var out []chaosRun
	for _, sc := range chaos.Scenarios() {
		base := sc.Seed
		for i := 1; i <= chaosSeeds; i++ {
			s := sc
			s.Seed = chaosSeed(base, seed, i)
			t0, c0 := time.Now(), selfCPU()
			r := chaos.Run(s)
			c1, t1 := selfCPU(), time.Now()
			buf.add("chaos."+sc.Name, 0, s.Seed, t0, t1, 1)
			c := chaosRun{
				scenario: sc.Name, seed: s.Seed, final: absDur(r.Final),
				violations: r.Violations(), virtual: r.Scenario.Duration, cpu: c1 - c0, report: r,
			}
			if len(r.Events) > 0 {
				c.requests = r.Events[len(r.Events)-1].Requests
			}
			out = append(out, c)
		}
	}
	return out
}

// popConfig is population.PartialFalseticker's fleet of n clients: a
// 400 ms liar visible to a fifth of them, each of which sees only one
// honest server beside it.
func popConfig(n int, seed int64) population.Config {
	ups := []population.Upstream{
		{Name: "s0", Err: 1 * time.Millisecond, Stratum: 2},
		{Name: "s1", Err: -2 * time.Millisecond, Stratum: 2},
		{Name: "s2", Err: 2 * time.Millisecond, Stratum: 2},
		{Name: "s3", Err: -1 * time.Millisecond, Stratum: 3},
		{Name: "liar", Err: popLiarErr, Stratum: 2},
	}
	return population.Config{
		N: n, Seed: seed, Mode: population.ModeSim, Upstreams: ups,
		PollBase: popPoll, StartSpread: popPoll, PollJitter: 0.1,
		VisibilityFn: func(id int, rng *uint64) uint64 {
			if population.RandFloat(rng) < popCaptive {
				return 1<<popLiarIdx | 1<<(population.Rand(rng)%4)
			}
			return 0b1111
		},
	}
}

// popViolations applies PartialFalseticker's assertions.
func popViolations(st population.OffsetStats) []string {
	var v []string
	if st.Median > 25*time.Millisecond {
		v = append(v, fmt.Sprintf("population median offset %v > 25ms", st.Median))
	}
	if st.FracAbove > 0.18 {
		v = append(v, fmt.Sprintf("%.1f%% of clients beyond 100ms > 18%%", 100*st.FracAbove))
	}
	if st.FracAbove < 0.02 {
		v = append(v, fmt.Sprintf("only %.1f%% of clients beyond 100ms < 2%%", 100*st.FracAbove))
	}
	return v
}

// fleetRun is everything the fleet-sim workload measured.
type fleetRun struct {
	n            int       // population clients
	setup        []float64 // s of process CPU, per engine construction
	heapPerCli   float64   // live heap bytes per client after construction
	sweeps       [][]chaosRun
	popRun       time.Duration // wall time of the population run
	popCPU       time.Duration // its process CPU time
	popStats     population.OffsetStats
	popTotals    population.Totals
	popViolation []string
	popRTTP50    time.Duration
}

// liveHeap returns the live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// runFleet builds the population engine of n clients popSetups times,
// runs the chaos sweep, runs the population to its horizon, then
// repeats the sweep until `seconds` have passed; every repeat must
// reproduce the first sweep exactly.
func runFleet(seed int64, seconds float64, n int, tr *tracer) (*fleetRun, error) {
	start := time.Now()
	buf := tr.buf(1024)
	run := &fleetRun{n: n}
	var eng *population.Engine
	for i := 0; i < popSetups; i++ {
		eng = nil
		h0 := liveHeap()
		t0, c0 := time.Now(), selfCPU()
		e, err := population.New(popConfig(n, seed))
		if err != nil {
			return nil, err
		}
		c1, t1 := selfCPU(), time.Now()
		buf.add("population.new", 0, 0, t0, t1, n)
		run.setup = append(run.setup, (c1 - c0).Seconds())
		run.heapPerCli = float64(liveHeap()-h0) / float64(n)
		eng = e
	}

	run.sweeps = append(run.sweeps, chaosSweep(seed, buf))

	cpu0, t0 := selfCPU(), time.Now()
	if err := eng.Run(popHorizon); err != nil {
		return nil, err
	}
	t1 := time.Now()
	buf.add("population.run", 0, 0, t0, t1, 1)
	run.popRun, run.popCPU = t1.Sub(t0), selfCPU()-cpu0
	run.popStats = eng.Stats(100 * time.Millisecond)
	run.popTotals = eng.Totals()
	if q, ok := eng.RTT().Quantile(0.5); ok {
		run.popRTTP50 = q
	}
	run.popViolation = popViolations(run.popStats)
	eng = nil
	runtime.GC()

	for time.Since(start).Seconds() < seconds {
		sw := chaosSweep(seed, buf)
		for i := range sw {
			sw[i].report = nil // only the first sweep's events are replayed
		}
		run.sweeps = append(run.sweeps, sw)
	}
	return run, nil
}

// deterministic reports the first difference between a repeated sweep
// and the first one: same seed, same accuracy numbers.
func (r *fleetRun) deterministic() error {
	first := r.sweeps[0]
	for k, sw := range r.sweeps[1:] {
		for i := range first {
			a, b := first[i], sw[i]
			if a.final != b.final || len(a.violations) != len(b.violations) {
				return fmt.Errorf("sweep %d: %s seed %d ended at %v with %d violations, first sweep %v with %d",
					k+2, b.scenario, b.seed, b.final, len(b.violations), a.final, len(a.violations))
			}
		}
	}
	return nil
}
