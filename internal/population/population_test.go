package population

import (
	"runtime"
	"testing"
	"time"

	"mntp/internal/loadgen"
)

func simConfig(n int, seed int64) Config {
	return Config{
		N:           n,
		Seed:        seed,
		Mode:        ModeSim,
		Upstreams:   goodPool(),
		PollBase:    64 * time.Second,
		PollJitter:  0.1,
		StartSpread: 30 * time.Second,
	}
}

// TestEngineConvergence: a cold population with seconds of initial
// clock error must converge to the honest pool's few-ms error band
// after a handful of rounds.
func TestEngineConvergence(t *testing.T) {
	e, err := New(simConfig(2000, 11))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(8 * 64 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := e.Stats(100 * time.Millisecond)
	if st.Median > 20*time.Millisecond {
		t.Fatalf("population median offset %v after 8 rounds, want ≤ 20ms", st.Median)
	}
	if e.ServedClients() < 1990 {
		t.Fatalf("only %d/2000 clients ever served", e.ServedClients())
	}
	tot := e.Totals()
	if tot.OK == 0 || tot.Sent == 0 {
		t.Fatalf("no traffic: %+v", tot)
	}
	if e.RTT().Count() == 0 {
		t.Fatal("RTT recorder empty")
	}
}

// TestEngineDeterminism: same seed → identical counters and stats;
// different seed → different traffic trace.
func TestEngineDeterminism(t *testing.T) {
	run := func(seed int64) (Totals, OffsetStats) {
		e, err := New(simConfig(500, seed))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Run(5 * 64 * time.Second); err != nil {
			t.Fatal(err)
		}
		return e.Totals(), e.Stats(0)
	}
	t1, s1 := run(7)
	t2, s2 := run(7)
	if t1 != t2 || s1 != s2 {
		t.Fatalf("same seed diverged:\n%+v %+v\n%+v %+v", t1, s1, t2, s2)
	}
	t3, _ := run(8)
	if t1 == t3 {
		t.Fatalf("different seeds produced identical totals %+v", t1)
	}
}

// TestEngineSuspend: a heavy suspend schedule must register suspends
// and reduce traffic versus an always-on fleet.
func TestEngineSuspend(t *testing.T) {
	base := simConfig(1000, 3)
	e1, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	withSusp := base
	withSusp.SuspendProb = 0.5
	withSusp.SuspendMean = 4 * base.PollBase
	e2, err := New(withSusp)
	if err != nil {
		t.Fatal(err)
	}
	h := 10 * 64 * time.Second
	if err := e1.Run(h); err != nil {
		t.Fatal(err)
	}
	if err := e2.Run(h); err != nil {
		t.Fatal(err)
	}
	if e2.Totals().Suspends == 0 {
		t.Fatal("suspending fleet recorded no suspends")
	}
	if e2.Totals().Sent >= e1.Totals().Sent {
		t.Fatalf("suspending fleet sent %d ≥ always-on %d", e2.Totals().Sent, e1.Totals().Sent)
	}
}

// TestEngineOutageHook: SetOutage via At must fail all polls during
// the window and the fleet must recover afterwards.
func TestEngineOutageHook(t *testing.T) {
	cfg := simConfig(800, 5)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.At(3*64*time.Second, func() { e.SetOutage(true) })
	e.At(6*64*time.Second, func() { e.SetOutage(false) })
	if err := e.Run(12 * 64 * time.Second); err != nil {
		t.Fatal(err)
	}
	tot := e.Totals()
	if tot.Fails == 0 {
		t.Fatal("outage window produced no failures")
	}
	if d := e.MaxDryStreak(); d < 2 {
		t.Fatalf("outage never built a dry streak (max %d)", d)
	}
	// Recovery: the final state must still be a converged population.
	if st := e.Stats(0); st.Median > 20*time.Millisecond {
		t.Fatalf("median %v after recovery, want ≤ 20ms", st.Median)
	}
}

// TestReservoir pins the bounded-sample contract: capacity respected,
// count exact, quantiles of a known stream in range.
func TestReservoir(t *testing.T) {
	r := NewReservoir(128, 42)
	for i := 0; i < 100000; i++ {
		r.Add(float64(i%1000) / 1000)
	}
	if r.Count() != 100000 {
		t.Fatalf("count %d", r.Count())
	}
	if len(r.vals) != 128 {
		t.Fatalf("reservoir grew to %d > 128", len(r.vals))
	}
	med, ok := r.Quantile(0.5)
	if !ok {
		t.Fatal("empty quantile")
	}
	// Uniform [0,1): the sampled median should land well inside.
	if med < 300*time.Millisecond || med > 700*time.Millisecond {
		t.Fatalf("sampled median %v outside [0.3s, 0.7s]", med)
	}
}

// TestEvHeapOrder pins the hand-rolled heap: pops come out sorted.
func TestEvHeapOrder(t *testing.T) {
	var h evHeap
	st := uint64(9)
	for i := 0; i < 5000; i++ {
		h.push(ev{at: int64(Rand(&st) % 1000000), id: int32(i)})
	}
	prev := int64(-1)
	for len(h) > 0 {
		e := h.pop()
		if e.at < prev {
			t.Fatalf("heap order violated: %d after %d", e.at, prev)
		}
		prev = e.at
	}
}

// heapInUse runs a full GC and returns live heap bytes.
func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// warmupHeap builds an n-client engine, completes one warm-up round,
// and returns the live heap while the engine is still reachable.
func warmupHeap(t *testing.T, n int) uint64 {
	t.Helper()
	before := heapInUse()
	cfg := simConfig(n, 21)
	cfg.StartSpread = 10 * time.Second
	cfg.PollBase = time.Hour // one round only
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(11 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := e.ServedClients(); got < n*9/10 {
		t.Fatalf("warm-up round served only %d/%d clients", got, n)
	}
	after := heapInUse()
	runtime.KeepAlive(e)
	if after <= before {
		return 1
	}
	return after - before
}

// TestMillionClientMemory is the flat-memory acceptance test: one
// million simulated clients complete a warm-up round with a bounded,
// struct-of-arrays heap — ≤ 160 bytes per client, and ≤ ~linear
// growth from the 100k baseline (fixed costs — channel pool, bins,
// reservoirs — must not scale with N).
func TestMillionClientMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-client memory test skipped in -short")
	}
	if raceEnabled {
		t.Skip("1M-client memory test skipped under -race (shadow memory)")
	}
	base := warmupHeap(t, 100_000)
	big := warmupHeap(t, 1_000_000)
	t.Logf("heap: 100k=%dKB 1M=%dKB (%.1fB/client)", base/1024, big/1024, float64(big)/1e6)
	if per := float64(big) / 1e6; per > 160 {
		t.Fatalf("1M clients use %.1f B/client, want ≤ 160 (SoA regressed)", per)
	}
	if big > 10*base+(8<<20) {
		t.Fatalf("heap grew superlinearly: 100k→%dB, 1M→%dB", base, big)
	}
}

// TestDarkStreak pins the one wall-clock outage count the real-UDP
// scenarios share: the longest run of 100ms bins with nothing served,
// counted only between the first and last bins in which a request
// was sent.
func TestDarkStreak(t *testing.T) {
	cases := []struct {
		name         string
		sent, served []uint32 // per bin
		want         int
	}{
		{"empty run", nil, nil, 0},
		{"leading and trailing idle bins", []uint32{0, 0, 3, 3, 3, 0, 0}, []uint32{0, 0, 3, 3, 3, 0, 0}, 0},
		{"gap while sending", []uint32{2, 2, 2, 2, 2, 2}, []uint32{2, 0, 0, 0, 2, 2}, 3},
		{"idle bins inside the run are dark", []uint32{2, 0, 0, 2}, []uint32{2, 0, 0, 2}, 2},
		{"longest of two gaps", []uint32{1, 1, 1, 1, 1, 1, 1}, []uint32{1, 0, 1, 0, 0, 1, 1}, 2},
		{"dark tail while still sending", []uint32{1, 1, 1, 1}, []uint32{1, 1, 0, 0}, 2},
		{"all dark", []uint32{0, 4, 4, 4, 4, 0}, []uint32{0, 0, 0, 0, 0, 0}, 4},
	}
	for _, c := range cases {
		b := newDarkBins(time.Now())
		for i := range c.sent {
			b.sent[i].Store(c.sent[i])
			b.served[i].Store(c.served[i])
		}
		if got := b.darkStreak(); got != c.want {
			t.Errorf("%s: darkStreak = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestDarkBinsRecord: an exchange lands in the bin of its send time,
// and counts as served — in the bin it completed — only when its
// reply was served time.
func TestDarkBinsRecord(t *testing.T) {
	start := time.Now()
	b := newDarkBins(start)
	at := func(bins int) time.Time { return start.Add(time.Duration(bins)*darkBinWidth + darkBinWidth/2) }
	b.record(at(0), at(0), loadgen.ReplyServed)
	b.record(at(1), at(2), loadgen.ReplyKoDRate)
	b.record(at(2), at(3), loadgen.ReplyLost)
	b.record(at(3), at(4), loadgen.ReplyServed)
	b.record(at(numDarkBins+5), at(numDarkBins+5), loadgen.ReplyServed) // folds into the last bin
	if b.sent[1].Load() != 1 || b.served[1].Load() != 0 || b.served[2].Load() != 0 || b.served[4].Load() != 1 {
		t.Errorf("bins sent=%v served=%v", b.sent[:5], b.served[:5])
	}
	if b.sent[numDarkBins-1].Load() != 1 || b.served[numDarkBins-1].Load() != 1 {
		t.Error("traffic past the last bin did not fold into it")
	}
}
