package population

import (
	"sync"
	"sync/atomic"
	"time"

	"mntp/internal/loadgen"
)

// VClock is an atomically advanced virtual clock implementing
// clock.Clock. In ModeUDP the real server runs with a VClock as its
// Clock, so its rate-limit windows follow population virtual time (a
// 10k-client day compresses into seconds of wall time) while its
// overload sojourn signal — kernel receive timestamps — stays real.
type VClock struct {
	epoch time.Time
	ns    atomic.Int64
}

// NewVClock returns a virtual clock anchored at epoch.
func NewVClock(epoch time.Time) *VClock { return &VClock{epoch: epoch} }

// Now returns the current virtual instant.
func (v *VClock) Now() time.Time { return v.epoch.Add(time.Duration(v.ns.Load())) }

// Advance moves the clock to d past the epoch. The engine only moves
// it forward.
func (v *VClock) Advance(d time.Duration) { v.ns.Store(int64(d)) }

const (
	// darkBinWidth buckets real (wall) time for the dark-interval
	// metric.
	darkBinWidth = 100 * time.Millisecond
	// numDarkBins bounds a run's wall-clock bins (~6.8 minutes); later
	// traffic folds into the last bin.
	numDarkBins = 4096
)

// darkBins counts real-UDP requests sent and served per 100ms of wall
// time, from start. Workers record concurrently.
type darkBins struct {
	start        time.Time
	sent, served [numDarkBins]atomic.Uint32
}

func newDarkBins(start time.Time) *darkBins { return &darkBins{start: start} }

func (b *darkBins) bin(t time.Time) int {
	i := int(t.Sub(b.start) / darkBinWidth)
	return max(0, min(i, numDarkBins-1))
}

// record notes one exchange that was sent at sent and classified as
// class at done.
func (b *darkBins) record(sent, done time.Time, class loadgen.ReplyClass) {
	b.sent[b.bin(sent)].Add(1)
	if class == loadgen.ReplyServed {
		b.served[b.bin(done)].Add(1)
	}
}

// darkStreak is the longest run of bins in which nothing was served,
// counted from the first bin in which a request was sent to the last:
// the wall-clock outage signature. Idle air before the first request
// and after the last does not count.
func (b *darkBins) darkStreak() int {
	first, last := -1, -1
	for i := range b.sent {
		if b.sent[i].Load() > 0 {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	if first < 0 {
		return 0
	}
	worst, run := 0, 0
	for i := first; i <= last; i++ {
		if b.served[i].Load() > 0 {
			run = 0
			continue
		}
		run++
		worst = max(worst, run)
	}
	return worst
}

// runUDP advances the population against the real server: virtual
// time is quantized, each quantum's due clients form one batch served
// in real time by a bounded pool of closed-loop loadgen sockets, then
// virtual time jumps to the next quantum.
func (e *Engine) runUDP(horizon time.Duration) error {
	conns := make([]*loadgen.Conn, 0, e.cfg.Workers)
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for i := 0; i < e.cfg.Workers; i++ {
		c, err := loadgen.Dial(e.cfg.Addr, e.cfg.Timeout)
		if err != nil {
			return err
		}
		conns = append(conns, c)
	}

	h := int64(horizon)
	q := int64(e.cfg.Quantum)
	batch := make([]ev, 0, 4096)
	for {
		at, _, ok := e.nextClient()
		for len(e.ctrl) > 0 && e.ctrl[0].at <= h && (!ok || e.ctrl[0].at <= at) {
			c := e.ctrl[0]
			e.ctrl = e.ctrl[1:]
			if c.at > e.vt {
				e.vt = c.at
			}
			c.fn()
			at, _, ok = e.nextClient()
		}
		if !ok || at > h {
			break
		}
		qStart := (at / q) * q
		qEnd := qStart + q
		if e.vt < qStart {
			e.vt = qStart
		}
		e.vc.Advance(time.Duration(qStart))

		batch = batch[:0]
		for {
			a2, s2, ok2 := e.nextClient()
			if !ok2 || a2 >= qEnd || a2 > h {
				break
			}
			batch = append(batch, e.heaps[s2].pop())
		}
		e.dispatch(conns, batch)
		e.vt = qEnd
	}
	if e.vt < h {
		e.vt = h
	}
	return nil
}

// dispatch serves one quantum's batch through the socket pool and
// folds the results back into the fleet on the engine thread.
func (e *Engine) dispatch(conns []*loadgen.Conn, batch []ev) {
	if len(batch) == 0 {
		return
	}
	if e.dark == nil {
		e.dark = newDarkBins(time.Now())
	}
	e.sent += uint64(len(batch))
	for _, evt := range batch {
		e.bins.sentAt(evt.at)
		e.f.res[evt.id] = loadgen.ReplyLost
	}

	if !e.down {
		nw := min(len(conns), len(batch))
		var wg sync.WaitGroup
		for w := 0; w < nw; w++ {
			wg.Add(1)
			go func(c *loadgen.Conn) {
				defer wg.Done()
				for i := w; i < len(batch); i += nw {
					sent := time.Now()
					class, rtt := c.Exchange(nil)
					if class != loadgen.ReplyLost {
						e.rtt.Record(rtt)
					}
					e.dark.record(sent, time.Now(), class)
					e.f.res[batch[i].id] = class
				}
			}(conns[w])
		}
		wg.Wait()
	}

	for _, evt := range batch {
		id := int(evt.id)
		switch e.f.res[id] {
		case loadgen.ReplyServed:
			e.ok++
			e.f.served[id]++
			e.f.dry[id] = 0
			e.f.boff[id] = 0
		case loadgen.ReplyKoDRate:
			e.rated++
			e.f.rated[id]++
			e.bump(id)
		default:
			e.fails++
			e.bump(id)
		}
		e.heaps[id&(nShards-1)].push(ev{at: evt.at + int64(e.pollDelay(id)), id: evt.id})
	}
}

// DarkStreakReal is the longest run of 100ms wall-clock bins with no
// request served, from the first request sent to the last — the
// outage signature for ModeUDP, where batches run back-to-back in
// real time.
func (e *Engine) DarkStreakReal() int {
	if e.dark == nil {
		return 0
	}
	return e.dark.darkStreak()
}
