package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mntp/internal/ntppkt"
	"mntp/internal/ntptime"
	"mntp/internal/nts"
)

// Request outcomes.
const (
	statPending uint8 = iota // no reply (lost)
	statOK                   // valid reply carrying time
	statKoD                  // kiss-of-death (or NTS NAK) reply
	statInvalid              // reply that failed validation
)

// Request kinds. Under NTS, one request in refillEvery asks for a full
// jar refill; the rest are steady-state requests returning one cookie.
const (
	kindPlain uint8 = iota
	kindSteady
	kindRefill
)

const refillEvery = 8

// seqBits of the request's transmit timestamp carry its sequence
// number, so a reply's echoed origin names its request. The wire T1 is
// only a nonce: θ is computed from the recorded send instant.
const (
	seqBits = 24
	seqMask = 1<<seqBits - 1
)

// rec is one scheduled request. The sender fills the send fields and
// publishes them by storing sentMono last; the socket's receiver loads
// sentMono before reading them.
type rec struct {
	due      int64 // ns after the phase start
	sentMono atomic.Int64
	sentWall int64 // wall clock at the send, Unix ns
	wireT1   ntptime.Timestamp
	st       *nts.RequestState
	kind     uint8

	recvMono int64
	theta    int64 // ns
	status   uint8
}

// ntsClient is the driver's NTS state for one socket: the session from
// one NTS-KE run, serving the steady-state requests, plus two sessions
// sharing its keys for the refill share. refill holds no cookies and
// reuses one, so each of its requests carries seven placeholders and
// the server mints eight cookies; sink verifies those replies, and its
// full jar discards the cookies.
type ntsClient struct {
	steady, refill, sink *nts.Session
}

func newNTSClient(s *nts.Session) (*ntsClient, error) {
	// Losses under overload must not dry the jar: load generation may
	// reuse a cookie, a real client would re-run NTS-KE instead.
	s.ReuseWhenDry = true
	var scratch ntppkt.Packet
	if _, err := s.ProtectRequest(&scratch); err != nil {
		return nil, fmt.Errorf("taking a cookie for the refill session: %w", err)
	}
	cookie, _ := scratch.FindExt(ntppkt.ExtNTSCookie)
	c := &ntsClient{
		steady: s,
		refill: &nts.Session{NTPServer: s.NTPServer, AEAD: s.AEAD, C2S: s.C2S, S2C: s.S2C, ReuseWhenDry: true},
		sink:   &nts.Session{NTPServer: s.NTPServer, AEAD: s.AEAD, C2S: s.C2S, S2C: s.S2C},
	}
	c.refill.AddCookies([][]byte{cookie.Value})
	return c, nil
}

// phaseSpec is one fixed-rate open-loop phase.
type phaseSpec struct {
	rate float64 // requests per second, Poisson arrivals
	dur  time.Duration
	// spanEvery records spans for one request in spanEvery (traced
	// runs), bounding trace memory at high rates.
	spanEvery int
}

// phaseResult is what the driver measured in one phase.
type phaseResult struct {
	spec                       phaseSpec
	sent, ok, kod, lost, stale int
	invalid                    []string // first few validation failures
	nInvalid                   int
	ntsSent                    int
	// Per valid reply, in µs: RTT from the due time, RTT from the
	// actual send, send lateness, signed θ.
	rttDue, rttWire, late, theta []float64
	// win is each valid reply's one-second window of the phase.
	win       []int
	driverCPU time.Duration
	wall      time.Duration
}

// driver is the benchmark's open-loop load generator: Poisson arrivals
// from a seeded source, spread round-robin over at most nproc connected
// sockets, each request timed from the instant it was due.
type driver struct {
	conns []*net.UDPConn
	nts   []*ntsClient // one per socket; nil for plain
	rng   *rand.Rand
	tr    *tracer
	seq   []uint32 // next sequence number per socket
	nreq  []int    // requests scheduled so far per socket (refill share)
}

func newDriver(addr *net.UDPAddr, sockets int, sessions []*nts.Session, seed int64, tr *tracer) (*driver, error) {
	d := &driver{rng: rand.New(rand.NewSource(seed)), tr: tr, seq: make([]uint32, sockets), nreq: make([]int, sockets)}
	for i := 0; i < sockets; i++ {
		c, err := net.DialUDP("udp", nil, addr)
		if err != nil {
			d.close()
			return nil, err
		}
		// Room for an overload phase's in-flight replies.
		_ = c.SetReadBuffer(4 << 20)
		d.conns = append(d.conns, c)
	}
	for _, s := range sessions {
		c, err := newNTSClient(s)
		if err != nil {
			d.close()
			return nil, err
		}
		d.nts = append(d.nts, c)
	}
	if len(d.nts) != 0 && len(d.nts) != sockets {
		d.close()
		return nil, fmt.Errorf("%d NTS sessions for %d sockets", len(d.nts), sockets)
	}
	return d, nil
}

func (d *driver) close() {
	for _, c := range d.conns {
		c.Close()
	}
}

// schedule draws the phase's Poisson arrival times and assigns them
// round-robin to sockets.
func (d *driver) schedule(ph phaseSpec) [][]rec {
	per := make([][]rec, len(d.conns))
	expect := int(ph.rate*ph.dur.Seconds())/len(d.conns) + 16
	for i := range per {
		per[i] = make([]rec, 0, expect)
	}
	t, i := 0.0, 0
	for {
		t += d.rng.ExpFloat64() / ph.rate
		due := int64(t * 1e9)
		if due >= ph.dur.Nanoseconds() {
			return per
		}
		k := i % len(d.conns)
		kind := kindPlain
		if d.nts != nil {
			kind = kindSteady
			if d.nreq[k]%refillEvery == refillEvery-1 {
				kind = kindRefill
			}
		}
		d.nreq[k]++
		per[k] = append(per[k], rec{due: due, kind: kind})
		i++
	}
}

// run executes one phase: a sender on its own OS thread sleeping with
// nanosecond timer slack until each request is due, and one receiver
// per socket validating and timing replies. It returns after every
// request is answered or a grace period past the last one.
func (d *driver) run(ph phaseSpec) (*phaseResult, error) {
	per := d.schedule(ph)
	base := make([]uint32, len(d.conns))
	copy(base, d.seq)
	for k := range per {
		d.seq[k] += uint32(len(per[k]))
	}

	var answered atomic.Int64
	var wg sync.WaitGroup
	recvErr := make([]error, len(d.conns))
	invalid := make([][]string, len(d.conns))
	stale := make([]int, len(d.conns))
	start := time.Now()
	cpu0 := selfCPU()
	for k := range d.conns {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			stale[k], invalid[k], recvErr[k] = d.receive(k, per[k], base[k], start, ph, &answered)
		}(k)
	}
	sendErr := d.send(per, base, start, ph)

	total := 0
	for k := range per {
		total += len(per[k])
	}
	// Grace for the last replies: on loopback they are in flight for
	// microseconds, under overload for as long as the server queue.
	graceEnd := time.Now().Add(500 * time.Millisecond)
	for answered.Load() < int64(total) && time.Now().Before(graceEnd) {
		time.Sleep(2 * time.Millisecond)
	}
	for _, c := range d.conns {
		_ = c.SetReadDeadline(time.Now())
	}
	wg.Wait()
	for _, c := range d.conns {
		_ = c.SetReadDeadline(time.Time{})
	}
	wall := time.Since(start)
	if err := errors.Join(append(recvErr, sendErr)...); err != nil {
		return nil, err
	}

	res := &phaseResult{spec: ph, driverCPU: selfCPU() - cpu0, wall: wall}
	for k := range per {
		res.stale += stale[k]
		for _, m := range invalid[k] {
			if len(res.invalid) < 5 {
				res.invalid = append(res.invalid, m)
			}
		}
		for i := range per[k] {
			r := &per[k][i]
			res.sent++
			if r.kind != kindPlain {
				res.ntsSent++
			}
			switch r.status {
			case statPending:
				res.lost++
			case statKoD:
				res.kod++
			case statInvalid:
				res.nInvalid++
			case statOK:
				res.ok++
				sent := r.sentMono.Load()
				res.rttDue = append(res.rttDue, float64(r.recvMono-r.due)/1e3)
				res.rttWire = append(res.rttWire, float64(r.recvMono-sent)/1e3)
				res.late = append(res.late, float64(sent-r.due)/1e3)
				res.theta = append(res.theta, float64(r.theta)/1e3)
			}
		}
	}
	return res, nil
}

// send walks the merged schedule in due order. It runs on a locked OS
// thread with 1 ns timer slack so nanosleep wakes within microseconds
// (the Go timer wheel rounds sub-millisecond sleeps up to about 1 ms),
// and sends every request already due in one burst after each wakeup.
func (d *driver) send(per [][]rec, base []uint32, start time.Time, ph phaseSpec) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	const prSetTimerslack = 29
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0) // best effort: lateness is reported either way

	buf := d.tr.buf(1 << 16)
	next := make([]int, len(per))
	out := make([]byte, 0, 2048)
	for {
		// Pick the socket whose next request is due first.
		k := -1
		for j := range per {
			if next[j] < len(per[j]) && (k < 0 || per[j][next[j]].due < per[k][next[k]].due) {
				k = j
			}
		}
		if k < 0 {
			return nil
		}
		i := next[k]
		next[k]++
		r := &per[k][i]
		if wait := r.due - time.Since(start).Nanoseconds(); wait > 0 {
			ts := syscall.NsecToTimespec(wait)
			for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
			}
		}
		seq := (base[k] + uint32(i)) & seqMask
		traced := buf != nil && i%ph.spanEvery == 0
		var root int32
		if traced {
			root = buf.reserve()
		}
		now := time.Now()
		r.wireT1 = ntptime.Timestamp(uint64(ntptime.FromTime(now))&^seqMask | uint64(seq))
		p := ntppkt.Packet{Version: ntppkt.Version4, Mode: ntppkt.ModeClient, Precision: -20, Transmit: r.wireT1}
		if r.kind != kindPlain {
			sess := d.nts[k].steady
			if r.kind == kindRefill {
				sess = d.nts[k].refill
			}
			var ts0 time.Time
			if traced {
				ts0 = time.Now()
			}
			st, err := sess.ProtectRequest(&p)
			if err != nil {
				return fmt.Errorf("protecting request: %w", err)
			}
			if traced {
				buf.add("nts.protect_request", root, reqID(k, seq), ts0, time.Now(), 1)
			}
			r.st = st
		}
		var te0 time.Time
		if traced {
			te0 = time.Now()
		}
		out = p.Encode(out[:0])
		if traced {
			buf.add("ntppkt.encode", root, reqID(k, seq), te0, time.Now(), 1)
		}
		// Publish the send before the write: the reply can be read
		// before this goroutine runs again.
		sent := time.Now()
		r.sentWall = sent.UnixNano()
		r.sentMono.Store(max(sent.Sub(start).Nanoseconds(), 1))
		if _, err := d.conns[k].Write(out); err != nil {
			return fmt.Errorf("sending: %w", err)
		}
		if traced {
			buf.addID(root, "driver.send", 0, reqID(k, seq), now, time.Now(), 1)
		}
	}
}

func reqID(sock int, seq uint32) int64 { return int64(sock)<<32 | int64(seq) }

// receive reads socket k's replies until its read deadline, matches
// each to its request by the echoed origin, validates it and computes
// θ. Replies to an earlier phase count as stale.
func (d *driver) receive(k int, recs []rec, base uint32, start time.Time, ph phaseSpec, answered *atomic.Int64) (stale int, invalid []string, err error) {
	buf := d.tr.buf(1 << 16)
	pkt := make([]byte, 2048)
	var p ntppkt.Packet
	bad := func(r *rec, format string, args ...any) {
		r.status = statInvalid
		if len(invalid) < 5 {
			invalid = append(invalid, fmt.Sprintf(format, args...))
		}
	}
	for {
		n, rerr := d.conns[k].Read(pkt)
		recvAt := time.Now()
		if rerr != nil {
			if errors.Is(rerr, os.ErrDeadlineExceeded) {
				return stale, invalid, nil
			}
			return stale, invalid, fmt.Errorf("receiving: %w", rerr)
		}
		if len(pkt[:n]) < ntppkt.HeaderLen {
			invalid = append(invalid, "short reply")
			continue
		}
		// The origin field sits at bytes 24..32 of every reply.
		origin := ntptime.Timestamp(binary.BigEndian.Uint64(pkt[24:32]))
		idx := (uint32(origin) - base) & seqMask
		if int(idx) >= len(recs) {
			stale++
			continue
		}
		r := &recs[idx]
		sent := r.sentMono.Load()
		if sent == 0 || r.wireT1 != origin {
			stale++
			continue
		}
		if r.status != statPending {
			bad(r, "duplicate reply to request %d", idx)
			continue
		}
		answered.Add(1)
		r.recvMono = recvAt.Sub(start).Nanoseconds()
		traced := buf != nil && int(idx)%ph.spanEvery == 0
		id := reqID(k, (base+idx)&seqMask)
		var root int32
		if traced {
			root = buf.reserve()
		}
		var td0 time.Time
		if traced {
			td0 = time.Now()
		}
		derr := p.DecodeInto(pkt[:n])
		if traced {
			buf.add("ntppkt.decode", root, id, td0, time.Now(), 1)
		}
		if derr != nil {
			bad(r, "decoding reply: %v", derr)
			continue
		}
		if verr := p.ValidateServerReply(r.wireT1); verr != nil {
			if errors.Is(verr, ntppkt.ErrKissOfDeath) {
				r.status = statKoD
			} else {
				bad(r, "reply failed validation: %v", verr)
			}
			continue
		}
		if p.Stratum != serverStratum {
			bad(r, "reply stratum %d, want %d", p.Stratum, serverStratum)
			continue
		}
		if r.kind != kindPlain {
			sess := d.nts[k].steady
			if r.kind == kindRefill {
				sess = d.nts[k].sink
			}
			var tv0 time.Time
			if traced {
				tv0 = time.Now()
			}
			verr := sess.VerifyReply(&p, r.st)
			if traced {
				buf.add("nts.verify_reply", root, id, tv0, time.Now(), 1)
			}
			if verr != nil {
				if errors.Is(verr, nts.ErrNTSNak) {
					r.status = statKoD
				} else {
					bad(r, "NTS reply failed verification: %v", verr)
				}
				continue
			}
		}
		t1 := ntptime.FromTime(time.Unix(0, r.sentWall))
		t4 := ntptime.FromTime(recvAt)
		theta, _ := offsetDelay(t1, p.Receive, p.Transmit, t4)
		// Both ends read one host clock, so the true offset is 0 and
		// causality bounds the stamps: T1 ≤ T2 ≤ T3 ≤ T4.
		if err := checkCausal(t1, p.Receive, p.Transmit, t4); err != nil {
			bad(r, "reply time is wrong: %v", err)
			continue
		}
		r.theta = int64(theta)
		r.status = statOK
		if traced {
			buf.addID(root, "driver.recv", 0, id, recvAt, time.Now(), 1)
		}
	}
}

// serverStratum is ntpserver's default advertised stratum.
const serverStratum = 2

// causalSlack tolerates clock-read granularity and slew between the
// two processes' reads of the shared clock.
const causalSlack = time.Millisecond

// checkCausal reports an error unless T1 ≤ T2 ≤ T3 ≤ T4 within
// causalSlack: with one shared clock, a server stamp outside the
// client's send/receive interval is time the server got wrong.
func checkCausal(t1, t2, t3, t4 ntptime.Timestamp) error {
	switch {
	case t2.Sub(t1) < -causalSlack:
		return fmt.Errorf("T2 precedes T1 by %v", -t2.Sub(t1))
	case t3.Sub(t2) < -causalSlack:
		return fmt.Errorf("T3 precedes T2 by %v", -t3.Sub(t2))
	case t4.Sub(t3) < -causalSlack:
		return fmt.Errorf("T4 precedes T3 by %v", -t4.Sub(t3))
	}
	return nil
}
