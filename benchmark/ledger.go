package main

import (
	"crypto/rand"
	"fmt"
	"runtime"
	"time"

	"mntp/internal/chaos"
	"mntp/internal/core"
	"mntp/internal/ntppkt"
	"mntp/internal/ntptime"
	"mntp/internal/nts"
	"mntp/internal/trend"
)

// stageCost is one replayed stage: mean time, allocations and bytes
// allocated per call.
type stageCost struct {
	NS, Allocs, Bytes float64
}

// ledgerReps is how many times each stage loop runs; the median loop
// is reported, so one preempted loop does not move the ledger.
const ledgerReps = 5

// measureStage runs fn n times per loop, ledgerReps loops, each loop
// one span. It returns the median loop's time per call, and the last
// loop's allocations per call (they repeat from loop to loop).
func measureStage(buf *spanBuf, name string, n int, fn func()) stageCost {
	var ms0, ms1 runtime.MemStats
	var ns []float64
	var last stageCost
	for rep := 0; rep < ledgerReps; rep++ {
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		t1 := time.Now()
		runtime.ReadMemStats(&ms1)
		buf.add(name, 0, 0, t0, t1, n)
		ns = append(ns, float64(t1.Sub(t0).Nanoseconds())/float64(n))
		last = stageCost{
			Allocs: float64(ms1.Mallocs-ms0.Mallocs) / float64(n),
			Bytes:  float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(n),
		}
	}
	last.NS = median(ns)
	return last
}

// ntsFixture is an NTS association against a key ring the benchmark
// owns: one protected request and its reply per jar shape, as wire
// images and decoded packets.
type ntsFixture struct {
	ring             *nts.KeyRing
	cookie           []byte
	c2s, s2c         []byte
	reqImg, replyImg map[int][]byte
	req, reply       map[int]*ntppkt.Packet
	sreq             map[int]*nts.ServerRequest
	state            map[int]*nts.RequestState
}

// jarShapes are the two request shapes of the serve-nts mix: jar-1
// (one cookie spent, one returned) and jar-8 (a full refill).
var jarShapes = []int{1, 8}

// session returns a client session whose every request has the given
// jar shape: capacity jar and one reused cookie, so each request
// carries jar−1 placeholders and asks for jar cookies.
func (f *ntsFixture) session(jar int) *nts.Session {
	s := &nts.Session{AEAD: nts.AEADAESSIVCMAC256, C2S: f.c2s, S2C: f.s2c, Capacity: jar, ReuseWhenDry: true}
	s.AddCookies([][]byte{f.cookie})
	return s
}

func newNTSFixture() (*ntsFixture, error) {
	ring, err := nts.NewKeyRing(3)
	if err != nil {
		return nil, err
	}
	f := &ntsFixture{
		ring: ring, c2s: make([]byte, nts.SIVKeyLen), s2c: make([]byte, nts.SIVKeyLen),
		reqImg: map[int][]byte{}, replyImg: map[int][]byte{},
		req: map[int]*ntppkt.Packet{}, reply: map[int]*ntppkt.Packet{},
		sreq: map[int]*nts.ServerRequest{}, state: map[int]*nts.RequestState{},
	}
	if _, err := rand.Read(f.c2s); err != nil {
		return nil, err
	}
	if _, err := rand.Read(f.s2c); err != nil {
		return nil, err
	}
	if f.cookie, err = ring.SealCookie(nts.AEADAESSIVCMAC256, f.c2s, f.s2c); err != nil {
		return nil, err
	}
	now := time.Now()
	for _, jar := range jarShapes {
		p := ntppkt.NewClient(ntppkt.Version4, ntptime.FromTime(now))
		st, err := f.session(jar).ProtectRequest(p)
		if err != nil {
			return nil, err
		}
		f.state[jar] = st
		f.reqImg[jar] = p.Encode(nil)
		if f.req[jar], err = ntppkt.Decode(f.reqImg[jar]); err != nil {
			return nil, err
		}
		if f.sreq[jar], err = nts.VerifyRequest(ring, f.req[jar]); err != nil {
			return nil, err
		}
		if f.sreq[jar].NumCookies != jar {
			return nil, fmt.Errorf("jar-%d request asks for %d cookies", jar, f.sreq[jar].NumCookies)
		}
		resp := replyFor(f.req[jar], now)
		if err := nts.ProtectResponse(ring, f.sreq[jar], &resp); err != nil {
			return nil, err
		}
		f.replyImg[jar] = resp.Encode(nil)
		if f.reply[jar], err = ntppkt.Decode(f.replyImg[jar]); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// replyFor builds the bare server reply header the way ntpserver does.
func replyFor(req *ntppkt.Packet, now time.Time) ntppkt.Packet {
	return ntppkt.Packet{
		Leap: ntppkt.LeapNone, Version: req.Version, Mode: ntppkt.ModeServer, Stratum: serverStratum,
		Poll: req.Poll, Precision: -20,
		RefTime: ntptime.FromTime(now.Add(-10 * time.Second)),
		Origin:  req.Transmit, Receive: ntptime.FromTime(now), Transmit: ntptime.FromTime(now),
	}
}

// serverLedger replays the serve workloads' packet mix through the
// public functions the server's request path calls, stage by stage,
// and the client's matching stages. Keys are per-layer metric names.
func serverLedger(buf *spanBuf) (map[string]float64, error) {
	f, err := newNTSFixture()
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	put := func(name string, c stageCost, withBytes bool) {
		m[name+"_ns"] = c.NS
		m[name+"_allocs"] = c.Allocs
		if withBytes {
			m[name+"_bytes"] = c.Bytes
		}
	}
	const codecN, cryptoN = 200000, 2000

	// Plain 48-byte request and reply.
	now := time.Now()
	var p ntppkt.Packet
	out := make([]byte, 0, 2048)
	img48 := ntppkt.NewClient(ntppkt.Version4, ntptime.FromTime(now)).Encode(nil)
	reply48 := replyFor(ntppkt.NewClient(ntppkt.Version4, ntptime.FromTime(now)), now)
	dec := measureStage(buf, "ntppkt.decode", codecN, func() { _ = p.DecodeInto(img48) })
	enc := measureStage(buf, "ntppkt.encode", codecN, func() { out = reply48.Encode(out[:0]) })
	put("ntppkt.decode", dec, false)
	put("ntppkt.encode", enc, false)
	m["ledger.server_plain_ns"] = dec.NS + enc.NS

	costs := map[string]stageCost{}
	for _, jar := range jarShapes {
		j := fmt.Sprintf("jar%d", jar)
		img, rimg, req := f.reqImg[jar], f.replyImg[jar], f.req[jar]
		sreq := f.sreq[jar]
		costs["decode_"+j] = measureStage(buf, "ntppkt.decode_"+j, codecN/10, func() { _ = p.DecodeInto(img) })
		costs["encode_"+j] = measureStage(buf, "ntppkt.encode_"+j, codecN/10, func() { out = f.reply[jar].Encode(out[:0]) })
		costs["verify_"+j] = measureStage(buf, "nts.verify_request_"+j, cryptoN, func() {
			if _, err := nts.VerifyRequest(f.ring, req); err != nil {
				panic(err) // the fixture verified once; only a bug changes that
			}
		})
		costs["protect_"+j] = measureStage(buf, "nts.protect_response_"+j, cryptoN/jar, func() {
			resp := replyFor(req, now)
			if err := nts.ProtectResponse(f.ring, sreq, &resp); err != nil {
				panic(err)
			}
		})
		sink := &nts.Session{AEAD: nts.AEADAESSIVCMAC256, C2S: f.c2s, S2C: f.s2c}
		var rp ntppkt.Packet
		costs["verify_reply_"+j] = measureStage(buf, "nts.verify_reply_"+j, cryptoN/jar, func() {
			if err := rp.DecodeInto(rimg); err != nil {
				panic(err)
			}
			if err := sink.VerifyReply(&rp, f.state[jar]); err != nil {
				panic(err)
			}
		})
		sess := f.session(jar)
		costs["protect_request_"+j] = measureStage(buf, "nts.protect_request_"+j, cryptoN, func() {
			q := ntppkt.Packet{Version: ntppkt.Version4, Mode: ntppkt.ModeClient, Transmit: 1}
			if _, err := sess.ProtectRequest(&q); err != nil {
				panic(err)
			}
		})
		// The whole server request path in one loop, to check that the
		// stages add up.
		costs["handle_"+j] = measureStage(buf, "ledger.server_handle_"+j, cryptoN/jar, func() {
			if err := p.DecodeInto(img); err != nil {
				panic(err)
			}
			sr, err := nts.VerifyRequest(f.ring, &p)
			if err != nil {
				panic(err)
			}
			resp := replyFor(&p, now)
			if err := nts.ProtectResponse(f.ring, sr, &resp); err != nil {
				panic(err)
			}
			out = resp.Encode(out[:0])
		})
	}
	for _, j := range []string{"jar1", "jar8"} {
		put("ntppkt.decode_"+j, costs["decode_"+j], false)
		put("ntppkt.encode_"+j, costs["encode_"+j], false)
	}
	put("nts.verify_request", costs["verify_jar1"], true)
	m["nts.verify_request_jar8_ns"] = costs["verify_jar8"].NS
	put("nts.protect_response_jar1", costs["protect_jar1"], true)
	put("nts.protect_response_jar8", costs["protect_jar8"], true)
	put("nts.protect_request", costs["protect_request_jar1"], false)
	put("nts.verify_reply", costs["verify_reply_jar1"], false)
	m["nts.verify_reply_jar8_ns"] = costs["verify_reply_jar8"].NS

	put("nts.cookie_open", measureStage(buf, "nts.cookie_open", cryptoN, func() {
		if _, _, _, err := f.ring.OpenCookie(f.cookie); err != nil {
			panic(err)
		}
	}), true)
	put("nts.cookie_seal", measureStage(buf, "nts.cookie_seal", cryptoN, func() {
		if _, err := f.ring.SealCookie(nts.AEADAESSIVCMAC256, f.c2s, f.s2c); err != nil {
			panic(err)
		}
	}), true)

	// Stage sums per request shape, and the serve-nts mix: one refill
	// (jar-8) in refillEvery requests.
	stageSum := func(j string) float64 {
		return costs["decode_"+j].NS + costs["verify_"+j].NS + costs["protect_"+j].NS + costs["encode_"+j].NS
	}
	mix := func(a, b float64) float64 { return (a*(refillEvery-1) + b) / refillEvery }
	m["ledger.server_nts_mix_ns"] = mix(stageSum("jar1"), stageSum("jar8"))
	m["ledger.server_handle_nts_mix_ns"] = mix(costs["handle_jar1"].NS, costs["handle_jar8"].NS)
	// Client stages of one exchange: encode the request, decode the
	// reply (plain); plus protect and verify under NTS.
	m["ledger.client_plain_ns"] = enc.NS + dec.NS
	m["ledger.client_nts_mix_ns"] = mix(
		costs["protect_request_jar1"].NS+costs["verify_reply_jar1"].NS+costs["encode_jar1"].NS,
		costs["protect_request_jar8"].NS+costs["verify_reply_jar8"].NS+costs["encode_jar8"].NS)
	return m, nil
}

// clientLedger replays the offset samples of chaos runs through the
// MNTP filter and the trend estimator each run used: filter cost per
// sample and the estimator's add-and-fit cost. The replay applies no
// clock corrections, so its accept decisions differ from the runs';
// the accept ratio is taken from the runs' own events.
func clientLedger(buf *spanBuf, reps []*chaos.Report) map[string]float64 {
	type sample struct{ x, y time.Duration }
	var runs [][]sample
	total, accepted := 0, 0
	for _, r := range reps {
		var s []sample
		for _, e := range r.Events {
			if e.Kind == core.EventAccepted || e.Kind == core.EventRejected {
				s = append(s, sample{e.Elapsed, e.Offset})
			}
			if e.Kind == core.EventAccepted {
				accepted++
			}
		}
		runs = append(runs, s)
		total += len(s)
	}
	m := map[string]float64{}
	if total == 0 {
		return m
	}
	var offerNS, fitNS []float64
	for rep := 0; rep < ledgerReps; rep++ {
		t0 := time.Now()
		for i, r := range reps {
			p := r.Params
			flt := core.NewFilterKind(p.Estimator, p.EstimatorWindow, p.ResidualFloor, p.MinTrendSamples)
			for _, s := range runs[i] {
				flt.Offer(s.x, s.y)
			}
		}
		t1 := time.Now()
		buf.add("core.filter_offer", 0, 0, t0, t1, total)
		for i, r := range reps {
			p := r.Params
			est := trend.NewEstimator(p.Estimator, p.EstimatorWindow, p.ResidualFloor.Seconds())
			for _, s := range runs[i] {
				est.Add(s.x.Seconds(), s.y.Seconds())
				_, _ = est.Line() // ErrInsufficient below two samples is expected
			}
		}
		t2 := time.Now()
		buf.add("trend.fit", 0, 0, t1, t2, total)
		offerNS = append(offerNS, float64(t1.Sub(t0).Nanoseconds())/float64(total))
		fitNS = append(fitNS, float64(t2.Sub(t1).Nanoseconds())/float64(total))
	}
	m["core.filter_offer_ns"] = median(offerNS)
	m["core.accept_ratio"] = float64(accepted) / float64(total)
	m["trend.fit_ns"] = median(fitNS)
	m["core.samples"] = float64(total)
	return m
}
