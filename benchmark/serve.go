package main

import (
	"crypto/tls"
	"fmt"
	"runtime"
	"time"

	"mntp/internal/nts"
	"mntp/internal/ntske"
)

// serveConfig is one serving workload: a light phase at a fixed rate
// and an overload phase at a fixed rate above the seed server's
// capacity, against one cmd/ntpserver process.
type serveConfig struct {
	nts          bool
	lightRate    float64
	overloadRate float64
}

// The overload rates are the lowest rates at which the seed server
// lost more than 5% of requests while the driver kept its schedule
// (README.md, "Overload rates", has the calibration).
var serveWorkloads = map[string]serveConfig{
	"serve-plain": {nts: false, lightRate: 5000, overloadRate: 90000},
	"serve-nts":   {nts: true, lightRate: 1000, overloadRate: 22000},
}

// setupRepeats is how many times a serve run brings a server up; the
// set-up time is their median and the last server is measured.
const setupRepeats = 5

// serveRun is everything a serve workload measured.
type serveRun struct {
	setup      []float64 // s, per server start
	handshakes []float64 // ms, NTS-KE handshakes of the measured server
	light, ovl *phaseResult
	pid        int

	lightCPU, ovlCPU time.Duration // server process
	lightCtx         uint64
	lightGC          int64
	peakRSS          uint64
	lightSteal       uint64
	final            serverStats
	probesSent       int
}

// bringUp starts one server, waits for its first valid answer and,
// under NTS, runs one NTS-KE handshake per socket. It returns the
// sessions and the handshake times in ms.
func bringUp(bin string, cfg serveConfig, sockets int, gctrace bool) (*serverProc, []*nts.Session, []float64, int, error) {
	srv, err := startServer(bin, cfg.nts, gctrace)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	probes, err := firstAnswer(srv.addr, 10*time.Second)
	if err != nil {
		srv.kill()
		return nil, nil, nil, 0, err
	}
	if !cfg.nts {
		return srv, nil, nil, probes, nil
	}
	var sessions []*nts.Session
	var hs []float64
	// The server's certificate is self-signed and generated at start;
	// the benchmark checks the NTP path, not the PKI.
	tlsCfg := &tls.Config{InsecureSkipVerify: true}
	for i := 0; i < sockets; i++ {
		t0 := time.Now()
		s, err := ntske.KeyExchange(srv.keAddr, tlsCfg, 5*time.Second)
		if err != nil {
			srv.kill()
			return nil, nil, nil, 0, fmt.Errorf("NTS-KE: %w", err)
		}
		hs = append(hs, float64(time.Since(t0).Nanoseconds())/1e6)
		if s.NTPServer != srv.addr.String() {
			srv.kill()
			return nil, nil, nil, 0, fmt.Errorf("NTS-KE negotiated NTP server %s, want %s", s.NTPServer, srv.addr)
		}
		sessions = append(sessions, s)
	}
	return srv, sessions, hs, probes, nil
}

// runServe runs one serve workload for about `seconds`: two thirds
// light phase, one third overload phase.
func runServe(bin string, cfg serveConfig, seed int64, seconds float64, tr *tracer) (*serveRun, error) {
	sockets := min(2, runtime.NumCPU())
	run := &serveRun{}

	var srv *serverProc
	var sessions []*nts.Session
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		s, sess, hs, probes, err := bringUp(bin, cfg, sockets, tr != nil)
		if err != nil {
			return nil, err
		}
		run.setup = append(run.setup, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			// ntpserver installs its SIGTERM handler only after the
			// listen line, so a set-up-only server is killed instead.
			s.kill()
			continue
		}
		srv, sessions, run.handshakes, run.probesSent = s, sess, hs, probes
	}
	run.pid = srv.pid()
	fail := func(err error) (*serveRun, error) {
		srv.kill()
		return nil, err
	}

	d, err := newDriver(srv.addr, sockets, sessions, seed, tr)
	if err != nil {
		return fail(err)
	}
	defer d.close()

	lightDur := time.Duration(seconds * 2 / 3 * float64(time.Second))
	ovlDur := time.Duration(seconds / 3 * float64(time.Second))

	steal0 := stealTicks()
	cpu0, err := procCPU(run.pid)
	if err != nil {
		return fail(err)
	}
	ctx0, err := procCtxSwitches(run.pid)
	if err != nil {
		return fail(err)
	}
	gc0 := srv.gcLines.Load()
	run.light, err = d.run(phaseSpec{rate: cfg.lightRate, dur: lightDur, spanEvery: 1})
	if err != nil {
		return fail(err)
	}
	cpu1, err := procCPU(run.pid)
	if err != nil {
		return fail(err)
	}
	ctx1, err := procCtxSwitches(run.pid)
	if err != nil {
		return fail(err)
	}
	run.lightGC = srv.gcLines.Load() - gc0
	run.lightCPU, run.lightCtx = cpu1-cpu0, ctx1-ctx0
	run.lightSteal = stealTicks() - steal0

	run.ovl, err = d.run(phaseSpec{rate: cfg.overloadRate, dur: ovlDur, spanEvery: 16})
	if err != nil {
		return fail(err)
	}
	cpu2, err := procCPU(run.pid)
	if err != nil {
		return fail(err)
	}
	run.ovlCPU = cpu2 - cpu1
	if run.peakRSS, err = procPeakRSS(run.pid); err != nil {
		return fail(err)
	}
	line, err := srv.stop()
	if err != nil {
		return nil, err
	}
	run.final = parseStats(line)
	return run, nil
}

// reconcile checks the server's final counters against what the driver
// put on and took off the wire: the server answered at least every
// valid reply the driver received and at most every request it sent,
// and refused nothing.
func (r *serveRun) reconcile(ntsOn bool) []string {
	var bad []string
	st := r.final
	for _, k := range []string{"limited", "shed", "shed-dropped", "dropped", "malformed", "write-errors", "panics", "nts-naks"} {
		if st[k] != 0 {
			bad = append(bad, fmt.Sprintf("server counter %s=%d, want 0", k, st[k]))
		}
	}
	sent := uint64(r.probesSent + r.light.sent + r.ovl.sent)
	got := uint64(1 + r.light.ok + r.ovl.ok)
	if st["served"] < got || st["served"] > sent {
		bad = append(bad, fmt.Sprintf("server served=%d outside the wire's [%d valid replies, %d requests]", st["served"], got, sent))
	}
	if ntsOn {
		ntsSent := uint64(r.light.ntsSent + r.ovl.ntsSent)
		ntsGot := uint64(r.light.ok + r.ovl.ok)
		if st["nts-served"] < ntsGot || st["nts-served"] > ntsSent {
			bad = append(bad, fmt.Sprintf("server nts-served=%d outside the wire's [%d, %d]", st["nts-served"], ntsGot, ntsSent))
		}
	}
	return bad
}
