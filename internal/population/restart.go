// Restart-storm scenario: a fleet of NTS clients polling a real UDP
// server whose process "restarts" mid-run — graceful drain, a short
// dark gap, then a relaunch on the same ports. Run twice: with the
// keyring persisted across the restart (nts.KeyRing.Save/Load, the
// zero-downtime path) and cold (fresh ring, the pre-persistence
// baseline). The persisted pass must show zero NTS NAKs and no dark
// interval beyond the drain budget; the cold pass must reproduce the
// NAK/re-KE herd — every outstanding cookie invalidated at once, the
// whole fleet stampeding back through NTS-KE — and then recover.
//
// Unlike the engine scenarios, the harness here is real-time with
// long-lived per-client NTS sessions: the whole point is state that
// survives (or does not survive) a server restart, which the engine's
// per-poll clients cannot express.
package population

import (
	"context"
	"crypto/tls"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mntp/internal/clock"
	"mntp/internal/loadgen"
	"mntp/internal/ntpnet"
	"mntp/internal/nts"
	"mntp/internal/ntske"
)

// Restart-storm timeline. One pass: clients poll every restartPoll;
// after restartPreRun the servers drain (restartDrain budget) and the
// replacement comes up restartGap later on the same ports; the pass
// then runs restartPostRun more to observe recovery. Serving is
// counted in darkBins (100ms wall slices) for the dark-interval check.
const (
	restartPreRun  = 1 * time.Second
	restartDrain   = 500 * time.Millisecond
	restartGap     = 200 * time.Millisecond
	restartPostRun = 1500 * time.Millisecond
	restartPoll    = 100 * time.Millisecond
	restartTimeout = 150 * time.Millisecond
	// restartDarkBound is the dark-streak budget for the persisted
	// pass in 100ms bins: drain (5) + gap (2) + rebind and scheduler
	// slack. Beyond it the restart was not zero-downtime.
	restartDarkBound = 12
)

// restartOutcome is one pass's raw counters.
type restartOutcome struct {
	sent, served, fails uint64
	naks, reKEs         uint64
	servedAfter         uint64
	darkStreak          int
}

// restartHarness drives n long-lived NTS clients against the pinned
// server addresses. Each client is one closed-loop loadgen socket
// plus its NTS session; the harness keeps only the restart policy —
// re-running NTS-KE on a NAK — and the count of what was served after
// the restart.
type restartHarness struct {
	keAddr string
	keTLS  *tls.Config
	stop   chan struct{}
	wg     sync.WaitGroup
	dark   *darkBins

	classes     [loadgen.ReplyLost + 1]atomic.Uint64 // polls per class; ReplyLost is the last
	reKEs       atomic.Uint64
	servedAfter atomic.Uint64
	restarted   atomic.Bool
}

func (h *restartHarness) worker(conn *loadgen.Conn, sess *nts.Session, stagger time.Duration) {
	defer h.wg.Done()
	defer conn.Close()
	timer := time.NewTimer(stagger)
	defer timer.Stop()
	for {
		select {
		case <-h.stop:
			return
		case <-timer.C:
		}
		sent := time.Now()
		class, _ := conn.Exchange(sess)
		h.dark.record(sent, time.Now(), class)
		h.classes[class].Add(1)
		switch class {
		case loadgen.ReplyServed:
			if h.restarted.Load() {
				h.servedAfter.Add(1)
			}
		case loadgen.ReplyKoDNTS:
			// Re-run key exchange (the client contract of RFC 8915
			// §5.7); on failure keep the old session — ReuseWhenDry
			// resends the last cookie, drawing another NAK next poll,
			// and the re-KE is retried then.
			if fresh, kerr := ntske.KeyExchange(h.keAddr, h.keTLS, 2*time.Second); kerr == nil {
				fresh.ReuseWhenDry = true
				h.reKEs.Add(1)
				sess = fresh
			}
		}
		timer.Reset(restartPoll)
	}
}

// startRestartServers brings up the UDP serving path and the NTS-KE
// listener sharing one key ring. Pinned (non-:0) addresses are
// retried briefly: the replacement races the dying process's socket
// teardown exactly as a process manager's restart does.
func startRestartServers(ring *nts.KeyRing, udpAddr, keAddr string, cert tls.Certificate) (*ntpnet.Server, *ntske.Server, string, string, error) {
	deadline := time.Now().Add(2 * time.Second)
	var (
		srv     *ntpnet.Server
		boundNT string
	)
	for {
		srv = ntpnet.NewServer(clock.System{}, 2)
		srv.Workers = 2
		srv.NTS = ring
		a, err := srv.Listen(udpAddr)
		if err == nil {
			boundNT = a.String()
			break
		}
		if time.Now().After(deadline) {
			return nil, nil, "", "", fmt.Errorf("population: rebinding NTP %s: %w", udpAddr, err)
		}
		time.Sleep(25 * time.Millisecond)
	}
	var (
		ke      *ntske.Server
		boundKE string
	)
	for {
		ke = &ntske.Server{
			Ring:      ring,
			TLSConfig: &tls.Config{Certificates: []tls.Certificate{cert}},
		}
		a, err := ke.Listen(keAddr)
		if err == nil {
			boundKE = a.String()
			break
		}
		if time.Now().After(deadline) {
			srv.Close()
			return nil, nil, "", "", fmt.Errorf("population: rebinding KE %s: %w", keAddr, err)
		}
		time.Sleep(25 * time.Millisecond)
	}
	return srv, ke, boundNT, boundKE, nil
}

// restartPass runs one full storm: serve, drain, gap, relaunch on the
// same ports (restored ring when persisted, fresh when cold), recover.
func restartPass(n int, persisted bool) (*restartOutcome, error) {
	dir, err := os.MkdirTemp("", "mntp-restart-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	statePath := filepath.Join(dir, "ring.state")
	stateKey, err := nts.LoadOrCreateMasterKey(filepath.Join(dir, "ring.key"))
	if err != nil {
		return nil, err
	}
	cert, _, err := ntske.SelfSigned(time.Now(), "127.0.0.1")
	if err != nil {
		return nil, err
	}
	ringA, err := nts.NewKeyRing(3)
	if err != nil {
		return nil, err
	}
	srvA, keA, udpAddr, keAddr, err := startRestartServers(ringA, "127.0.0.1:0", "127.0.0.1:0", cert)
	if err != nil {
		return nil, err
	}
	defer srvA.Close() // no-ops once drained
	defer keA.Close()

	h := &restartHarness{
		keAddr: keAddr,
		keTLS:  &tls.Config{InsecureSkipVerify: true},
		stop:   make(chan struct{}),
		dark:   newDarkBins(time.Now()),
	}
	stopClients := sync.OnceFunc(func() {
		close(h.stop)
		h.wg.Wait()
	})
	defer stopClients()
	for i := 0; i < n; i++ {
		sess, kerr := ntske.KeyExchange(keAddr, h.keTLS, 5*time.Second)
		if kerr != nil {
			return nil, fmt.Errorf("population: establishing session %d: %w", i, kerr)
		}
		sess.ReuseWhenDry = true
		conn, err := loadgen.Dial(udpAddr, restartTimeout)
		if err != nil {
			return nil, fmt.Errorf("population: dialing client %d: %w", i, err)
		}
		h.wg.Add(1)
		// De-phase polls across one poll period so the fleet's load is
		// flat rather than a synthetic herd of its own.
		go h.worker(conn, sess, time.Duration(i)*restartPoll/time.Duration(n))
	}

	time.Sleep(restartPreRun)

	// The restart: checkpoint (persisted path only), drain both
	// listeners under one deadline, go dark for the gap, relaunch on
	// the same ports.
	if persisted {
		if err := ringA.Save(statePath, stateKey); err != nil {
			return nil, err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), restartDrain)
	_ = keA.Shutdown(ctx)
	_ = srvA.Shutdown(ctx)
	cancel()
	time.Sleep(restartGap)

	var ringB *nts.KeyRing
	if persisted {
		ringB, err = nts.LoadKeyRing(statePath, stateKey)
	} else {
		ringB, err = nts.NewKeyRing(3)
	}
	if err != nil {
		return nil, err
	}
	srvB, keB, _, _, err := startRestartServers(ringB, udpAddr, keAddr, cert)
	if err != nil {
		return nil, err
	}
	defer srvB.Close()
	defer keB.Close()
	h.restarted.Store(true)
	time.Sleep(restartPostRun)
	stopClients()

	var sent uint64
	for i := range h.classes {
		sent += h.classes[i].Load()
	}
	served, naks := h.classes[loadgen.ReplyServed].Load(), h.classes[loadgen.ReplyKoDNTS].Load()
	return &restartOutcome{
		sent:        sent,
		served:      served,
		fails:       sent - served - naks,
		naks:        naks,
		reKEs:       h.reKEs.Load(),
		servedAfter: h.servedAfter.Load(),
		darkStreak:  h.dark.darkStreak(),
	}, nil
}

// RestartStorm runs the restart twice — persisted keyring, then cold —
// and asserts both contracts: persistence makes the restart invisible
// to the NTS fleet (zero NAKs, zero re-KEs, dark interval within the
// drain budget), while the cold baseline reproduces the re-KE herd
// the persistence work exists to prevent, and still recovers.
func RestartStorm(n int, seed int64) (*Report, error) {
	warm, err := restartPass(n, true)
	if err != nil {
		return nil, fmt.Errorf("population: persisted pass: %w", err)
	}
	cold, err := restartPass(n, false)
	if err != nil {
		return nil, fmt.Errorf("population: cold pass: %w", err)
	}

	r := &Report{Scenario: ScenarioRestart, N: n, Seed: seed, Mode: "udp"}
	r.Sent, r.Served, r.Fails = warm.sent, warm.served, warm.fails
	r.DarkStreakReal = warm.darkStreak
	r.NTSNaks, r.ReKEs = warm.naks, warm.reKEs
	r.ColdNTSNaks, r.ColdReKEs = cold.naks, cold.reKEs
	r.ColdDarkStreakReal = cold.darkStreak
	r.VirtualSeconds = (restartPreRun + restartDrain + restartGap + restartPostRun).Seconds()

	if warm.served == 0 {
		r.Violate("persisted pass served nothing (harness broken)")
	}
	if warm.naks > 0 {
		r.Violate("persisted restart drew %d NTS NAKs (want 0: the restored ring must open every outstanding cookie)", warm.naks)
	}
	if warm.reKEs > 0 {
		r.Violate("persisted restart forced %d re-KEs (want 0)", warm.reKEs)
	}
	if warm.darkStreak > restartDarkBound {
		r.Violate("persisted restart dark interval %d×%v bins > %d (drain %v + gap %v budget)",
			warm.darkStreak, darkBinWidth, restartDarkBound, restartDrain, restartGap)
	}
	if warm.servedAfter == 0 {
		r.Violate("no requests served after the persisted restart")
	}
	if cold.naks < uint64(n)/2 {
		r.Violate("cold restart drew only %d NAKs for %d clients (< n/2): the herd never formed (harness broken)", cold.naks, n)
	}
	if cold.reKEs < uint64(n)/2 {
		r.Violate("cold restart forced only %d re-KEs for %d clients (< n/2): clients did not re-run KE", cold.reKEs, n)
	}
	if cold.servedAfter == 0 {
		r.Violate("service never resumed after the cold restart's re-KE herd")
	}

	r.Pass = len(r.Violations) == 0
	if r.Violations == nil {
		r.Violations = []string{}
	}
	return r, nil
}
