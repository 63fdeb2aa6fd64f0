package ntpnet

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mntp/internal/clock"
	"mntp/internal/ntppkt"
	"mntp/internal/ntptime"
	"mntp/internal/nts"
	"mntp/internal/overload"
)

// Server is a UDP NTP server. It answers client (mode 3) requests with
// timestamps from its clock; malformed packets are dropped. An
// optional per-client rate limit answers abusive clients with a
// RATE kiss-of-death packet, as pool servers do.
//
// The listen path is sharded: Shards sockets are bound to the same
// address with SO_REUSEPORT, so the kernel spreads inbound datagrams
// across independent receive queues and the shards never contend on
// one socket lock. Each shard runs its own pool of Workers goroutines
// and counts into its own shard-local Metrics; Snapshot() merges them
// into the aggregate view. On platforms without SO_REUSEPORT (or when
// the kernel refuses it) every shard serves one shared socket — the
// worker pools and per-shard counters remain, only the kernel-level
// queue spread is lost — unless RequireShards insists on the full
// group. The rate-limit table is shared across shards (a client's
// budget is global, whichever queue its packets hash to) and bounded
// (MaxClients) with window-stamped eviction plus periodic idle-entry
// sweeping.
//
// The server self-heals: every worker runs under a panic recovery
// that counts the fault and respawns the worker, and a watchdog
// restarts the worker pool of any shard holding work in flight
// without completing it while its siblings make progress. With
// Overload set, an admission controller sheds load before queueing
// delay can poison the served timestamps (see package overload).
type Server struct {
	Clock   clock.Clock
	Stratum uint8
	RefID   [4]byte
	// RateLimit, if positive, is the maximum requests per client
	// address per RateWindow before RATE KoD responses are sent.
	RateLimit  int
	RateWindow time.Duration
	// MaxClients bounds the rate-limit table (default
	// DefaultMaxClients). When full, expired buckets are evicted
	// first, then the oldest window.
	MaxClients int
	// Workers is the number of serve goroutines per shard (default
	// GOMAXPROCS/Shards, at least 1).
	Workers int
	// Shards is the number of listening sockets bound to the address
	// via SO_REUSEPORT (default 1). All fields must be set before
	// Listen.
	Shards int
	// RequireShards makes Listen fail when the full Shards-socket
	// SO_REUSEPORT group cannot be bound — closing any sockets that
	// did bind — instead of silently serving from fewer sockets than
	// requested.
	RequireShards bool
	// Overload, if non-nil, enables admission control (package
	// overload): in Degraded the server sheds new/unseen flows with
	// RATE kiss-of-death replies (flows already holding rate-limit
	// state keep their budget; with rate limiting off every flow
	// counts as new), in Overloaded it drops datagrams before parsing,
	// admitting 1-in-N probes. On Linux the sojourn signal uses kernel
	// receive timestamps, so it includes socket-queue wait.
	Overload *overload.Config
	// WatchdogInterval is the housekeeping period: the watchdog scans
	// for wedged shards, sweeps expired rate-limit entries and feeds
	// slow signals to the overload controller. 0 selects the default
	// (1s); negative disables housekeeping entirely.
	WatchdogInterval time.Duration
	// NTS, if non-nil, enables RFC 8915 authenticated serving:
	// requests carrying NTS extension fields are verified against
	// this key ring (shared with the NTS-KE server that minted the
	// cookies). Verified requests get protected replies with cookie
	// re-supply; failed verification gets an NTS NAK. Authenticated
	// requests bypass the Degraded shed ramp — they are exactly the
	// traffic the shed exists to protect, since a spoofed source
	// cannot produce a valid authenticator — but still pay the
	// per-client rate limit, and the Overloaded pre-parse drop
	// (which by design runs before anything is decoded) applies to
	// them like everyone else. Sampled AEAD cost is fed to the
	// overload controller so crypto work counts against the sojourn
	// target.
	NTS *nts.KeyRing
	// FaultHook, if non-nil, is called with the shard index for every
	// admitted datagram, before parsing. It exists for server-side
	// fault injection (ServerFaults): a hook that panics exercises
	// worker respawn, one that blocks exercises the watchdog. A
	// blocked hook must be released before Close, which waits for
	// every worker.
	FaultHook func(shard int)

	conns           []*net.UDPConn
	shards          []*shard
	workersPerShard int
	ctrl            *overload.Controller
	// stratum and limiter are the live-reloadable serving parameters:
	// the hot path reads them atomically so Reload can swap them under
	// full load without a lock or a socket drop.
	stratum  atomic.Uint32
	limiter  atomic.Pointer[rateLimiter]
	restarts atomic.Uint64
	stopHk   chan struct{}
	hkWG     sync.WaitGroup
	wg       sync.WaitGroup

	mu     sync.Mutex // guards closed vs. worker spawning
	closed bool
}

// shard is one slice of the serving fast path: a socket (exclusive
// under SO_REUSEPORT, shared in the fallback) and the metrics its
// workers count into. Shard-local counters keep the hot path free of
// cross-shard cache-line bouncing; readers merge them on demand.
type shard struct {
	idx  int
	conn *net.UDPConn
	// rxts: kernel receive timestamps enabled on conn (overload only).
	rxts bool
	// epoch versions the worker pool: the watchdog bumps it to tell
	// stuck workers (wherever they unblock) that a fresh complement
	// has replaced them and they should exit.
	epoch atomic.Uint64
	// inFlight counts datagrams currently mid-handling; completed
	// counts handled ones. Together they are the watchdog's progress
	// signal: in-flight work held across a whole interval with no
	// completions means the pool is wedged, not idle.
	inFlight  atomic.Int64
	completed atomic.Uint64
	sample    atomic.Uint64
	metrics   Metrics
}

// NewServer creates a server with the given clock and stratum.
func NewServer(clk clock.Clock, stratum uint8) *Server {
	return &Server{Clock: clk, Stratum: stratum, RefID: [4]byte{'L', 'O', 'C', 'L'}}
}

// ReusePortAvailable reports whether this platform supports the
// SO_REUSEPORT sharded listen path. When false, a Shards > 1 server
// still runs — every shard serves one shared socket — so callers
// (and benchmarks demonstrating shard scaling) can skip gracefully.
func ReusePortAvailable() bool { return reusePortAvailable }

// Listen binds the server to addr (e.g. "127.0.0.1:0") and starts the
// serve pools. It returns the bound address.
func (s *Server) Listen(addr string) (*net.UDPAddr, error) {
	nshards := s.Shards
	if nshards <= 0 {
		nshards = 1
	}
	conns, err := listenShards(addr, nshards, s.RequireShards)
	if err != nil {
		return nil, err
	}
	s.conns = conns
	s.stratum.Store(uint32(s.Stratum))
	if s.RateLimit > 0 {
		s.limiter.Store(newRateLimiter(s.RateLimit, s.RateWindow, s.MaxClients))
	}
	if s.Overload != nil {
		s.ctrl = overload.New(*s.Overload)
	}
	workers := s.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0) / nshards
		if workers < 1 {
			workers = 1
		}
	}
	s.workersPerShard = workers
	s.shards = make([]*shard, nshards)
	for i := range s.shards {
		sh := &shard{idx: i, conn: conns[i%len(conns)]}
		if s.ctrl != nil {
			sh.rxts = enableRxTimestamps(sh.conn) == nil
		}
		s.shards[i] = sh
		for w := 0; w < workers; w++ {
			s.spawnWorker(sh, 0)
		}
	}
	wd := s.WatchdogInterval
	if wd == 0 {
		wd = time.Second
	}
	if wd > 0 {
		s.stopHk = make(chan struct{})
		s.hkWG.Add(1)
		go s.housekeep(wd)
	}
	return conns[0].LocalAddr().(*net.UDPAddr), nil
}

// listenShards binds n sockets to addr with SO_REUSEPORT. When the
// full group cannot be bound (n == 1, the platform lacks the option,
// or the kernel refuses it) the non-strict path falls back to a
// single plain socket shared by every shard; the strict path closes
// whatever partially bound and fails instead. With a wildcard port
// the first bind picks it and the rest join that port.
func listenShards(addr string, n int, strict bool) ([]*net.UDPConn, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("ntpnet: resolve %q: %w", addr, err)
	}
	if n > 1 {
		if reusePortAvailable {
			conns, err := listenReusePort(ua, n)
			if err == nil {
				return conns, nil
			}
			if strict {
				return nil, fmt.Errorf("ntpnet: bind %d-shard REUSEPORT group on %q: %w", n, addr, err)
			}
		} else if strict {
			return nil, fmt.Errorf("ntpnet: %d shards requested but SO_REUSEPORT is unavailable on this platform", n)
		}
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("ntpnet: listen %q: %w", addr, err)
	}
	return []*net.UDPConn{conn}, nil
}

func listenReusePort(ua *net.UDPAddr, n int) ([]*net.UDPConn, error) {
	lc := net.ListenConfig{Control: reusePortControl}
	conns := make([]*net.UDPConn, 0, n)
	laddr := ua.String()
	for i := 0; i < n; i++ {
		pc, err := lc.ListenPacket(context.Background(), "udp", laddr)
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			return nil, err
		}
		uc := pc.(*net.UDPConn)
		conns = append(conns, uc)
		if i == 0 {
			laddr = uc.LocalAddr().String() // pin the kernel-chosen port
		}
	}
	return conns, nil
}

// Shutdown gracefully drains the server: it stops admitting new
// datagrams, lets every in-flight handler finish and write its reply,
// waits for the housekeeping/watchdog loop, and only then closes the
// sockets — a restart under live load answers everything it had
// already accepted instead of abandoning requests mid-quantum.
//
// The mechanism: every socket gets an already-expired read deadline,
// so a worker blocked in a read wakes with a timeout and exits without
// admitting anything, while a worker mid-handle finishes the request,
// writes the reply, and exits on its next read (the deadline is
// sticky). Datagrams still queued in the kernel are never admitted.
//
// If ctx expires before the drain completes, Shutdown degrades to
// Close's behavior — the sockets are closed under whatever is still in
// flight — and returns ctx.Err(). Calling Shutdown on a closed server
// returns nil; Close after Shutdown is a no-op.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true // stops worker respawns; makes Close a no-op
	s.mu.Unlock()
	now := time.Now()
	for _, c := range s.conns {
		_ = c.SetReadDeadline(now)
	}
	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	var drainErr error
	select {
	case <-drained:
	case <-ctx.Done():
		drainErr = ctx.Err()
	}
	if s.stopHk != nil {
		close(s.stopHk)
	}
	var first error
	for _, c := range s.conns {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.hkWG.Wait()
	if drainErr != nil {
		return drainErr
	}
	return first
}

// ReloadConfig is a live configuration change applied by Reload: the
// parameters an operator may turn on a running server without a
// restart. Zero-valued fields keep the current setting.
type ReloadConfig struct {
	// Stratum, if in 1..15, replaces the advertised stratum.
	Stratum uint8
	// RateLimit: nil keeps the current setting. A pointer to a
	// non-positive value turns rate limiting off; a positive value
	// updates the limit in place — established clients keep their
	// window state and budgets — or installs a fresh table when rate
	// limiting was off.
	RateLimit *int
	// RateWindow and MaxClients refine a RateLimit change; zero keeps
	// the table's current window/bound.
	RateWindow time.Duration
	MaxClients int
	// Overload, if non-nil, reconfigures the admission controller in
	// place — health state, sojourn EWMA and transition counters are
	// preserved (see overload.Controller.Reconfigure). Ignored when
	// the server was started without overload control.
	Overload *overload.Config
}

// Reload applies a live configuration change while the server keeps
// serving: no socket is dropped, no worker stops, and in-flight
// requests are answered under whichever parameters they loaded. This
// is the SIGHUP path — cmd/ntpserver re-reads its config file and
// calls Reload, then Recycle.
func (s *Server) Reload(r ReloadConfig) {
	if r.Stratum >= 1 && r.Stratum <= 15 {
		s.stratum.Store(uint32(r.Stratum))
	}
	if r.RateLimit != nil {
		switch lim := s.limiter.Load(); {
		case *r.RateLimit <= 0:
			s.limiter.Store(nil)
		case lim != nil:
			lim.reconfigure(*r.RateLimit, r.RateWindow, r.MaxClients)
		default:
			w, mc := r.RateWindow, r.MaxClients
			if w <= 0 {
				w = s.RateWindow
			}
			if mc <= 0 {
				mc = s.MaxClients
			}
			s.limiter.Store(newRateLimiter(*r.RateLimit, w, mc))
		}
	}
	if r.Overload != nil && s.ctrl != nil {
		s.ctrl.Reconfigure(*r.Overload)
	}
}

// Recycle rotates every shard's worker pool, one shard at a time,
// reusing the watchdog's epoch-bump machinery: each shard's old
// complement is told to exit (wherever its workers next unblock) while
// a fresh complement starts against the same socket, so the sockets —
// and the SO_REUSEPORT group — never drop and the other shards keep
// serving throughout. The admission controller is paused for the
// duration so the recycle's transient churn is not mistaken for
// overload. Pool rotations are counted in Snapshot().Restarts, same
// as watchdog-initiated ones.
func (s *Server) Recycle() {
	if s.ctrl != nil {
		s.ctrl.Pause()
		defer s.ctrl.Resume()
	}
	for _, sh := range s.shards {
		s.restartShard(sh)
	}
}

// Close stops the server and waits for every serve goroutine to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	if s.stopHk != nil {
		close(s.stopHk)
	}
	var first error
	for _, c := range s.conns {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.hkWG.Wait()
	s.wg.Wait()
	return first
}

// Snapshot merges the shard-local metrics into the aggregate view.
// Counters are read atomically per shard; the merge is not one atomic
// transaction, which is fine for monitoring.
func (s *Server) Snapshot() Snapshot {
	var out Snapshot
	for _, sh := range s.shards {
		out.Merge(sh.metrics.Snapshot())
	}
	out.Restarts = s.restarts.Load()
	if s.ctrl != nil {
		out.Health = s.ctrl.State()
	}
	return out
}

// ShardSnapshots returns one Snapshot per shard, for observing how
// the kernel spreads load across the REUSEPORT group.
func (s *Server) ShardSnapshots() []Snapshot {
	out := make([]Snapshot, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.metrics.Snapshot()
	}
	return out
}

// NumShards returns the number of serving shards (0 before Listen).
func (s *Server) NumShards() int { return len(s.shards) }

// Health returns the admission controller's state (Healthy when
// overload control is off).
func (s *Server) Health() overload.State {
	if s.ctrl == nil {
		return overload.Healthy
	}
	return s.ctrl.State()
}

// OverloadStats returns the admission controller's snapshot (state,
// effective sojourn, crypto-cost EWMA); the zero Stats when overload
// control is off.
func (s *Server) OverloadStats() overload.Stats {
	if s.ctrl == nil {
		return overload.Stats{}
	}
	return s.ctrl.Stats()
}

// Served returns the number of requests answered across all shards.
func (s *Server) Served() int {
	n := uint64(0)
	for _, sh := range s.shards {
		n += sh.metrics.Served.Load()
	}
	return int(n)
}

// RateLimited returns the number of requests answered with RATE KoD.
func (s *Server) RateLimited() int {
	n := uint64(0)
	for _, sh := range s.shards {
		n += sh.metrics.Limited.Load()
	}
	return int(n)
}

// RateTableSize returns the current rate-limit table population
// (0 when rate limiting is off).
func (s *Server) RateTableSize() int {
	lim := s.limiter.Load()
	if lim == nil {
		return 0
	}
	return lim.size()
}

// spawnWorker starts one serve goroutine for sh's epoch-th pool,
// unless the server has been closed (the check and the WaitGroup add
// share the mutex Close takes, so a respawn can never race past
// Close's final Wait).
func (s *Server) spawnWorker(sh *shard, epoch uint64) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.wg.Add(1)
	s.mu.Unlock()
	go s.serve(sh, epoch)
}

// serve is one worker of a shard's pool. Each worker owns its
// buffers; *net.UDPConn reads and writes are safe for concurrent use.
// A panic anywhere in handling is contained here: the fault is
// counted and the worker respawned, so one poisoned packet (or bug)
// costs a single request, never the server.
func (s *Server) serve(sh *shard, epoch uint64) {
	defer func() {
		if r := recover(); r != nil {
			sh.metrics.Panics.Add(1)
			// Respawn unless the watchdog has since rotated the pool —
			// the new epoch already runs a full complement.
			if sh.epoch.Load() == epoch {
				s.spawnWorker(sh, epoch)
			}
		}
		s.wg.Done()
	}()
	// 2048 covers the largest NTS request/reply (~1KB with a full
	// placeholder load) with headroom; plain 48-byte traffic is
	// unaffected by the larger read buffer.
	buf := make([]byte, 2048)
	out := make([]byte, 0, ntppkt.HeaderLen)
	var oob []byte
	if sh.rxts {
		oob = make([]byte, oobSpace)
	}
	var req ntppkt.Packet
	for sh.epoch.Load() == epoch {
		var (
			n       int
			peer    *net.UDPAddr
			err     error
			ingress time.Time
		)
		if sh.rxts {
			var oobn int
			n, oobn, _, peer, err = sh.conn.ReadMsgUDP(buf, oob)
			if err == nil {
				ingress, _ = rxTimestamp(oob[:oobn])
			}
		} else {
			n, peer, err = sh.conn.ReadFromUDP(buf)
		}
		if err != nil {
			return // closed
		}
		out = s.handle(sh, buf[:n], peer, ingress, &req, out)
	}
}

// sojournSampleMask: 1 in 8 handled datagrams feed the sojourn EWMA;
// the other seven pay one atomic add.
const sojournSampleMask = 7

// observeSojourn feeds a sampled ingress-to-now sojourn into the
// overload controller. crypto is the AEAD time this request spent; it
// is subtracted from the queue signal and fed to the controller's
// crypto EWMA instead, so the two components of the effective sojourn
// never double-count. Plain requests pass zero, which decays the
// crypto estimate as authenticated load recedes.
func (s *Server) observeSojourn(sh *shard, ingress time.Time, crypto time.Duration) {
	if sh.sample.Add(1)&sojournSampleMask != 0 {
		return
	}
	now := time.Now()
	s.ctrl.Observe(now.Sub(ingress)-crypto, now)
	if s.NTS != nil {
		s.ctrl.ObserveCrypto(crypto, now)
	}
}

// handle processes one datagram. The in-flight/completed bookkeeping
// brackets everything — including an injected panic, whose unwind
// still runs the deferred decrement before serve's recovery respawns
// the worker.
func (s *Server) handle(sh *shard, pkt []byte, peer *net.UDPAddr, ingress time.Time, req *ntppkt.Packet, out []byte) []byte {
	sh.inFlight.Add(1)
	defer func() {
		sh.inFlight.Add(-1)
		sh.completed.Add(1)
	}()
	if ingress.IsZero() {
		// No kernel stamp: ingress degrades to read time, measuring
		// handling latency but not socket-queue wait.
		ingress = time.Now()
	}
	ctrl := s.ctrl
	probe := false
	if ctrl != nil && ctrl.State() == overload.Overloaded {
		// Early drop before parsing: once the queue has collapsed the
		// reply would carry a stale timestamp — worse for the client
		// than silence — and dropping is the fastest way to drain the
		// backlog. 1-in-N probes are admitted so sojourn samples keep
		// flowing and recovery stays possible.
		if probe = ctrl.ProbeAdmit(); !probe {
			sh.metrics.ShedDropped.Add(1)
			s.observeSojourn(sh, ingress, 0)
			return out
		}
	}
	if s.FaultHook != nil {
		s.FaultHook(sh.idx)
	}
	recv := s.Clock.Now()
	if err := req.DecodeInto(pkt); err != nil {
		sh.metrics.Malformed.Add(1)
		return out
	}
	if req.Mode != ntppkt.ModeClient {
		sh.metrics.Dropped.Add(1)
		return out
	}
	version := req.Version
	if version < ntppkt.Version3 || version > ntppkt.Version4 {
		version = ntppkt.Version4
	}
	// NTS verification runs before admission decisions: a valid
	// authenticator is the one signal a spoofed source cannot forge,
	// so it both earns the bypass below and must be checked before
	// granting it. The AEAD time is kept apart from the queue signal
	// and fed to the controller's crypto EWMA.
	var ntsReq *nts.ServerRequest
	var cryptoDur time.Duration
	if s.NTS != nil && nts.IsNTSRequest(req) {
		cryptoStart := time.Now()
		var err error
		ntsReq, err = nts.VerifyRequest(s.NTS, req)
		cryptoDur = time.Since(cryptoStart)
		if err != nil {
			out = s.writeNTSNak(sh, version, req, peer, out)
			if ctrl != nil {
				s.observeSojourn(sh, ingress, cryptoDur)
			}
			return out
		}
	}
	limiter := s.limiter.Load()
	if ctrl != nil && !probe && ntsReq == nil && ctrl.State() == overload.Degraded {
		// Shed new/unseen flows first: clients already holding
		// rate-limit state keep their budget, so the population being
		// answered well stays stable while fresh arrivals are told
		// RATE — loudly, not by silent drop. Flows that win the coin
		// toss proceed, enter the table below, and become established.
		established := limiter != nil && limiter.known(keyFromIP(peer.IP), recv)
		if !established && rand.Float64() < ctrl.ShedProb() {
			out = s.writeRate(sh, version, req, peer, out, &sh.metrics.Shed)
			s.observeSojourn(sh, ingress, 0)
			return out
		}
	}
	// The limiter runs on the server's clock, like every protocol
	// timestamp: under a simulated or offset clock the windows
	// must follow the clock that stamps the packets, not the
	// wall.
	if limiter != nil && limiter.over(keyFromIP(peer.IP), recv) {
		return s.writeRate(sh, version, req, peer, out, &sh.metrics.Limited)
	}
	resp := ntppkt.Packet{
		Leap:      ntppkt.LeapNone,
		Version:   version,
		Mode:      ntppkt.ModeServer,
		Stratum:   uint8(s.stratum.Load()),
		Poll:      req.Poll,
		Precision: -20,
		RefID:     s.RefID,
		RefTime:   ntptime.FromTime(recv.Add(-10 * time.Second)),
		Origin:    req.Transmit,
		Receive:   ntptime.FromTime(recv),
		Transmit:  ntptime.FromTime(s.Clock.Now()),
	}
	if ntsReq != nil {
		// Seal after the transmit stamp: the authenticator's
		// associated data covers the final header image.
		cryptoStart := time.Now()
		err := nts.ProtectResponse(s.NTS, ntsReq, &resp)
		cryptoDur += time.Since(cryptoStart)
		if err != nil {
			sh.metrics.Dropped.Add(1)
			return out
		}
	}
	out = resp.Encode(out[:0])
	lat := sh.metrics.latencyBucket(s.Clock.Now().Sub(recv))
	var ok bool
	if ntsReq != nil {
		ok = sh.write(out, peer, &sh.metrics.Served, &sh.metrics.NTSServed, lat)
	} else {
		ok = sh.write(out, peer, &sh.metrics.Served, lat)
	}
	if !ok {
		return out
	}
	if ctrl != nil {
		s.observeSojourn(sh, ingress, cryptoDur)
	}
	return out
}

// write sends one reply to peer and counts it under every one of
// counters (its outcome, and for served time its latency bucket). The
// counters move before the write, so a client already holding its
// reply never reads a count that lags the wire; a failed write takes
// them all back and counts in WriteErrors instead.
func (sh *shard) write(out []byte, peer *net.UDPAddr, counters ...*atomic.Uint64) bool {
	for _, c := range counters {
		c.Add(1)
	}
	if _, err := sh.conn.WriteToUDP(out, peer); err != nil {
		for _, c := range counters {
			c.Add(^uint64(0))
		}
		sh.metrics.WriteErrors.Add(1)
		return false
	}
	return true
}

// writeRate sends a RATE kiss-of-death echoing the request's origin,
// counted under outcome (Limited or Shed), and returns the reused
// buffer.
func (s *Server) writeRate(sh *shard, version uint8, req *ntppkt.Packet, peer *net.UDPAddr, out []byte, outcome *atomic.Uint64) []byte {
	kod := ntppkt.Packet{
		Leap: ntppkt.LeapNotSync, Version: version, Mode: ntppkt.ModeServer,
		Stratum: ntppkt.StratumKoD, RefID: ntppkt.KissRate,
		Origin: req.Transmit,
	}
	out = kod.Encode(out[:0])
	sh.write(out, peer, outcome)
	return out
}

// writeNTSNak sends an NTS NAK kiss-of-death (RFC 8915 §5.7): the
// server saw NTS fields it could not authenticate — a cookie sealed
// under a rotated-out epoch, or a forged/corrupted authenticator —
// and the client must re-run key establishment. The request's unique
// identifier is echoed so the client can match the NAK; no
// authenticator is added since the server has no verified keys.
func (s *Server) writeNTSNak(sh *shard, version uint8, req *ntppkt.Packet, peer *net.UDPAddr, out []byte) []byte {
	nak := ntppkt.Packet{
		Leap: ntppkt.LeapNotSync, Version: version, Mode: ntppkt.ModeServer,
		Stratum: ntppkt.StratumKoD, RefID: ntppkt.KissNTSN,
		Origin: req.Transmit,
	}
	if uid, _ := req.FindExt(ntppkt.ExtUniqueIdentifier); uid != nil {
		nts.ProtectNAK(uid.Value, &nak)
	}
	out = nak.Encode(out[:0])
	sh.write(out, peer, &sh.metrics.NTSNaks)
	return out
}

// housekeep is the watchdog/housekeeping loop: it restarts wedged
// shard pools, sweeps expired rate-limit entries, and feeds the slow
// signals (in-flight, write-error rate, table pressure) to the
// overload controller.
func (s *Server) housekeep(interval time.Duration) {
	defer s.hkWG.Done()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	prev := make([]uint64, len(s.shards))
	for i, sh := range s.shards {
		prev[i] = sh.completed.Load()
	}
	cooldown := make([]int, len(s.shards))
	deltas := make([]uint64, len(s.shards))
	var prevServed, prevWriteErr uint64
	for {
		select {
		case <-s.stopHk:
			return
		case <-tick.C:
		}
		// Wedged-shard scan: a shard holding work in flight that
		// completed nothing over a whole interval is stuck mid-handle
		// (an idle shard holds nothing in flight). Only act when a
		// sibling did make progress, so a globally quiet server is
		// left alone; the cooldown stops a still-wedged shard from
		// accreting a fresh pool every tick.
		var maxDelta uint64
		for i, sh := range s.shards {
			cur := sh.completed.Load()
			deltas[i] = cur - prev[i]
			prev[i] = cur
			if deltas[i] > maxDelta {
				maxDelta = deltas[i]
			}
		}
		var maxInFlight int64
		for i, sh := range s.shards {
			inf := sh.inFlight.Load()
			if inf > maxInFlight {
				maxInFlight = inf
			}
			if cooldown[i] > 0 {
				cooldown[i]--
				continue
			}
			if deltas[i] == 0 && inf > 0 && maxDelta > 0 {
				s.restartShard(sh)
				cooldown[i] = 2
			}
		}
		if lim := s.limiter.Load(); lim != nil {
			lim.sweep(s.Clock.Now())
		}
		if s.ctrl != nil {
			var occ float64
			if lim := s.limiter.Load(); lim != nil {
				occ = lim.occupancy()
			}
			snap := s.Snapshot()
			dServed := snap.Served - prevServed
			dWE := snap.WriteErrors - prevWriteErr
			prevServed, prevWriteErr = snap.Served, snap.WriteErrors
			var weFrac float64
			if dServed+dWE > 0 {
				weFrac = float64(dWE) / float64(dServed+dWE)
			}
			s.ctrl.Evaluate(time.Now(), overload.Signals{
				MaxShardInFlight: int(maxInFlight),
				TableOccupancy:   occ,
				WriteErrorFrac:   weFrac,
			})
		}
	}
}

// restartShard rotates a wedged shard's worker pool: the epoch bump
// tells the old workers — wherever they are stuck — to exit when they
// next complete a datagram, and a fresh complement starts against the
// same socket immediately.
func (s *Server) restartShard(sh *shard) {
	epoch := sh.epoch.Add(1)
	s.restarts.Add(1)
	for w := 0; w < s.workersPerShard; w++ {
		s.spawnWorker(sh, epoch)
	}
}
