package loadgen

import (
	"net"
	"time"

	"mntp/internal/ntppkt"
	"mntp/internal/ntptime"
	"mntp/internal/nts"
)

// ReplyClass is what became of one request: genuine served time, a
// deliberate refusal (a kiss-of-death), a reply that must not be
// trusted, or no reply at all. Classifying keeps "loss" meaning what
// it should — no answer — instead of lumping a server's explicit
// refusals in with drops.
type ReplyClass uint8

const (
	// ReplyServed is a valid (and, under NTS, authenticated) reply
	// carrying time.
	ReplyServed ReplyClass = iota
	// ReplyKoDRate is a RATE kiss-of-death: the server answered but
	// deliberately refused time (rate limiting or load shedding).
	ReplyKoDRate
	// ReplyKoDNTS is an NTS NAK: the server saw NTS fields it could
	// not authenticate and told the client to re-run key exchange.
	// Distinct from RATE/other because it signals a key/cookie
	// problem, not load.
	ReplyKoDNTS
	// ReplyKoDOther is any other kiss-of-death (DENY, RSTR, ...).
	ReplyKoDOther
	// ReplyInvalid is a matched reply that failed ValidateServerReply
	// (unsynchronized, bad mode or version, zero transmit) or NTS
	// verification: the server answered, but not with usable time.
	ReplyInvalid
	// ReplyLost is a request with no matching reply before its
	// deadline, or one that never reached the wire.
	ReplyLost
)

// ClassifyReply classifies the reply p to the request whose transmit
// timestamp was origin; p == nil means no reply arrived before the
// deadline. Under NTS (sess non-nil) the reply's authenticator is
// verified against the request state st, which also harvests any
// re-supplied cookies. The string is the kiss code for the KoD
// classes, "" otherwise.
func ClassifyReply(p *ntppkt.Packet, origin ntptime.Timestamp, sess *nts.Session, st *nts.RequestState) (ReplyClass, string) {
	if p == nil {
		return ReplyLost, ""
	}
	if code, ok := p.KissCode(); ok {
		switch code {
		case "RATE":
			return ReplyKoDRate, code
		case "NTSN":
			return ReplyKoDNTS, code
		}
		return ReplyKoDOther, code
	}
	if p.ValidateServerReply(origin) != nil {
		return ReplyInvalid, ""
	}
	if sess != nil && sess.VerifyReply(p, st) != nil {
		return ReplyInvalid, ""
	}
	return ReplyServed, ""
}

// stampRequest prepares req for the wire at sent: the transmit
// timestamp with its low fraction bits replaced by ctr (so every
// outstanding request's echoed origin is unique), then, when sess is
// non-nil, the per-request NTS fields — a fresh unique ID, a cookie
// from the jar and the authenticator over the final header image.
// The request is encoded into buf, which is reused.
func stampRequest(req *ntppkt.Packet, sent time.Time, ctr uint64, sess *nts.Session, buf []byte) ([]byte, *nts.RequestState, error) {
	req.Transmit = ntptime.FromTime(sent)&^ctrMask | ntptime.Timestamp(ctr&ctrMask)
	var st *nts.RequestState
	if sess != nil {
		req.Ext = req.Ext[:0]
		var err error
		if st, err = sess.ProtectRequest(req); err != nil {
			return buf, nil, err
		}
	}
	return req.Encode(buf[:0]), st, nil
}

// decodeReply decodes one datagram into p and reports whether it is a
// server reply at all; anything else is stray traffic.
func decodeReply(p *ntppkt.Packet, b []byte) bool {
	return p.DecodeInto(b) == nil && (p.Mode == ntppkt.ModeServer || p.Mode == ntppkt.ModeBroadcast)
}

// Conn is the closed-loop driver: one persistent connected UDP socket
// with at most one request in flight. Exchange sends a request, waits
// for the reply that echoes it and classifies it, reusing the
// socket's packet and buffers, so a plain exchange does not allocate.
// A Conn is not safe for concurrent use; give each worker its own.
type Conn struct {
	conn     *net.UDPConn
	timeout  time.Duration
	ctr      uint64
	req, rep ntppkt.Packet
	out, in  []byte
}

// Dial opens a closed-loop socket to target (host:port) whose
// exchanges wait up to timeout for their reply.
func Dial(target string, timeout time.Duration) (*Conn, error) {
	raddr, err := net.ResolveUDPAddr("udp", target)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return nil, err
	}
	return &Conn{
		conn:    conn,
		timeout: timeout,
		req:     ntppkt.Packet{Leap: ntppkt.LeapNotSync, Version: ntppkt.Version4, Mode: ntppkt.ModeClient},
		out:     make([]byte, 0, 2048),
		in:      make([]byte, 2048), // room for NTS replies, not just headers
	}, nil
}

// Close closes the socket.
func (c *Conn) Close() error { return c.conn.Close() }

// Exchange runs one request/reply exchange, NTS-protected when sess is
// non-nil, and returns the reply's class with the round-trip time of
// any matched reply (0 for ReplyLost). Datagrams that are not the
// reply — stray, or a late answer to an earlier request — are skipped
// until the deadline. A socket error (an ICMP-refused port while the
// server is down) ends the exchange as ReplyLost at once.
func (c *Conn) Exchange(sess *nts.Session) (ReplyClass, time.Duration) {
	c.ctr++
	sent := time.Now()
	var st *nts.RequestState
	var err error
	if c.out, st, err = stampRequest(&c.req, sent, c.ctr, sess, c.out); err != nil {
		return ReplyLost, 0
	}
	if c.conn.SetReadDeadline(sent.Add(c.timeout)) != nil {
		return ReplyLost, 0
	}
	if _, err := c.conn.Write(c.out); err != nil {
		return ReplyLost, 0
	}
	for {
		n, err := c.conn.Read(c.in)
		if err != nil {
			return ReplyLost, 0
		}
		if !decodeReply(&c.rep, c.in[:n]) || c.rep.Origin != c.req.Transmit {
			continue
		}
		rtt := time.Since(sent)
		class, _ := ClassifyReply(&c.rep, c.req.Transmit, sess, st)
		return class, rtt
	}
}
