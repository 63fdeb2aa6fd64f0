package loadgen

import (
	"fmt"
	"time"
)

// Report is the outcome of one load-generation run, shaped for JSON
// (cmd/ntpload emits it verbatim, feeding capacity trajectories).
// Loss semantics: Lost = requests with no reply within Timeout
// (expired) plus replies that arrived past their deadline
// (LateReplies); kiss-of-death answers are counted in KoD, not in
// Lost, since the server did answer — it just refused time.
type Report struct {
	Target          string  `json:"target"`
	Arrival         Arrival `json:"arrival"`
	Senders         int     `json:"senders"`
	Population      int     `json:"population,omitempty"`
	PopulationBound int     `json:"population_bound,omitempty"`
	OfferedRate     float64 `json:"offered_rate"`
	DurationSec     float64 `json:"duration_sec"`
	TimeoutSec      float64 `json:"timeout_sec"`

	// Truncated marks a run whose send phase was interrupted
	// (SIGINT/SIGTERM via Config.Interrupt): the counters and
	// quantiles are genuine but cover less than Duration.
	Truncated bool `json:"truncated,omitempty"`

	Sent     uint64 `json:"sent"`
	Received uint64 `json:"received"`
	KoD      uint64 `json:"kod"`
	// KoDRate counts RATE kisses — the server's deliberate refusals
	// (rate limiting or overload shedding), as opposed to true loss.
	// KoDCodes breaks every kiss-of-death down by its code.
	KoDRate uint64 `json:"kod_rate,omitempty"`
	// KoDNTS counts NTS NAK kisses — verification failures the server
	// answered explicitly, distinct from RATE/other KoD because they
	// signal a key or cookie problem rather than load.
	KoDNTS   uint64            `json:"kod_nts,omitempty"`
	KoDCodes map[string]uint64 `json:"kod_codes,omitempty"`
	// NTSSessions is how many KE sessions the run pre-established (0
	// for a plain run); NTSAuthFail counts replies that matched a
	// request but were discarded as invalid (ReplyInvalid): failed
	// AEAD verification or, plain or NTS, ValidateServerReply.
	NTSSessions int    `json:"nts_sessions,omitempty"`
	NTSAuthFail uint64 `json:"nts_auth_fail,omitempty"`
	// NTSProtectErrors counts requests the generator could not
	// protect (exhausted jar with reuse off, RNG failure) and never
	// sent.
	NTSProtectErrors uint64 `json:"nts_protect_errors,omitempty"`
	Lost             uint64 `json:"lost"`
	LateReplies      uint64 `json:"late_replies"`
	Stray            uint64 `json:"stray"`
	SendErrors       uint64 `json:"send_errors"`
	RecvErrors       uint64 `json:"recv_errors"`

	// AchievedSendRate is what the generator actually put on the
	// wire per second of send phase; an open-loop run keeps it at
	// OfferedRate unless the generator itself runs out of CPU.
	AchievedSendRate float64 `json:"achieved_send_rate"`
	ReceivedRate     float64 `json:"received_rate"`
	LossFraction     float64 `json:"loss_fraction"`

	Latency   LatencySummary `json:"latency"`
	Intervals []Interval     `json:"intervals,omitempty"`
}

// LatencySummary is the request→reply latency distribution of served
// (non-KoD, in-deadline) replies, in microseconds.
type LatencySummary struct {
	Count  uint64  `json:"count"`
	MeanUs float64 `json:"mean_us"`
	P50Us  float64 `json:"p50_us"`
	P90Us  float64 `json:"p90_us"`
	P99Us  float64 `json:"p99_us"`
	P999Us float64 `json:"p999_us"`
	MaxUs  float64 `json:"max_us"`
}

// Interval is one periodic snapshot row: counters are deltas over
// the interval, quantiles are of the interval's replies.
type Interval struct {
	ElapsedSec float64 `json:"elapsed_sec"`
	Sent       uint64  `json:"sent"`
	Received   uint64  `json:"received"`
	KoD        uint64  `json:"kod"`
	Lost       uint64  `json:"lost"`
	SendRate   float64 `json:"send_rate"`
	P50Us      float64 `json:"p50_us"`
	P99Us      float64 `json:"p99_us"`
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func (e *engine) report(sendDur time.Duration) *Report {
	r := &Report{
		Target:           e.cfg.Target,
		Arrival:          e.cfg.Arrival,
		Senders:          e.cfg.Senders,
		Population:       e.cfg.Population,
		PopulationBound:  e.populationBound,
		OfferedRate:      e.cfg.Rate,
		DurationSec:      sendDur.Seconds(),
		TimeoutSec:       e.timeout.Seconds(),
		Sent:             e.sent.Load(),
		Received:         e.received.Load(),
		KoD:              e.kod.Load(),
		KoDRate:          e.kodRate.Load(),
		KoDNTS:           e.kodNTS.Load(),
		NTSSessions:      e.ntsSessions,
		NTSAuthFail:      e.invalid.Load(),
		NTSProtectErrors: e.ntsProtErrs.Load(),
		LateReplies:      e.late.Load(),
		Stray:            e.stray.Load(),
		SendErrors:       e.sendErrs.Load(),
		RecvErrors:       e.recvErrs.Load(),
	}
	r.Lost = e.expired.Load() + e.late.Load()
	e.kodMu.Lock()
	if len(e.kodCodes) > 0 {
		r.KoDCodes = make(map[string]uint64, len(e.kodCodes))
		for code, n := range e.kodCodes {
			r.KoDCodes[code] = n
		}
	}
	e.kodMu.Unlock()
	if sendDur > 0 {
		r.AchievedSendRate = float64(r.Sent) / sendDur.Seconds()
		r.ReceivedRate = float64(r.Received) / sendDur.Seconds()
	}
	if r.Sent > 0 {
		r.LossFraction = float64(r.Lost) / float64(r.Sent)
	}
	h := e.rec.snapshot()
	r.Latency.Count = h.count
	r.Latency.MeanUs = us(h.mean())
	r.Latency.MaxUs = us(time.Duration(h.max))
	for _, q := range []struct {
		q   float64
		dst *float64
	}{{0.50, &r.Latency.P50Us}, {0.90, &r.Latency.P90Us}, {0.99, &r.Latency.P99Us}, {0.999, &r.Latency.P999Us}} {
		if v, ok := h.quantile(q.q); ok {
			*q.dst = us(v)
		}
	}
	e.intervalMu.Lock()
	r.Intervals = e.intervals
	e.intervalMu.Unlock()
	return r
}

// String renders the one-line human summary cmd/ntpload prints to
// stderr alongside the JSON.
func (r *Report) String() string {
	s := fmt.Sprintf(
		"offered %.0f/s achieved %.0f/s over %.2fs: sent=%d received=%d kod=%d (rate=%d) lost=%d (%.2f%%) p50=%.0fµs p99=%.0fµs max=%.0fµs",
		r.OfferedRate, r.AchievedSendRate, r.DurationSec,
		r.Sent, r.Received, r.KoD, r.KoDRate, r.Lost, 100*r.LossFraction,
		r.Latency.P50Us, r.Latency.P99Us, r.Latency.MaxUs)
	if r.NTSSessions > 0 {
		s += fmt.Sprintf(" nts: sessions=%d nak=%d auth-fail=%d protect-err=%d",
			r.NTSSessions, r.KoDNTS, r.NTSAuthFail, r.NTSProtectErrors)
	}
	if r.Truncated {
		s += " [truncated]"
	}
	return s
}
