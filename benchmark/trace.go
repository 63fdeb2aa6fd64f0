package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval around a call into a layer. Spans of one
// request share Req; Parent links a span to the span that caused it
// (0 = none). N is the number of operations the interval covers: 1 for
// a single call, the iteration count for a replay loop.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int    `json:"n"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory, one buffer per goroutine so recording
// takes no lock, and writes them out when the benchmark ends. A nil
// *tracer is tracing off: every method is a no-op and the call sites
// skip their clock reads.
type tracer struct {
	base time.Time
	next atomic.Int32
	mu   sync.Mutex
	bufs []*spanBuf
}

// spanBuf is one goroutine's span log.
type spanBuf struct {
	t     *tracer
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// buf returns a new buffer for the calling goroutine (nil when off).
func (t *tracer) buf(capacity int) *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{t: t, spans: make([]span, 0, capacity)}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// reserve allocates a span id ahead of recording, so a parent that
// closes after its children can be named by them (0 when off).
func (b *spanBuf) reserve() int32 {
	if b == nil {
		return 0
	}
	return b.t.next.Add(1)
}

// add records [start, end) under a fresh id and returns it (0 when off).
func (b *spanBuf) add(name string, parent int32, req int64, start, end time.Time, n int) int32 {
	return b.addID(b.reserve(), name, parent, req, start, end, n)
}

// addID records [start, end) under an id from reserve.
func (b *spanBuf) addID(id int32, name string, parent int32, req int64, start, end time.Time, n int) int32 {
	if b == nil {
		return 0
	}
	b.spans = append(b.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(b.t.base).Nanoseconds(), End: end.Sub(b.t.base).Nanoseconds(), N: n,
	})
	return id
}

// all merges every buffer, ordered by start time. Call only after the
// recording goroutines have finished.
func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, b := range t.bufs {
		out = append(out, b.spans...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its child spans (children clipped to the
// parent, overlapping children counted once).
func selfTimes(spans []span) map[int32]int64 {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int32]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		curS, curE := int64(0), int64(-1)
		for _, k := range kids {
			ks, ke := max(k.Start, s.Start), min(k.End, s.End)
			if ke <= ks {
				continue
			}
			if ks > curE {
				if curE > curS {
					covered += curE - curS
				}
				curS, curE = ks, ke
			} else if ke > curE {
				curE = ke
			}
		}
		if curE > curS {
			covered += curE - curS
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	SelfNS int64   // summed self time
	P50NS  float64 // median duration per operation
}

// summarize groups spans by name: summed self time and the median
// per-operation duration.
func summarize(spans []span) map[string]*layerStat {
	self := selfTimes(spans)
	out := make(map[string]*layerStat)
	per := make(map[string][]float64)
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		st.SelfNS += self[s.ID]
		per[s.Name] = append(per[s.Name], float64(s.dur())/float64(max(s.N, 1)))
	}
	for name, xs := range per {
		out[name].P50NS = quantile(xs, 0.5)
	}
	return out
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// spanCost measures what recording one span costs the caller: two
// clock reads and one append, averaged over n records.
func spanCost(n int) float64 {
	t := newTracer()
	b := t.buf(n)
	start := time.Now()
	for i := 0; i < n; i++ {
		s := time.Now()
		b.add("trace.probe", 0, 0, s, time.Now(), 1)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}
