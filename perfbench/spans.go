package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public function of internal/fleet, internal/core or
// internal/libtyche. Spans of one client-visible call share op.
type span struct {
	name   string
	parent int32 // index in the same buffer, -1 for a root
	op     uint64
	start  int64 // host ns since the tracer's epoch
	end    int64
	c0, c1 uint64 // simulated cycles at start and end (0 when unstamped)
}

// spanBuf holds the spans of one goroutine, so recording takes no lock.
// A nil *spanBuf records nothing: untraced runs pay one nil check per
// call boundary.
type spanBuf struct {
	epoch time.Time
	// cycles, when set, stamps each span with the world's simulated
	// clock. Only the sequential pass sets it: with two clients running,
	// the shared machine clocks advance for both inside either's span.
	cycles func() uint64
	spans  []span
	open   int32
	op     uint64
}

func newSpanBuf(epoch time.Time, cycles func() uint64) *spanBuf {
	return &spanBuf{epoch: epoch, cycles: cycles, open: -1, spans: make([]span, 0, 4096)}
}

// begin opens a span as a child of the innermost open span.
func (b *spanBuf) begin(name string) int32 {
	if b == nil {
		return -1
	}
	s := span{name: name, parent: b.open, op: b.op}
	if b.cycles != nil {
		s.c0 = b.cycles()
	}
	s.start = time.Since(b.epoch).Nanoseconds()
	b.spans = append(b.spans, s)
	b.open = int32(len(b.spans) - 1)
	return b.open
}

// end closes span i, which must be the innermost open span.
func (b *spanBuf) end(i int32) {
	if b == nil {
		return
	}
	s := &b.spans[i]
	s.end = time.Since(b.epoch).Nanoseconds()
	if b.cycles != nil {
		s.c1 = b.cycles()
	}
	b.open = s.parent
}

// selfTime is one span name's total self time: the span's duration
// minus the part of it that its child spans cover.
type selfTime struct {
	ns    int64
	cyc   uint64
	calls int
}

// selfTimes folds buffers into per-name self time. Children of a span
// come from the same goroutine, so they never overlap and their union is
// their sum.
func selfTimes(bufs []*spanBuf) map[string]*selfTime {
	out := make(map[string]*selfTime)
	for _, b := range bufs {
		childNs := make([]int64, len(b.spans))
		childCyc := make([]uint64, len(b.spans))
		for _, s := range b.spans {
			if s.parent >= 0 {
				childNs[s.parent] += s.end - s.start
				childCyc[s.parent] += s.c1 - s.c0
			}
		}
		for i, s := range b.spans {
			st := out[s.name]
			if st == nil {
				st = &selfTime{}
				out[s.name] = st
			}
			st.ns += s.end - s.start - childNs[i]
			st.cyc += s.c1 - s.c0 - childCyc[i]
			st.calls++
		}
	}
	return out
}

// writeChromeTrace writes the spans as Chrome trace-event JSON (one
// track per client goroutine), loadable in chrome://tracing or Perfetto.
func writeChromeTrace(path string, bufs []*spanBuf) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	var events []event
	for tid, b := range bufs {
		for i, s := range b.spans {
			events = append(events, event{
				Name: s.name, Ph: "X", TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
				PID: 1, TID: tid,
				Args: map[string]any{"op": s.op, "id": i, "parent": s.parent},
			})
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
