package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"
)

// phase is one closed-loop pass over a world, or the sum of several.
type phase struct {
	lat       []int64 // host ns per client-visible call
	calls     int
	ops       int
	attempted int
	failed    int
	rounds    int
	elapsed   float64  // host seconds, rounds and between steps
	delta     counters // counter movement over the pass
	blackouts []uint64 // ns, migrations completed in the pass
	// self is the per-span-name self time of a traced pass; bufs keeps
	// the first traced pass's spans for --spans.
	self map[string]*selfTime
	bufs []*spanBuf
	err  error
}

// add folds q into p, so that the windows of one kind sum into one
// phase.
func (p *phase) add(q *phase) {
	p.lat = append(p.lat, q.lat...)
	p.calls += q.calls
	p.ops += q.ops
	p.attempted += q.attempted
	p.failed += q.failed
	p.rounds += q.rounds
	p.elapsed += q.elapsed
	p.delta.add(q.delta)
	p.blackouts = append(p.blackouts, q.blackouts...)
	for name, s := range q.self {
		if p.self == nil {
			p.self = make(map[string]*selfTime)
		}
		t := p.self[name]
		if t == nil {
			t = &selfTime{}
			p.self[name] = t
		}
		t.ns, t.cyc, t.calls = t.ns+s.ns, t.cyc+s.cyc, t.calls+s.calls
	}
	if p.bufs == nil {
		p.bufs = q.bufs
	}
}

// driveOpts selects how a phase runs.
type driveOpts struct {
	// rounds is the pass's fixed length: each client makes rounds ×
	// perRound calls.
	rounds int
	// seq runs the pass on one goroutine, the clients' calls interleaved
	// in a fixed order: the sequential pass whose simulated counts must
	// repeat exactly. Its spans, if traced, carry simulated-clock
	// stamps. Otherwise each client runs on its own goroutine.
	seq    bool
	traced bool
}

// drive runs one phase. Each client is closed-loop: it issues its next
// call only after the previous one returned and its outcome was checked.
// A failed call ends that client's calls and the phase. In a world with
// a between-rounds step the clients meet after every round of perRound
// calls each, and the step runs while none is active; in a world
// without one, concurrent clients run their calls without meeting.
func drive(wl workload, w world, cls []*client, o driveOpts) *phase {
	p := &phase{}
	pr := w.probe()
	pc, paced := w.(pacer)
	epoch := time.Now()
	var cyc func() uint64
	if o.seq {
		cyc = pr.cycles
	}
	var mainBuf *spanBuf
	if o.traced {
		for i, cl := range cls {
			cl.sp = newSpanBuf(epoch, cyc)
			cl.sp.op = uint64(i) << 40
			p.bufs = append(p.bufs, cl.sp)
		}
		mainBuf = newSpanBuf(epoch, cyc)
		mainBuf.op = uint64(len(cls)) << 40
		p.bufs = append(p.bufs, mainBuf)
	}
	defer func() {
		for _, cl := range cls {
			cl.sp = nil
		}
	}()

	lats := make([][]int64, len(cls))
	errs := make([]error, len(cls))
	attempted := make([]int, len(cls))
	one := func(c int) bool {
		cl := cls[c]
		if cl.sp != nil {
			cl.sp.op++
		}
		t0 := time.Now()
		r := cl.sp.begin(wl.root)
		err := w.call(cl)
		cl.sp.end(r)
		d := time.Since(t0).Nanoseconds()
		attempted[c]++
		if err != nil {
			errs[c] = fmt.Errorf("%s client %d: %w", wl.name, c, err)
			return false
		}
		lats[c] = append(lats[c], d)
		return true
	}
	// parallel runs n calls on every client, one goroutine each.
	parallel := func(n int) {
		var wg sync.WaitGroup
		for c := range cls {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < n && one(c); i++ {
				}
			}(c)
		}
		wg.Wait()
	}
	interleaved := func() {
		for i := 0; i < wl.perRound; i++ {
			for c := range cls {
				if !one(c) {
					return
				}
			}
		}
	}

	before := pr.read()
	start := time.Now()
	if !o.seq && !paced {
		parallel(o.rounds * wl.perRound)
		if p.err = firstErr(errs); p.err == nil {
			p.rounds = o.rounds
		}
	}
	for p.err == nil && p.rounds < o.rounds {
		if o.seq {
			interleaved()
		} else {
			parallel(wl.perRound)
		}
		if p.err = firstErr(errs); p.err != nil {
			break
		}
		if paced {
			if p.err = pc.between(mainBuf); p.err != nil {
				p.err = fmt.Errorf("%s between rounds: %w", wl.name, p.err)
				break
			}
		}
		p.rounds++
	}
	p.elapsed = since(start)
	after := pr.read()
	p.delta = after
	p.delta.sub(before)
	if pr.fleet != nil {
		p.blackouts = pr.fleet.Blackouts()[before.Blackouts:after.Blackouts]
	}
	for c := range cls {
		p.lat = append(p.lat, lats[c]...)
		p.calls += len(lats[c])
		p.attempted += attempted[c] * wl.opsPerCall
		p.failed += (attempted[c] - len(lats[c])) * wl.opsPerCall
	}
	p.ops = p.calls * wl.opsPerCall
	if o.traced {
		p.self = selfTimes(p.bufs)
		for _, b := range p.bufs {
			b.cycles = nil // the stamps are taken; do not keep the world alive
		}
	}
	return p
}

func firstErr(errs []error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// percentile returns the nearest-rank p-th percentile of sorted xs.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[min(max(rank(len(sorted), p), 1), len(sorted))-1]
}

// rank is the nearest-rank index (1-based) of the p-th percentile of n
// samples; the epsilon absorbs binary rounding of p.
func rank(n int, p float64) int { return int(math.Ceil(float64(n)*p/100 - 1e-9)) }

// tailLadder is the set of percentiles a tail is reported at.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99, 99.999}

// tail returns the highest ladder percentile with at least 10 samples
// beyond it, its value, and how many samples lie beyond it.
func tail(sorted []int64) (pct float64, v int64, beyond int) {
	pct = tailLadder[0]
	for _, p := range tailLadder {
		if len(sorted)-rank(len(sorted), p) < 10 {
			break
		}
		pct = p
	}
	v = percentile(sorted, pct)
	beyond = len(sorted) - sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
	return pct, v, beyond
}

func sortedCopy(xs []int64) []int64 {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// since returns the host seconds elapsed since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }

// liveHeapMiB collects garbage and returns the live Go heap.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
