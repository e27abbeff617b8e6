package bench

import (
	"fmt"
	"math"
	"time"

	"github.com/tyche-sim/tyche/internal/core"
	"github.com/tyche-sim/tyche/internal/trace"
	"github.com/tyche-sim/tyche/internal/trace/check"
)

func init() {
	register(Experiment{
		ID:    "C17",
		Title: "Tracing overhead: cycle-stamped monitor tracing on the C15 contention workload",
		Paper: "runtime verification of the monitor's claimed invariants must not perturb what it observes",
		Run:   runC17,
	})
}

// runC17 measures what the trace subsystem costs, on the identical
// share+revoke contention workload C15 uses, in three configurations:
//
//	off        — no tracer installed: every emit site is one atomic
//	             nil-load and branch, the cost everyone pays when not
//	             tracing;
//	ring       — per-core lock-free ring buffers recording every event;
//	ring+check — ring plus the online invariant checker as a sink
//	             (emission serialises to give the checker a total order).
//
// Two properties are load-bearing. First, tracing must advance no
// simulated clocks: the single-worker runs of all three modes must
// consume bit-identical cycle counts, or the act of observing would
// change the system under observation. Second, the disabled path must
// be negligible: the measured per-emit cost times the observed event
// rate must stay under 2% of the workload's wall time.
func runC17(cfg Config) (*Result, error) {
	res := &Result{
		ID: "C17", Title: "Tracing overhead (off / ring / ring+check)",
		Columns: []string{"workers", "mode", "wall us", "cycles", "events", "dropped", "checker"},
	}
	if !trace.Compiled {
		res.row("-", "notrace", "0", "0", "0", "0", "-")
		res.note("tracing compiled out (notrace build tag); overhead is zero by construction")
		res.check("modes-run", true, "skipped under notrace")
		return res, nil
	}
	iters := 64
	if cfg.Quick {
		iters = 24
	}

	type modeRun struct {
		run    *ringRun
		tracer *trace.Tracer
		ck     *check.Checker
		base   core.Stats // stats at tracer install time
	}
	runMode := func(workers int, name string) (*modeRun, error) {
		mr := &modeRun{}
		tweak := func(w *world) error {
			// Worlds may arrive pre-traced (-traced); C17 controls its
			// own instrumentation, so start from a clean slate.
			w.mach.SetTracer(nil)
			w.ck = nil
			// A -verify service attached at boot would keep merging at
			// checkpoints against the replaced tracer; release the hook so
			// C17's modes measure only their own instrumentation.
			w.mon.SetCheckpoint(nil)
			w.rvs = nil
			if name == "off" {
				return nil
			}
			mr.tracer = w.mach.NewTracer(trace.DefaultRingEntries)
			if name == "ring+check" {
				mr.ck = check.New()
				mr.tracer.Attach(mr.ck)
			}
			mr.base = w.mon.Stats()
			w.mach.SetTracer(mr.tracer)
			return nil
		}
		r, err := runShareRevokeRing(cfg, workers, iters, tweak)
		if err != nil {
			return nil, fmt.Errorf("c17 %s/w%d: %w", name, workers, err)
		}
		mr.run = r
		return mr, nil
	}

	modes := []string{"off", "ring", "ring+check"}
	var wide map[string]*modeRun // the w4 runs, reused for the overhead bound
	for _, workers := range []int{1, 4} {
		byMode := make(map[string]*modeRun, len(modes))
		for _, name := range modes {
			mr, err := runMode(workers, name)
			if err != nil {
				return nil, err
			}
			byMode[name] = mr
			events, dropped, checker := uint64(0), uint64(0), "-"
			if mr.tracer != nil {
				events, dropped = mr.tracer.Len(), mr.tracer.Dropped()
			}
			if mr.ck != nil {
				if err := mr.ck.Err(); err != nil {
					checker = "VIOLATION"
				} else {
					checker = "clean"
				}
			}
			tag := fmt.Sprintf("w%d", workers)
			res.row(fmt.Sprintf("%d", workers), name,
				fmt.Sprintf("%d", mr.run.wall.Microseconds()), fmtU(mr.run.cycles),
				fmtU(events), fmtU(dropped), checker)
			res.metric(fmt.Sprintf("%s_%s_wall_ns", tag, name), float64(mr.run.wall.Nanoseconds()))
			res.metric(fmt.Sprintf("%s_%s_cycles", tag, name), float64(mr.run.cycles))
			res.check(fmt.Sprintf("%s-%s-complete", tag, name), mr.run.complete,
				"all workers ran to completion%s", mr.run.detail)
		}
		tag := fmt.Sprintf("w%d", workers)
		if workers == 1 {
			// Single worker: execution is sequential, so cycle accounting
			// is exactly reproducible and any divergence is tracing
			// perturbing the machine.
			off, ring, chk := byMode["off"].run.cycles, byMode["ring"].run.cycles, byMode["ring+check"].run.cycles
			res.check("cycles-identical", off == ring && ring == chk,
				"tracing advances no simulated clocks: off=%d ring=%d ring+check=%d", off, ring, chk)
		}
		// The checker saw the whole history since its install: its
		// event-derived counters must reconcile exactly with the stats
		// delta over the same window.
		mc := byMode["ring+check"]
		st := mc.run.w.mon.Stats()
		c := mc.ck.Counts()
		exact := c.Revocations == st.Revocations-mc.base.Revocations &&
			c.CapOps == st.CapOps-mc.base.CapOps &&
			c.Transitions == st.Transitions-mc.base.Transitions &&
			c.VMCalls+c.MachineChecks == st.VMExits-mc.base.VMExits
		res.check(tag+"-checker-clean", mc.ck.Err() == nil,
			"online invariant checker over the traced window: %v", mc.ck.Err())
		res.check(tag+"-counts-exact", exact,
			"event-derived counts match the Stats() delta: trace %+v", c)
		wide = byMode
	}

	// Disabled-path overhead: measure the per-emit cost with no tracer
	// installed (one atomic load + branch) and scale it by the event
	// rate the ring mode observed on the big run. That product over the
	// untraced wall time bounds what always-compiled-in tracing costs a
	// production run that never turns it on.
	// The per-site cost is the fastest of several probe batches, so a
	// batch that a concurrent experiment preempts cannot inflate it.
	mOff := wide["off"].run.w.mach // its tracer was never installed
	const batches, probes = 16, 1 << 16
	disabledNs := math.Inf(1)
	for b := 0; b < batches; b++ {
		start := time.Now()
		for i := 0; i < probes; i++ {
			mOff.Trace(trace.GlobalCore, trace.KVMCall, 0, 0, 0, 0, 0)
		}
		disabledNs = min(disabledNs, float64(time.Since(start).Nanoseconds())/probes)
	}
	ring, off := wide["ring"], wide["off"]
	events := float64(ring.tracer.Len())
	estNs := events * disabledNs
	overheadPct := estNs / float64(off.run.wall.Nanoseconds()) * 100
	res.metric("disabled_emit_ns", disabledNs)
	res.metric("disabled_overhead_pct", overheadPct)
	res.note("disabled emit: %.2f ns/site, fastest of %d batches of %d probes; %s events on the w4 workload -> estimated %.3f%% of the untraced wall time",
		disabledNs, batches, probes, fmtU(ring.tracer.Len()), overheadPct)
	// Lenient absolute floor: on a fast machine the whole estimated
	// cost can be a handful of microseconds, where the percentage is
	// dominated by wall-clock noise in the denominator.
	res.check("disabled-overhead-bounded", overheadPct <= 2.0 || estNs < 100_000,
		"estimated disabled-tracing overhead %.3f%% (%.0f ns of %d ns) <= 2%%",
		overheadPct, estNs, off.run.wall.Nanoseconds())
	return res, nil
}
