package main

// metricDef names one reported metric. The end-to-end and per-layer
// lists are the benchmark's contract: BENCHMARK.json declares the same
// names, units and directions (the self-test holds the two equal).
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only: tolerated relative worsening
}

// endToEnd is what a user of the system sees, per workload, measured on
// untraced windows after a warm-up, each with the relative worsening
// tolerated before a change counts as a regression. Host-time figures
// carry the largest bound: on the 2-vCPU host the benchmark was built
// on, the host's own speed drifts by up to a quarter over minutes.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"sim_cycles_per_op", "cycles", "lower", 0.01},
	{"setup_s", "s", "lower", 0.25},
	{"heap_mb", "MiB", "lower", 0.1},
}

// reportedOnly are end-to-end metrics printed in the report but left out
// of the result line and its bounds, because no bound a result may carry
// (at most 0.25) holds them on that host:
//   - lat_p50_us: in share, the two clients serialize on the monitor's
//     revoke path, so about half of the calls run at once and the rest
//     wait out the other client's revoke; the median sits in the gap
//     between the two modes and spread by 17-26% over ten runs.
//   - lat_tail_us: the latency at the highest percentile with ten
//     samples beyond it is set by a handful of descheduled calls and
//     spread by up to 42% over ten runs (migrate).
//   - fail_ratio: 0 on every correct run, so no bound relative to its
//     median exists; any failure fails the run instead.
var reportedOnly = []metricDef{
	{"lat_p50_us", "us", "lower", 0},
	{"lat_tail_us", "us", "lower", 0},
	{"fail_ratio", "ratio", "lower", 0},
}

// perLayer is read from the traced windows (host time) and the sequential
// pass (simulated counts and cycles) of a --trace 1 run. Every workload
// reports every metric; a layer the workload does not reach reads 0.
var perLayer = []metricDef{
	{"fleet.pick.ns_per_op", "ns", "lower", 0},
	{"fleet.pulse.ns_per_op", "ns", "lower", 0},
	{"fleet.pulse.count", "count", "higher", 0},
	{"fleet.migrate.ns_per_op", "ns", "lower", 0},
	{"fleet.blackout_p50_us", "us", "lower", 0},
	{"fleet.blackout_tail_us", "us", "lower", 0},
	{"fleet.verify_serve.ns_per_op", "ns", "lower", 0},

	{"core.call.ns_per_op", "ns", "lower", 0},
	{"core.call.cycles_per_op", "cycles", "lower", 0},
	{"core.runcore.ns_per_op", "ns", "lower", 0},
	{"core.runcore.cycles_per_op", "cycles", "lower", 0},
	{"core.vmexits_per_op", "count", "lower", 0},
	{"core.transitions_per_op", "count", "lower", 0},
	{"core.share.ns_per_op", "ns", "lower", 0},
	{"core.share.cycles_per_op", "cycles", "lower", 0},
	{"core.revoke.ns_per_op", "ns", "lower", 0},
	{"core.revoke.cycles_per_op", "cycles", "lower", 0},
	{"core.checkaccess.ns_per_op", "ns", "lower", 0},
	{"core.capops_per_op", "count", "lower", 0},
	{"core.ringflush_share.ns_per_op", "ns", "lower", 0},
	{"core.ringflush_share.cycles_per_op", "cycles", "lower", 0},
	{"core.ringflush_revoke.ns_per_op", "ns", "lower", 0},
	{"core.ringflush_revoke.cycles_per_op", "cycles", "lower", 0},
	{"core.ring_ops_per_flush", "count", "higher", 0},
	{"core.ring_shootdowns_per_flush", "count", "lower", 0},
	{"core.ring_coalesced_per_flush", "count", "higher", 0},
	{"core.epoch_syncs_per_op", "count", "lower", 0},
	{"core.epoch_combined_per_op", "count", "higher", 0},
	{"core.epoch_elided_per_op", "count", "higher", 0},
	{"core.lockwait_ns_per_op", "ns", "lower", 0},
	{"core.lockwait_count_per_op", "count", "lower", 0},
	{"core.pages_scrubbed_per_op", "count", "lower", 0},
	{"core.attests_per_op", "count", "lower", 0},
	{"core.migrations_per_op", "count", "lower", 0},

	{"libtyche.enqueue.ns_per_op", "ns", "lower", 0},
	{"libtyche.reap.ns_per_op", "ns", "lower", 0},

	{"hw.instr_per_op", "count", "lower", 0},
	{"hw.instr_per_host_s", "1/s", "higher", 0},
	{"hw.tlb_hit_ratio", "ratio", "higher", 0},
	{"hw.cache_hit_ratio", "ratio", "higher", 0},
	{"hw.tlb_flushes_per_op", "count", "lower", 0},

	{"backend.device_filter_pages", "count", "lower", 0},

	{"rv.digests_per_pulse", "count", "higher", 0},

	{"go.alloc_bytes_per_op", "B", "lower", 0},
	{"go.gc_pause_ns_per_op", "ns", "lower", 0},

	{"unattributed.ns_per_op", "ns", "lower", 0},
	{"trace_overhead_pct", "%", "lower", 0},
}

// spanMetrics maps a span name to its per-layer metric prefix; every
// span but the client-visible root is one call into a layer.
var spanMetrics = []string{
	"fleet.pick", "fleet.pulse", "fleet.migrate", "fleet.verify_serve",
	"core.call", "core.runcore", "core.share", "core.revoke", "core.checkaccess",
	"core.ringflush_share", "core.ringflush_revoke",
	"libtyche.enqueue", "libtyche.reap",
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerValues computes every per-layer metric but trace_overhead_pct.
// seq is the sequential pass (cycles-stamped spans, exact counts), rec
// its record; tr is the sum of the traced windows.
func layerValues(wl workload, seq *phase, rec simRecord, tr *phase) map[string]float64 {
	v := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		v[d.name] = 0
	}
	ops := float64(tr.ops)
	st, cy := tr.self, seq.self
	for _, name := range spanMetrics {
		if s := st[name]; s != nil {
			v[name+".ns_per_op"] = ratio(float64(s.ns), ops)
		}
		if _, ok := v[name+".cycles_per_op"]; ok && cy[name] != nil {
			v[name+".cycles_per_op"] = ratio(float64(cy[name].cyc), float64(rec.Ops))
		}
	}
	if s := st["fleet.pulse"]; s != nil {
		v["fleet.pulse.count"] = float64(s.calls)
	}
	if len(tr.blackouts) > 0 {
		b := make([]int64, len(tr.blackouts))
		for i, x := range tr.blackouts {
			b[i] = int64(x)
		}
		b = sortedCopy(b)
		_, t, _ := tail(b)
		v["fleet.blackout_p50_us"] = float64(percentile(b, 50)) / 1e3
		v["fleet.blackout_tail_us"] = float64(t) / 1e3
	}
	if s := st[wl.root]; s != nil {
		v["unattributed.ns_per_op"] = ratio(float64(s.ns), ops)
	}

	rops := float64(rec.Ops)
	perRec := func(k string) float64 { return ratio(float64(rec.Stats[k]), rops) }
	v["core.vmexits_per_op"] = perRec("VMExits")
	v["core.transitions_per_op"] = perRec("Transitions")
	v["core.capops_per_op"] = perRec("CapOps")
	v["core.pages_scrubbed_per_op"] = perRec("PagesScrubbed")
	v["core.attests_per_op"] = perRec("Attests")
	v["core.migrations_per_op"] = perRec("MigrationsOut")
	flushes := float64(rec.Stats["RingFlushes"])
	v["core.ring_ops_per_flush"] = ratio(float64(rec.Stats["RingOps"]), flushes)
	v["core.ring_shootdowns_per_flush"] = ratio(float64(rec.Stats["RingShootdowns"]), flushes)
	v["core.ring_coalesced_per_flush"] = ratio(float64(rec.Stats["RingOpsCoalesced"]), flushes)
	v["hw.instr_per_op"] = ratio(float64(rec.Instrs), rops)
	v["hw.tlb_hit_ratio"] = ratio(float64(rec.TLB[0]), float64(rec.TLB[0]+rec.TLB[1]))
	v["hw.cache_hit_ratio"] = ratio(float64(rec.Cache[0]), float64(rec.Cache[0]+rec.Cache[1]))
	v["hw.tlb_flushes_per_op"] = ratio(float64(rec.TLB[2]), rops)
	v["backend.device_filter_pages"] = float64(rec.FilterPages)
	if rec.Digests > 0 {
		// Fleet worlds pulse once per round: Pulse itself in serve, the
		// verification Serve's single wave in migrate.
		v["rv.digests_per_pulse"] = ratio(float64(rec.Digests), float64(rec.Rounds))
	}

	d := tr.delta
	v["core.epoch_syncs_per_op"] = ratio(float64(d.Epoch.Syncs), ops)
	v["core.epoch_combined_per_op"] = ratio(float64(d.Epoch.CombinedSyncs), ops)
	v["core.epoch_elided_per_op"] = ratio(float64(d.Epoch.ElidedSyncs), ops)
	v["core.lockwait_ns_per_op"] = ratio(float64(d.LockNs), ops)
	v["core.lockwait_count_per_op"] = ratio(float64(d.LockAcq), ops)
	v["hw.instr_per_host_s"] = ratio(float64(d.Instrs), tr.elapsed)
	v["go.alloc_bytes_per_op"] = ratio(float64(d.AllocBytes), ops)
	v["go.gc_pause_ns_per_op"] = ratio(float64(d.GCPauseNs), ops)
	return v
}
