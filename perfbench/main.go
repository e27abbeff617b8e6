// Command perfbench is the repository benchmark. It boots a simulated
// world, drives it closed-loop from outside through the public
// functions of internal/fleet, internal/core and internal/libtyche, and
// reports end-to-end metrics (--trace 0) or per-layer metrics
// (--trace 1) on both clocks: host time and simulated cycles.
//
//	go run . --workload serve --seed 1 --seconds 10 --trace 0
//
// A human-readable report precedes the result; the last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics. The exit code is 1 when any correctness check
// fails, 2 on bad flags. See README.md for the workloads and metrics.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload  string
	seed      int64
	seconds   float64
	traced    bool
	spansOut  string
	recordOut string
}

// seqRounds is the sequential pass's length in rounds.
const seqRounds = 4

// result is one workload's outcome.
type result struct {
	wl        workload
	correct   bool
	attempted int
	failed    int
	problems  []string
	e2e       map[string]float64
	layer     map[string]float64
	rec       simRecord
	tailPct   float64
	tailN     int
	tailBy    int
	heap      float64      // live heap MiB at the end of the first window
	rates     [2][]float64 // ops per host second of each untraced and traced window
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var cfg config
	var trace int
	var cpuProf, memProf string
	fl.StringVar(&cfg.workload, "workload", "all", "workload: serve, share, batch, migrate or all")
	fl.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fl.Float64Var(&cfg.seconds, "seconds", 10, "host seconds measured per run")
	fl.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced windows")
	fl.StringVar(&cfg.spansOut, "spans", "", "write the first traced window's spans as Chrome trace JSON to this file")
	fl.StringVar(&cfg.recordOut, "record", "", "write the simulated-clock record as JSON to this file")
	fl.StringVar(&cpuProf, "cpuprofile", "", "write a CPU profile of the whole run to this file")
	fl.StringVar(&memProf, "memprofile", "", "write a heap profile (allocations over the whole run) to this file at exit")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 || cfg.seconds <= 0 || fl.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: need --trace 0|1, --seconds > 0 and no positional arguments")
		return 2
	}
	cfg.traced = trace == 1
	var wls []workload
	if cfg.workload == "all" {
		wls = workloads
	} else if wl, ok := findWorkload(cfg.workload); ok {
		wls = []workload{wl}
	} else {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", cfg.workload)
		return 2
	}

	if cpuProf != "" {
		f, err := os.Create(cpuProf)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(stderr, "perfbench: cpu profile:", err)
			}
		}()
	}

	fp := fingerprint(cfg.seed)
	fmt.Fprintf(stdout, "host %s\n", fp)
	code := 0
	var records []simRecord
	for _, wl := range wls {
		res, err := runWorkload(wl, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
			return 1
		}
		records = append(records, res.rec)
		printReport(stdout, res)
		line, err := json.Marshal(outcome(res, cfg.traced))
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
		if !res.correct {
			code = 1
		}
	}
	if cfg.recordOut != "" {
		if err := writeJSON(cfg.recordOut, map[string]any{"host": fp, "records": records}); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	if memProf != "" {
		runtime.GC()
		f, err := os.Create(memProf)
		if err == nil {
			err = pprof.WriteHeapProfile(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	return code
}

// runWorkload boots the workload's world twice and runs the sequential
// pass on each, checking that their records match; then, for
// cfg.seconds, it runs timed windows, each on a fresh boot: untraced,
// or with --trace 1 alternately untraced and traced. setup_s is the
// median over every boot.
func runWorkload(wl workload, cfg config) (*result, error) {
	res := &result{wl: wl, correct: true}
	fail := func(format string, a ...any) {
		res.correct = false
		res.problems = append(res.problems, fmt.Sprintf(format, a...))
	}
	var setupS []float64
	boot := func() (world, []*client, error) {
		runtime.GC()
		t0 := time.Now()
		w, err := wl.setup(cfg.seed)
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, since(t0))
		cls := make([]*client, wl.clients)
		for i := range cls {
			cls[i] = newClient(i, cfg.seed)
		}
		return w, cls, nil
	}

	var seq *phase
	var recs [2][]byte
	for i := range recs {
		w, cls, err := boot()
		if err != nil {
			return nil, err
		}
		p := drive(wl, w, cls, driveOpts{rounds: seqRounds, seq: true, traced: true})
		res.account(p)
		if p.err != nil {
			fail("sequential pass: %v", p.err)
			return res, nil
		}
		if err := w.finish(); err != nil {
			fail("sequential pass checks: %v", err)
		}
		rec := newSimRecord(wl, cfg.seed, p, w.probe().deviceFilterPages())
		recs[i], _ = json.Marshal(rec)
		if i == 0 {
			seq, res.rec = p, rec
		}
	}
	if !bytes.Equal(recs[0], recs[1]) {
		fail("simulated-clock records differ between two passes with seed %d:\n  %s\n  %s", cfg.seed, recs[0], recs[1])
	}

	// Windows alternate untraced (kind 0) and traced (kind 1) with
	// --trace 1; at least one of each kind runs.
	var sums [2]phase
	minWindows := 1
	if cfg.traced {
		minWindows = 2
	}
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for k := 0; k < minWindows || time.Now().Before(deadline); k++ {
		kind := 0
		if cfg.traced {
			kind = k % 2
		}
		w, cls, err := boot()
		if err != nil {
			return nil, err
		}
		p := drive(wl, w, cls, driveOpts{rounds: wl.warmRounds})
		res.account(p)
		if p.err != nil {
			fail("window %d warm-up: %v", k, p.err)
			return res, nil
		}
		runtime.GC() // every window's timed rounds start from a collected heap
		p = drive(wl, w, cls, driveOpts{rounds: wl.windowRounds, traced: kind == 1})
		res.account(p)
		if p.err != nil {
			fail("window %d: %v", k, p.err)
			return res, nil
		}
		if k == 0 {
			// The live heap after a fixed amount of work on one world.
			res.heap = liveHeapMiB()
		}
		if err := w.finish(); err != nil {
			fail("window %d checks: %v", k, err)
			return res, nil
		}
		sums[kind].add(p)
		res.rates[kind] = append(res.rates[kind], ratio(float64(p.ops), p.elapsed))
	}

	un := &sums[0]
	lat := sortedCopy(un.lat)
	pct, t, beyond := tail(lat)
	res.tailPct, res.tailN, res.tailBy = pct, len(lat), beyond
	res.e2e = map[string]float64{
		"ops_per_s":         median(res.rates[0]),
		"lat_p50_us":        float64(percentile(lat, 50)) / 1e3,
		"lat_tail_us":       float64(t) / 1e3,
		"fail_ratio":        ratio(float64(res.failed), float64(res.attempted)),
		"sim_cycles_per_op": ratio(float64(res.rec.Cycles), float64(res.rec.Ops)),
		"setup_s":           median(setupS),
		"heap_mb":           res.heap,
	}
	if cfg.traced {
		tr := &sums[1]
		res.layer = layerValues(wl, seq, res.rec, tr)
		res.layer["trace_overhead_pct"] = 100 * (ratio(median(res.rates[0]), median(res.rates[1])) - 1)
		if cfg.spansOut != "" {
			if err := writeChromeTrace(cfg.spansOut, tr.bufs); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// account adds a phase's attempts and failures to the run's totals.
func (r *result) account(p *phase) {
	r.attempted += p.attempted
	r.failed += p.failed
}

// outcome is the result line: end-to-end metrics untraced, per-layer
// metrics traced, each with its unit.
func outcome(res *result, traced bool) map[string]any {
	defs, vals := endToEnd, res.e2e
	if traced {
		defs, vals = perLayer, res.layer
	}
	metrics := make(map[string]any, len(defs))
	for _, d := range defs {
		if v, ok := vals[d.name]; ok {
			metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
		}
	}
	return map[string]any{
		"correct":   res.correct,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	}
}

func printReport(w io.Writer, res *result) {
	fmt.Fprintf(w, "== %s (%d clients, closed loop): %s\n", res.wl.name, res.wl.clients, res.wl.why)
	for _, p := range res.problems {
		fmt.Fprintf(w, "FAIL %s\n", p)
	}
	line := func(name string, v float64, unit string) { fmt.Fprintf(w, "  %-40s %16.6g %s\n", name, v, unit) }
	if res.e2e != nil {
		for _, d := range endToEnd {
			line(d.name, res.e2e[d.name], d.unit)
		}
		for _, d := range reportedOnly {
			line(d.name, res.e2e[d.name], d.unit)
		}
		fmt.Fprintf(w, "  lat_tail_us is p%g of %d calls, %d samples beyond it; %d of %d operations failed\n",
			res.tailPct, res.tailN, res.tailBy, res.failed, res.attempted)
		fmt.Fprintf(w, "  timed windows, each %d rounds after %d warm-up rounds on a fresh boot:\n", res.wl.windowRounds, res.wl.warmRounds)
		for kind, name := range []string{"untraced", "traced"} {
			if r := res.rates[kind]; len(r) > 0 {
				fmt.Fprintf(w, "    %d %s, ops/s per window %.6g\n", len(r), name, r)
			}
		}
	}
	if res.layer != nil {
		for _, d := range perLayer {
			line(d.name, res.layer[d.name], d.unit)
		}
	}
	rec, _ := json.Marshal(res.rec)
	fmt.Fprintf(w, "  sim-record sha256=%x %s\n", sha256.Sum256(rec), rec)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// host is the fingerprint printed and recorded with every result.
type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	// Tree digests the repository's Go sources, identifying the code
	// where no version-control stamp exists.
	Tree string `json:"source_tree_sha256"`
	Seed int64  `json:"seed"`
}

func (h host) String() string {
	b, _ := json.Marshal(h)
	return string(b)
}

func fingerprint(seed int64) host {
	h := host{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: "unknown", Commit: "unknown", Seed: seed,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+modified"
				}
			}
		}
		if rev != "" {
			h.Commit = rev + dirty
		}
	}
	h.Tree = sourceDigest()
	return h
}

// sourceDigest hashes every go.mod and .go file under the module root
// (the parent of the benchmark's working directory when run from the
// repository root), skipping hidden directories such as build output.
func sourceDigest() string {
	var files []string
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
