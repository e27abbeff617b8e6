package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestSelf runs every workload briefly with tracing and checks that each
// end-to-end and per-layer metric is emitted with its unit, every
// correctness check passes, and the result line has the contract's
// shape in both modes.
func TestSelf(t *testing.T) {
	cfg := config{seed: 3, seconds: 4, traced: true}
	if testing.Short() {
		cfg.seconds = 0.1
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			res, err := runWorkload(wl, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct || res.failed != 0 || res.attempted < 1 {
				t.Fatalf("correct=%v failed=%d attempted=%d problems=%v", res.correct, res.failed, res.attempted, res.problems)
			}
			for _, traced := range []bool{false, true} {
				b, err := json.Marshal(outcome(res, traced))
				if err != nil {
					t.Fatal(err)
				}
				var line struct {
					Correct   *bool `json:"correct"`
					Attempted *int  `json:"attempted"`
					Failed    *int  `json:"failed"`
					Metrics   map[string]struct {
						Value *float64 `json:"value"`
						Unit  string   `json:"unit"`
					} `json:"metrics"`
				}
				dec := json.NewDecoder(bytes.NewReader(b))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&line); err != nil {
					t.Fatalf("result line %s: %v", b, err)
				}
				if line.Correct == nil || line.Attempted == nil || line.Failed == nil {
					t.Fatalf("result line lacks a key: %s", b)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(line.Metrics) != len(defs) {
					t.Errorf("trace=%v: %d metrics, want %d", traced, len(line.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := line.Metrics[d.name]
					if !ok || m.Value == nil || m.Unit != d.unit {
						t.Errorf("trace=%v: metric %s = %+v, want a value in %s", traced, d.name, m, d.unit)
					}
				}
			}
			for _, d := range append(endToEnd, reportedOnly[:2]...) {
				if res.e2e[d.name] <= 0 {
					t.Errorf("%s = %v, want > 0", d.name, res.e2e[d.name])
				}
			}
			var report strings.Builder
			printReport(&report, res)
			for _, want := range []string{"lat_tail_us ", "fail_ratio ", "lat_tail_us is p", "sim-record sha256="} {
				if !strings.Contains(report.String(), want) {
					t.Errorf("report lacks %q:\n%s", want, report.String())
				}
			}
		})
	}
}

// TestDeclaration holds BENCHMARK.json equal to the metric and workload
// lists the benchmark reports.
func TestDeclaration(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d declared %+v, implemented %s: %s", i, w, workloads[i].name, workloads[i].why)
		}
	}
	if len(decl.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d reported", len(decl.EndToEnd), len(endToEnd))
	}
	for i, m := range decl.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] declared %+v, reported %+v", i, m, d)
		}
	}
	if len(decl.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d reported", len(decl.PerLayer), len(perLayer))
	}
	for i, m := range decl.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] declared %+v, reported %+v", i, m, d)
		}
	}
}

func TestTail(t *testing.T) {
	for _, tc := range []struct {
		n      int
		pct    float64
		beyond int
	}{{5, 50, 2}, {100, 90, 10}, {999, 90, 99}, {1000, 99, 10}, {150000, 99.99, 15}} {
		xs := make([]int64, tc.n)
		for i := range xs {
			xs[i] = int64(i + 1)
		}
		pct, v, beyond := tail(xs)
		if pct != tc.pct || beyond != tc.beyond || v != xs[tc.n-beyond-1] {
			t.Errorf("n=%d: p%g value %d beyond %d, want p%g beyond %d", tc.n, pct, v, beyond, tc.pct, tc.beyond)
		}
	}
}
