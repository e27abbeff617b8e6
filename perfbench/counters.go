package main

import (
	"reflect"
	"runtime"

	"github.com/tyche-sim/tyche/internal/core"
	"github.com/tyche-sim/tyche/internal/hw"
)

// counters is one reading of everything the program already exposes,
// summed over a world's machines and monitors.
type counters struct {
	Cycles  uint64 // simulated cycles, all machine clocks
	Instrs  uint64 // retired guest instructions, all cores
	Stats   core.Stats
	Epoch   core.EpochStats
	LockNs  uint64
	LockAcq uint64

	TLBHits, TLBMisses, TLBFlushes       uint64
	CacheHits, CacheMisses, CacheFlushed uint64
	Digests                              uint64 // rv digests shipped
	Blackouts                            int    // fleet migrations completed

	AllocBytes uint64 // Go heap bytes allocated, cumulative
	GCPauseNs  uint64
}

func (p probe) cycles() uint64 {
	var c uint64
	for _, m := range p.machs {
		c += m.Clock.Cycles()
	}
	return c
}

// read takes a reading; the Go allocator counters stop the world to
// read, so it runs only at phase boundaries.
func (p probe) read() counters {
	var c counters
	c.Cycles = p.cycles()
	for _, m := range p.machs {
		for _, cpu := range m.Cores {
			c.Instrs += cpu.InstrCount()
			h, mi, f := cpu.TLBUnit().Stats()
			c.TLBHits, c.TLBMisses, c.TLBFlushes = c.TLBHits+h, c.TLBMisses+mi, c.TLBFlushes+f
			h, mi, f = cpu.CacheUnit().Stats()
			c.CacheHits, c.CacheMisses, c.CacheFlushed = c.CacheHits+h, c.CacheMisses+mi, c.CacheFlushed+f
		}
	}
	for _, m := range p.mons {
		c.add(counters{Stats: m.Stats(), Epoch: m.EpochStats()})
		ns, acq := m.LockWait()
		c.LockNs += uint64(ns.Nanoseconds())
		c.LockAcq += acq
	}
	for _, s := range p.rvs {
		c.Digests += s.Shipped()
	}
	if p.fleet != nil {
		c.Blackouts = len(p.fleet.Blackouts())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.AllocBytes, c.GCPauseNs = ms.TotalAlloc, ms.PauseTotalNs
	return c
}

// deviceFilterPages counts the pages mapped in every device's IOMMU
// filter: the working set a revoke-time device resync rebuilds.
func (p probe) deviceFilterPages() int {
	pages := 0
	for _, m := range p.machs {
		for _, d := range m.DeviceIDs() {
			if e, ok := m.IOMMU.ContextOf(d).(*hw.EPT); ok {
				pages += e.MappedPages()
			}
		}
	}
	return pages
}

// add adds every counter of d into c.
func (c *counters) add(d counters) { combine(reflect.ValueOf(c).Elem(), reflect.ValueOf(d), false) }

// sub subtracts every counter of d from c.
func (c *counters) sub(d counters) { combine(reflect.ValueOf(c).Elem(), reflect.ValueOf(d), true) }

// combine adds (or subtracts) every uint64 and int field of src into
// dst, descending into nested structs, so counters, core.Stats and
// core.EpochStats sum and difference without listing their fields here.
func combine(dst, src reflect.Value, neg bool) {
	for i := 0; i < src.NumField(); i++ {
		d, s := dst.Field(i), src.Field(i)
		switch s.Kind() {
		case reflect.Uint64:
			if neg {
				d.SetUint(d.Uint() - s.Uint())
			} else {
				d.SetUint(d.Uint() + s.Uint())
			}
		case reflect.Int:
			if neg {
				d.SetInt(d.Int() - s.Int())
			} else {
				d.SetInt(d.Int() + s.Int())
			}
		case reflect.Struct:
			combine(d, s, neg)
		}
	}
}

// uintFields maps every uint64 field name of the struct v to its value.
func uintFields(v any) map[string]uint64 {
	r := reflect.ValueOf(v)
	out := make(map[string]uint64)
	for i := 0; i < r.NumField(); i++ {
		if r.Field(i).Kind() == reflect.Uint64 {
			out[r.Type().Field(i).Name] = r.Field(i).Uint()
		}
	}
	return out
}

// simRecord is the simulated-clock record of a sequential pass: exact
// counts that two runs with the same seed, or two commits that change
// only host-side code, must reproduce bit for bit.
type simRecord struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Calls    int               `json:"calls"`
	Ops      int               `json:"ops"`
	Rounds   int               `json:"rounds"`
	Cycles   uint64            `json:"cycles"`
	Instrs   uint64            `json:"instructions"`
	Stats    map[string]uint64 `json:"stats"`
	Epoch    map[string]uint64 `json:"epoch"`
	TLB      [3]uint64         `json:"tlb_hits_misses_flushes"`
	Cache    [3]uint64         `json:"cache_hits_misses_flushed"`
	Digests  uint64            `json:"rv_digests"`
	// FilterPages is the device-filter working set after the pass.
	FilterPages int `json:"device_filter_pages"`
}

func newSimRecord(wl workload, seed int64, p *phase, filterPages int) simRecord {
	d := p.delta
	return simRecord{
		Workload: wl.name, Seed: seed, Calls: p.calls, Ops: p.ops, Rounds: p.rounds,
		Cycles: d.Cycles, Instrs: d.Instrs,
		Stats: uintFields(d.Stats), Epoch: uintFields(d.Epoch),
		TLB:     [3]uint64{d.TLBHits, d.TLBMisses, d.TLBFlushes},
		Cache:   [3]uint64{d.CacheHits, d.CacheMisses, d.CacheFlushed},
		Digests: d.Digests, FilterPages: filterPages,
	}
}
