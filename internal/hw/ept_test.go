package hw

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/tyche-sim/tyche/internal/phys"
)

// refRuns folds a per-page reference map into maximal equal-permission
// runs, the form Mappings must return.
func refRuns(ref map[uint64]Perm, pages uint64) []Extent {
	var out []Extent
	for pg := uint64(0); pg < pages; pg++ {
		start := phys.Addr(pg << phys.PageShift)
		out = appendExtent(out, Extent{phys.Region{Start: start, End: start + phys.PageSize}, ref[pg]})
	}
	return out
}

// TestEPTModel drives random Map/Unmap/Clear/Replace sequences against
// a per-page reference map: Lookup, Mappings and MappedPages must agree
// with it after every call, and every mutating call must bump the
// generation exactly once.
func TestEPTModel(t *testing.T) {
	const pages = 64
	perms := []Perm{PermNone, PermR, PermRW, PermRX, PermRWX, PermW}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEPT()
		ref := map[uint64]Perm{}
		randRegion := func() phys.Region {
			start := uint64(rng.Intn(pages))
			n := uint64(rng.Intn(pages-int(start))) + 1
			return phys.MakeRegion(phys.Addr(start<<phys.PageShift), n*phys.PageSize)
		}
		for step := 0; step < 300; step++ {
			gen := e.Generation()
			switch rng.Intn(10) {
			case 0:
				e.Clear()
				clear(ref)
			case 1, 2:
				r := randRegion()
				if err := e.Unmap(r); err != nil {
					t.Fatal(err)
				}
				for pg := r.Start.Page(); pg < r.End.Page(); pg++ {
					delete(ref, pg)
				}
			case 3, 4:
				// A whole new table: ascending, disjoint, some runs
				// touching with equal permissions (Replace merges them).
				var ext []Extent
				clear(ref)
				for pg := uint64(rng.Intn(4)); pg < pages; {
					n := uint64(rng.Intn(6)) + 1
					if pg+n > pages {
						n = pages - pg
					}
					p := perms[rng.Intn(len(perms))]
					ext = append(ext, Extent{phys.MakeRegion(phys.Addr(pg<<phys.PageShift), n*phys.PageSize), p})
					for i := pg; i < pg+n; i++ {
						if p != PermNone {
							ref[i] = p
						}
					}
					pg += n + uint64(rng.Intn(2))
				}
				n, err := e.Replace(ext)
				if err != nil {
					t.Fatal(err)
				}
				if n != len(ref) {
					t.Fatalf("seed %d step %d: Replace reports %d pages, want %d", seed, step, n, len(ref))
				}
			default:
				r, p := randRegion(), perms[rng.Intn(len(perms))]
				if err := e.Map(r, p); err != nil {
					t.Fatal(err)
				}
				for pg := r.Start.Page(); pg < r.End.Page(); pg++ {
					if p == PermNone {
						delete(ref, pg)
					} else {
						ref[pg] = p
					}
				}
			}
			if got := e.Generation(); got != gen+1 {
				t.Fatalf("seed %d step %d: generation %d -> %d, want one bump", seed, step, gen, got)
			}
			for pg := uint64(0); pg <= pages; pg++ {
				a := phys.Addr(pg<<phys.PageShift) + phys.Addr(rng.Intn(int(phys.PageSize)))
				if got := e.Lookup(a); got != ref[pg] {
					t.Fatalf("seed %d step %d: Lookup(%#x) = %v, want %v", seed, step, uint64(a), got, ref[pg])
				}
			}
			if got, want := e.Mappings(), refRuns(ref, pages); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: Mappings = %v, want %v", seed, step, got, want)
			}
			if got := e.MappedPages(); got != len(ref) {
				t.Fatalf("seed %d step %d: MappedPages = %d, want %d", seed, step, got, len(ref))
			}
		}
	}
}

// TestEPTReplaceRejects: Replace validates the whole table before
// publishing, and a rejected table leaves the old one in force.
func TestEPTReplaceRejects(t *testing.T) {
	e := NewEPT()
	if _, err := e.Replace([]Extent{{phys.MakeRegion(0, phys.PageSize), PermR}}); err != nil {
		t.Fatal(err)
	}
	gen := e.Generation()
	for name, ext := range map[string][]Extent{
		"unaligned": {{phys.Region{Start: 0x100, End: 0x1000}, PermR}},
		"empty":     {{phys.Region{Start: 0x1000, End: 0x1000}, PermR}},
		"overlap":   {{phys.MakeRegion(0, 2*phys.PageSize), PermR}, {phys.MakeRegion(phys.PageSize, phys.PageSize), PermW}},
		"unsorted":  {{phys.MakeRegion(phys.PageSize, phys.PageSize), PermR}, {phys.MakeRegion(0, phys.PageSize), PermW}},
	} {
		if _, err := e.Replace(ext); err == nil {
			t.Errorf("%s: Replace accepted %v", name, ext)
		}
	}
	if e.Generation() != gen || e.Lookup(0) != PermR {
		t.Fatal("a rejected Replace changed the table")
	}
}

// TestEPTLookupAllocs pins the reader path at zero allocations.
func TestEPTLookupAllocs(t *testing.T) {
	e := eptWithRuns(64)
	if n := testing.AllocsPerRun(1000, func() { _ = e.Lookup(0x5000) }); n != 0 {
		t.Fatalf("Lookup allocates %v times per call", n)
	}
}

// TestEPTReplaceNeverTorn: readers spin on an address mapped in both
// the old and the new table while a writer republishes the table; a
// reader must never observe PermNone. Run it under -race.
func TestEPTReplaceNeverTorn(t *testing.T) {
	const probe = phys.Addr(3 * phys.PageSize)
	tables := [2][]Extent{
		{{phys.MakeRegion(0, 8*phys.PageSize), PermRW}},
		{{phys.MakeRegion(0, 2*phys.PageSize), PermR}, {phys.MakeRegion(2*phys.PageSize, 4*phys.PageSize), PermRX}},
	}
	e := NewEPT()
	if _, err := e.Replace(tables[0]); err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var torn atomic.Uint64
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if e.Lookup(probe) == PermNone {
					torn.Add(1)
				}
			}
		}()
	}
	for i := 0; i < 20000; i++ {
		if _, err := e.Replace(tables[i%2]); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if n := torn.Load(); n != 0 {
		t.Fatalf("readers saw PermNone %d times during Replace", n)
	}
}

// eptWithRuns builds an EPT of n alternating-permission one-page runs.
func eptWithRuns(n int) *EPT {
	var ext []Extent
	for i := 0; i < n; i++ {
		p := PermR
		if i%2 == 1 {
			p = PermRW
		}
		ext = append(ext, Extent{phys.MakeRegion(phys.Addr(i)*phys.PageSize, phys.PageSize), p})
	}
	e := NewEPT()
	if _, err := e.Replace(ext); err != nil {
		panic(err)
	}
	return e
}

// permSink keeps benchmarked lookups from being optimised away.
var permSink Perm

// BenchmarkEPTLookup measures the lock-free reader path (CI pins it at
// 0 allocs/op).
func BenchmarkEPTLookup(b *testing.B) {
	e := eptWithRuns(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		permSink = e.Lookup(phys.Addr(i%64) * phys.PageSize)
	}
}

// TestPMPReprogram: the swap clears every unlocked entry and writes the
// new layout in one step, reports the cleared count, and validates the
// whole layout before touching the register file.
func TestPMPReprogram(t *testing.T) {
	p := NewPMP(4)
	mon := phys.MakeRegion(0x10000, phys.PageSize)
	if err := p.Program(0, mon, PermNone); err != nil {
		t.Fatal(err)
	}
	if err := p.Lock(0); err != nil {
		t.Fatal(err)
	}
	first := []Extent{{phys.MakeRegion(0, phys.PageSize), PermR}, {phys.MakeRegion(phys.PageSize, phys.PageSize), PermRW}}
	if n, err := p.Reprogram(1, first); err != nil || n != 0 {
		t.Fatalf("Reprogram = %d, %v; want 0 cleared", n, err)
	}
	second := []Extent{{phys.MakeRegion(2*phys.PageSize, phys.PageSize), PermRX}}
	if n, err := p.Reprogram(1, second); err != nil || n != 2 {
		t.Fatalf("Reprogram = %d, %v; want 2 cleared", n, err)
	}
	if p.Lookup(0) != PermNone || p.Lookup(2*phys.PageSize) != PermRX || p.Lookup(mon.Start) != PermNone {
		t.Fatalf("register file after swap: %v", p.Entries())
	}
	if !p.Entries()[0].Locked {
		t.Fatal("locked monitor entry was cleared")
	}
	before, gen := p.Entries(), p.Generation()
	for name, bad := range map[string]struct {
		first int
		ext   []Extent
	}{
		"locked":       {0, second},
		"out of range": {3, first},
		"unaligned":    {1, []Extent{{phys.Region{Start: 0x10, End: 0x20}, PermR}}},
	} {
		if _, err := p.Reprogram(bad.first, bad.ext); err == nil {
			t.Errorf("%s: Reprogram accepted", name)
		}
	}
	if !slices.Equal(p.Entries(), before) || p.Generation() != gen {
		t.Fatal("a rejected Reprogram changed the register file")
	}
	if n := p.ClearAll(); n != 1 || p.Lookup(2*phys.PageSize) != PermNone {
		t.Fatalf("ClearAll = %d", n)
	}
}
