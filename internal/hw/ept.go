package hw

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/tyche-sim/tyche/internal/phys"
)

// Extent is one contiguous run of identically permissioned memory: the
// unit both backends program (EPT tables, PMP entries).
type Extent struct {
	Region phys.Region
	Perm   Perm
}

// appendExtent appends x to a sorted extent list, merging it into the
// last extent when the two touch with equal permissions. PermNone and
// empty extents are dropped.
func appendExtent(out []Extent, x Extent) []Extent {
	if x.Perm == PermNone || x.Region.Empty() {
		return out
	}
	if n := len(out); n > 0 && out[n-1].Region.End == x.Region.Start && out[n-1].Perm == x.Perm {
		out[n-1].Region.End = x.Region.End
		return out
	}
	return append(out, x)
}

// eptTable is one immutable version of an EPT: sorted, disjoint,
// maximally merged extents plus their page total.
type eptTable struct {
	ext   []Extent
	pages int
}

// EPT models a second-level (nested) page table: the per-domain
// access-control structure a VT-x backend programs, page-granular and
// identity-translating, so purely an access filter (§3.3).
//
// Cores walk the EPT while the monitor rebuilds it on another core, so
// the table is an immutable extent list published copy-on-write:
// readers binary-search whichever version they load, lock-free; writers
// serialise on mu, store the next version, then bump the generation
// once. The store precedes the bump, so a TLB entry stamped with the
// new generation was always filled from the new table.
type EPT struct {
	mu  sync.Mutex // serialises writers
	tab atomic.Pointer[eptTable]
	gen atomic.Uint64
}

// NewEPT returns an empty EPT denying all access.
func NewEPT() *EPT {
	e := &EPT{}
	e.tab.Store(&eptTable{})
	return e
}

// Check implements AccessFilter.
func (e *EPT) Check(a phys.Addr, want Perm) bool {
	return e.Lookup(a).Allows(want)
}

// Lookup implements AccessFilter: a binary search of the current table.
func (e *EPT) Lookup(a phys.Addr) Perm {
	ext := e.tab.Load().ext
	lo, hi := 0, len(ext)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ext[mid].Region.End <= a {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ext) && ext[lo].Region.Start <= a {
		return ext[lo].Perm
	}
	return PermNone
}

// Generation implements AccessFilter.
func (e *EPT) Generation() uint64 { return e.gen.Load() }

// publish installs ext as the current table (writer mutex held): one
// pointer store, then one generation bump. Returns the mapped pages.
func (e *EPT) publish(ext []Extent) int {
	t := &eptTable{ext: ext}
	for _, x := range ext {
		t.pages += int(x.Region.Pages())
	}
	e.tab.Store(t)
	e.gen.Add(1)
	return t.pages
}

// Map sets the permission for every page of region r, replacing any
// previous permission. r must be page-aligned.
func (e *EPT) Map(r phys.Region, p Perm) error {
	if err := r.Validate(); err != nil {
		return fmt.Errorf("hw: ept map: %w", err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	old := e.tab.Load().ext
	var out []Extent
	for _, x := range old {
		if x.Region.Start < r.Start {
			out = appendExtent(out, Extent{phys.Region{Start: x.Region.Start, End: min(x.Region.End, r.Start)}, x.Perm})
		}
	}
	out = appendExtent(out, Extent{r, p})
	for _, x := range old {
		if x.Region.End > r.End {
			out = appendExtent(out, Extent{phys.Region{Start: max(x.Region.Start, r.End), End: x.Region.End}, x.Perm})
		}
	}
	e.publish(out)
	return nil
}

// Unmap removes all permissions for region r.
func (e *EPT) Unmap(r phys.Region) error { return e.Map(r, PermNone) }

// Clear removes every mapping.
func (e *EPT) Clear() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.publish(nil)
}

// Replace publishes ext as the whole table in one store with one
// generation bump, so a concurrent reader sees the previous table or
// this one, never a mix or an empty interval, and returns the pages it
// maps. ext must be ascending, non-overlapping and page-aligned; it is
// copied, dropping PermNone extents and merging touching equal ones.
func (e *EPT) Replace(ext []Extent) (int, error) {
	var out []Extent
	for i, x := range ext {
		if err := x.Region.Validate(); err != nil {
			return 0, fmt.Errorf("hw: ept replace: %w", err)
		}
		if i > 0 && x.Region.Start < ext[i-1].Region.End {
			return 0, fmt.Errorf("hw: ept replace: %v overlaps or precedes %v", x, ext[i-1])
		}
		out = appendExtent(out, x)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.publish(out), nil
}

// MappedPages returns the number of pages with any permission.
func (e *EPT) MappedPages() int { return e.tab.Load().pages }

// Mappings returns a copy of the table: maximal runs of identically
// permissioned pages in address order, nil when empty.
func (e *EPT) Mappings() []Extent { return slices.Clone(e.tab.Load().ext) }
