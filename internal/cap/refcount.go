package cap

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"github.com/tyche-sim/tyche/internal/phys"
)

// RegionCount is one entry of the system-wide reference-count view: a
// maximal physical region accessed by exactly the listed set of owners.
// This is Figure 4 of the paper: "domain-to-regions mappings and regions
// reference counts". The count is the number of *distinct domains* with
// effective access — the quantity verifiers use to judge controlled
// sharing ("exclusively owned (ref. count 1)" / "shared among themselves
// (ref. count 2)", §3.1).
type RegionCount struct {
	Region phys.Region
	Count  int
	Owners []OwnerID // sorted
}

func (rc RegionCount) String() string {
	parts := make([]string, len(rc.Owners))
	for i, o := range rc.Owners {
		parts[i] = fmt.Sprintf("d%d", o)
	}
	return fmt.Sprintf("%v refs=%d {%s}", rc.Region, rc.Count, strings.Join(parts, ","))
}

// RefCounts computes the memory reference-count map: maximal regions with
// a constant owner set, in address order. Regions with no owner are
// omitted.
func (s *Space) RefCounts() []RegionCount {
	s.mu.RLock()
	defer s.mu.RUnlock()
	defer s.rlockAll()()
	return s.refCounts()
}

// refCounts requires the sweep lock (all shards) or the structural
// writer lock.
func (s *Space) refCounts() []RegionCount {
	type event struct {
		at    phys.Addr
		owner OwnerID
		delta int // +1 opens the owner's run, -1 closes it
	}
	var events []event
	// Per-owner union of effective coverage (a single owner holding two
	// overlapping capabilities still counts once).
	s.eachOwner(func(o OwnerID, nodes []*node) {
		var regs []phys.Region
		for _, n := range nodes {
			regs = appendEffective(regs, n)
		}
		for _, r := range phys.NormalizeRegions(regs) {
			events = append(events, event{r.Start, o, 1}, event{r.End, o, -1})
		}
	})
	if len(events) == 0 {
		return nil
	}
	slices.SortFunc(events, func(a, b event) int {
		if a.at != b.at {
			return cmp.Compare(a.at, b.at)
		}
		// Close before open at the same address so adjacency is exact.
		return cmp.Compare(a.delta, b.delta)
	})
	active := make(map[OwnerID]bool)
	var out []RegionCount
	var prev phys.Addr
	flush := func(upto phys.Addr) {
		if len(active) == 0 || upto <= prev {
			return
		}
		owners := make([]OwnerID, 0, len(active))
		for o := range active {
			owners = append(owners, o)
		}
		slices.Sort(owners)
		seg := RegionCount{Region: phys.Region{Start: prev, End: upto}, Count: len(owners), Owners: owners}
		if n := len(out); n > 0 && out[n-1].Region.End == seg.Region.Start && slices.Equal(out[n-1].Owners, owners) {
			out[n-1].Region.End = seg.Region.End
			return
		}
		out = append(out, seg)
	}
	for _, e := range events {
		flush(e.at)
		prev = e.at
		if e.delta > 0 {
			active[e.owner] = true
		} else {
			delete(active, e.owner)
		}
	}
	return out
}

// RefCountAt returns the number of distinct owners with effective access
// at address a.
func (s *Space) RefCountAt(a phys.Addr) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	defer s.rlockAll()()
	count := 0
	s.eachOwner(func(_ OwnerID, nodes []*node) {
		for _, n := range nodes {
			if effectiveContains(n, a) {
				count++
				return
			}
		}
	})
	return count
}

// RegionRefCount returns the maximum reference count over any byte of r
// (the conservative value a verifier uses: exclusive ownership requires
// the max to be 1).
func (s *Space) RegionRefCount(r phys.Region) int {
	max := 0
	for _, rc := range s.RefCounts() {
		if rc.Region.Overlaps(r) && rc.Count > max {
			max = rc.Count
		}
	}
	return max
}

// CoreRefCount returns the number of distinct owners holding RightRun on
// core.
func (s *Space) CoreRefCount(core phys.CoreID) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	defer s.rlockAll()()
	count := 0
	s.eachOwner(func(_ OwnerID, nodes []*node) {
		for _, n := range nodes {
			if n.res.Kind == ResCore && n.res.Core == core && n.rights.Has(RightRun) && !grantedAway(n) {
				count++
				return
			}
		}
	})
	return count
}

// DeviceRefCount returns the number of distinct owners holding RightUse
// on dev.
func (s *Space) DeviceRefCount(dev phys.DeviceID) int {
	return len(s.deviceHolders(dev, RightUse))
}

// DeviceDMAHolders returns the owners with live (not granted-away) DMA
// rights on dev, sorted. The backends build the device's IOMMU context
// from exactly this set.
func (s *Space) DeviceDMAHolders(dev phys.DeviceID) []OwnerID {
	return s.deviceHolders(dev, RightDMA)
}

// DeviceUsers returns the owners with live RightUse on dev, sorted. The
// monitor routes the device's interrupts to this set.
func (s *Space) DeviceUsers(dev phys.DeviceID) []OwnerID {
	return s.deviceHolders(dev, RightUse)
}

// deviceHolders returns owners holding `want` on dev through a node
// whose device has not been granted away.
func (s *Space) deviceHolders(dev phys.DeviceID, want Rights) []OwnerID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	defer s.rlockAll()()
	out := []OwnerID{}
	s.eachOwner(func(o OwnerID, nodes []*node) {
		for _, n := range nodes {
			if n.res.Kind == ResDevice && n.res.Device == dev && n.rights.Has(want) && !grantedAway(n) {
				out = append(out, o)
				return
			}
		}
	})
	slices.Sort(out)
	return out
}
