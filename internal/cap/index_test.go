package cap

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"github.com/tyche-sim/tyche/internal/phys"
)

// The owner index is an acceleration structure: every owner-scoped
// query must answer exactly what a walk of the lineage forest from its
// roots answers. The reference below reaches nodes only through root
// IDs the test minted and the lineage links, never through the index.

const (
	ixPages   = 64
	ixCores   = 4
	ixDevices = 3
	ixOwners  = 6
)

// lineageRef is the index-free view of a Space: its live nodes, found
// by walking the lineage forest from the roots still present in the
// identity map.
type lineageRef struct {
	byOwner map[OwnerID][]*node // ID order
}

func walkLineage(s *Space, roots []NodeID) lineageRef {
	ref := lineageRef{byOwner: make(map[OwnerID][]*node)}
	var walk func(n *node)
	walk = func(n *node) {
		ref.byOwner[n.owner] = append(ref.byOwner[n.owner], n)
		for _, c := range n.children {
			if !c.detached {
				walk(c)
			}
		}
	}
	for _, id := range roots {
		if n, err := s.get(id); err == nil && !n.detached {
			walk(n)
		}
	}
	for _, nodes := range ref.byOwner {
		slices.SortFunc(nodes, func(a, b *node) int { return cmp.Compare(a.id, b.id) })
	}
	return ref
}

// refPages returns, per page of the world, whether n's effective memory
// covers it: its region minus every granted memory child, limbo
// children included (a grant suspension lasts until Release).
func refPages(n *node) [ixPages]bool {
	var in [ixPages]bool
	if n.res.Kind != ResMemory {
		return in
	}
	for p := n.res.Mem.Start.Page(); p < n.res.Mem.End.Page(); p++ {
		in[p] = true
	}
	for _, c := range n.children {
		if c.kind == KindGranted && c.res.Kind == ResMemory {
			for p := c.res.Mem.Start.Page(); p < c.res.Mem.End.Page(); p++ {
				in[p] = false
			}
		}
	}
	return in
}

// pageRuns turns a page set into maximal regions in address order.
func pageRuns(in [ixPages]bool) []phys.Region {
	var out []phys.Region
	for p := 0; p < ixPages; p++ {
		if !in[p] {
			continue
		}
		q := p
		for q < ixPages && in[q] {
			q++
		}
		out = append(out, phys.Region{Start: phys.Addr(p * pg), End: phys.Addr(q * pg)})
		p = q
	}
	return out
}

// refGrantedAway reports whether a core/device node has a granted child
// over the same resource, limbo children included.
func refGrantedAway(n *node) bool {
	for _, c := range n.children {
		if c.kind == KindGranted && c.res.Kind == n.res.Kind &&
			c.res.Core == n.res.Core && c.res.Device == n.res.Device {
			return true
		}
	}
	return false
}

func (ref lineageRef) nodes(o OwnerID) []Info {
	var out []Info
	for _, n := range ref.byOwner[o] {
		inf := Info{ID: n.id, Owner: n.owner, Resource: n.res, Rights: n.rights, Cleanup: n.cleanup, Kind: n.kind}
		if n.parent != nil {
			inf.Parent = n.parent.id
		}
		for _, c := range n.children {
			if !c.detached {
				inf.Children = append(inf.Children, c.id)
			}
		}
		slices.Sort(inf.Children)
		out = append(out, inf)
	}
	return out
}

func (ref lineageRef) memoryGrants(o OwnerID) []MemoryGrant {
	out := []MemoryGrant{}
	for _, n := range ref.byOwner[o] {
		for _, r := range pageRuns(refPages(n)) {
			out = append(out, MemoryGrant{Region: r, Rights: n.rights, Node: n.id})
		}
	}
	return out
}

func (ref lineageRef) memory(o OwnerID, want Rights) [ixPages]bool {
	var in [ixPages]bool
	for _, n := range ref.byOwner[o] {
		if !n.rights.Has(want) {
			continue
		}
		eff := refPages(n)
		for p := range in {
			in[p] = in[p] || eff[p]
		}
	}
	return in
}

func (ref lineageRef) cores(o OwnerID) []phys.CoreID {
	out := []phys.CoreID{}
	for _, n := range ref.byOwner[o] {
		if n.res.Kind == ResCore && n.rights.Has(RightRun) && !refGrantedAway(n) && !slices.Contains(out, n.res.Core) {
			out = append(out, n.res.Core)
		}
	}
	slices.Sort(out)
	return out
}

func (ref lineageRef) devices(o OwnerID, want Rights) []phys.DeviceID {
	out := []phys.DeviceID{}
	for _, n := range ref.byOwner[o] {
		if n.res.Kind == ResDevice && n.rights.Has(want) && !refGrantedAway(n) && !slices.Contains(out, n.res.Device) {
			out = append(out, n.res.Device)
		}
	}
	slices.Sort(out)
	return out
}

// checkIndex compares every owner-scoped query, and the sweeps built on
// the index, against the lineage walk.
func checkIndex(t *testing.T, s *Space, roots []NodeID, rng *rand.Rand, step string) {
	t.Helper()
	ref := walkLineage(s, roots)
	fail := func(what string, got, want any) {
		t.Helper()
		t.Fatalf("%s: %s:\n got  %v\n want %v\n%s", step, what, got, want, s.TreeString())
	}
	live := 0
	owners := []OwnerID{}
	for o := OwnerID(1); o <= ixOwners; o++ {
		live += len(ref.byOwner[o])
		if len(ref.byOwner[o]) > 0 {
			owners = append(owners, o)
		}
		if got, want := s.OwnerNodes(o), ref.nodes(o); !reflect.DeepEqual(got, want) {
			fail(fmt.Sprintf("OwnerNodes(%d)", o), got, want)
		}
		if got, want := append([]MemoryGrant{}, s.OwnerMemoryGrants(o)...), ref.memoryGrants(o); !reflect.DeepEqual(got, want) {
			fail(fmt.Sprintf("OwnerMemoryGrants(%d)", o), got, want)
		}
		for _, want := range []Rights{RightsNone, RightRead, MemRW, RightExec} {
			exp := ref.memory(o, want)
			if got, want := s.OwnerMemory(o, want), pageRuns(exp); !reflect.DeepEqual(got, want) {
				fail(fmt.Sprintf("OwnerMemory(%d)", o), got, want)
			}
			for i := 0; i < 6; i++ {
				p := rng.Intn(ixPages)
				a := phys.Addr(p*pg + rng.Intn(pg))
				if got := s.CheckMemAccess(o, a, want); got != exp[p] {
					fail(fmt.Sprintf("CheckMemAccess(%d, %v, %v)", o, a, want), got, exp[p])
				}
			}
		}
		if got, want := s.OwnerCores(o), ref.cores(o); !reflect.DeepEqual(got, want) {
			fail(fmt.Sprintf("OwnerCores(%d)", o), got, want)
		}
		if got, want := s.OwnerDevices(o), ref.devices(o, RightUse); !reflect.DeepEqual(got, want) {
			fail(fmt.Sprintf("OwnerDevices(%d)", o), got, want)
		}
		if got, want := s.DMADevices(o), ref.devices(o, RightDMA); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
			fail(fmt.Sprintf("DMADevices(%d)", o), got, want)
		}
	}
	for d := phys.DeviceID(0); d < ixDevices; d++ {
		want := []OwnerID{}
		for _, o := range owners {
			if slices.Contains(ref.devices(o, RightDMA), d) {
				want = append(want, o)
			}
		}
		if got := s.DeviceDMAHolders(d); !reflect.DeepEqual(got, want) {
			fail(fmt.Sprintf("DeviceDMAHolders(%v)", d), got, want)
		}
	}
	if got := s.Owners(); !reflect.DeepEqual(got, owners) {
		fail("Owners", got, owners)
	}
	if got := s.NumNodes(); got != live {
		fail("NumNodes", got, live)
	}
}

// indexHarness drives a random op stream over memory, core and device
// capabilities.
type indexHarness struct {
	s       *Space
	rng     *rand.Rand
	roots   []NodeID
	limbo   []*Detached // detached, awaiting Release
	release []*Detached // released, awaiting Reclaim
}

// boot mints a full set of root capabilities for a random owner.
func (h *indexHarness) boot() {
	o := OwnerID(h.rng.Intn(ixOwners) + 1)
	res := []Resource{mem(0, ixPages)}
	for c := 0; c < ixCores; c++ {
		res = append(res, CoreResource(phys.CoreID(c)))
	}
	for d := 0; d < ixDevices; d++ {
		res = append(res, DeviceResource(phys.DeviceID(d)))
	}
	for _, r := range res {
		if id, err := h.s.CreateRoot(o, r, r.ValidRights(), CleanNone); err == nil {
			h.roots = append(h.roots, id)
		}
	}
}

func (h *indexHarness) pick() *node {
	ref := walkLineage(h.s, h.roots)
	var all []*node
	for _, nodes := range ref.byOwner {
		all = append(all, nodes...)
	}
	if len(all) == 0 {
		return nil
	}
	slices.SortFunc(all, func(a, b *node) int { return cmp.Compare(a.id, b.id) })
	return all[h.rng.Intn(len(all))]
}

func (h *indexHarness) step() string {
	rng := h.rng
	owner := OwnerID(rng.Intn(ixOwners) + 1)
	switch op := rng.Intn(20); {
	case op < 9: // share or grant
		n := h.pick()
		if n == nil {
			h.boot()
			return "boot"
		}
		sub := n.res
		if sub.Kind == ResMemory {
			pages := sub.Mem.Pages()
			off := uint64(rng.Int63n(int64(pages)))
			sub = MemResource(phys.MakeRegion(sub.Mem.Start+phys.Addr(off*pg), (uint64(rng.Int63n(int64(pages-off)))+1)*pg))
		}
		rights := n.rights &^ Rights(rng.Intn(1<<8))
		if rng.Intn(3) > 0 {
			rights = n.rights // keep the delegation rights most of the time
		}
		clean := Cleanup(rng.Intn(2))
		if op < 5 {
			_, err := h.s.Share(n.id, owner, sub, rights, clean)
			return fmt.Sprintf("share n%d -> d%d %v [%v]: %v", n.id, owner, sub, rights, err)
		}
		_, err := h.s.Grant(n.id, owner, sub, rights, clean)
		return fmt.Sprintf("grant n%d -> d%d %v [%v]: %v", n.id, owner, sub, rights, err)
	case op < 11:
		if n := h.pick(); n != nil {
			_, err := h.s.Revoke(n.id)
			return fmt.Sprintf("revoke n%d: %v", n.id, err)
		}
	case op < 13:
		if n := h.pick(); n != nil {
			det, err := h.s.Detach(n.id)
			if err == nil {
				h.limbo = append(h.limbo, det)
			}
			return fmt.Sprintf("detach n%d: %v", n.id, err)
		}
	case op < 14:
		h.limbo = append(h.limbo, h.s.DetachOwner(owner))
		return fmt.Sprintf("detach owner d%d", owner)
	case op < 16:
		if len(h.limbo) > 0 {
			det := h.limbo[0]
			h.limbo = h.limbo[1:]
			h.s.Release(det)
			h.release = append(h.release, det)
			return "release"
		}
		if len(h.release) > 0 {
			h.s.Reclaim(h.release[0])
			h.release = h.release[1:]
			return "reclaim"
		}
	case op < 17:
		h.s.RevokeOwner(owner)
		return fmt.Sprintf("revoke owner d%d", owner)
	case op < 18:
		h.s.Seal(owner)
		return fmt.Sprintf("seal d%d", owner)
	default:
		h.boot()
		return "boot"
	}
	return "noop"
}

func TestOwnerIndexMatchesLineageWalk(t *testing.T) {
	steps := 600
	if testing.Short() {
		steps = 200
	}
	for seed := int64(1); seed <= 4; seed++ {
		h := &indexHarness{s: NewSpace(), rng: rand.New(rand.NewSource(seed))}
		h.boot()
		for i := 0; i < steps; i++ {
			desc := h.step()
			checkIndex(t, h.s, h.roots, h.rng, fmt.Sprintf("seed %d step %d (%s)", seed, i, desc))
		}
		// Drain the two-phase pipeline and tear everything down: the
		// index must end empty with the identity map.
		for _, det := range h.limbo {
			h.s.Release(det)
			h.s.Reclaim(det)
		}
		for _, det := range h.release {
			h.s.Reclaim(det)
		}
		for o := OwnerID(1); o <= ixOwners; o++ {
			h.s.RevokeOwner(o)
		}
		checkIndex(t, h.s, h.roots, h.rng, fmt.Sprintf("seed %d teardown", seed))
		if h.s.NumNodes() != 0 || h.s.LimboNodes() != 0 {
			t.Fatalf("seed %d: %d nodes, %d in limbo after teardown", seed, h.s.NumNodes(), h.s.LimboNodes())
		}
	}
}

// TestOwnerIndexConcurrent runs delegations between disjoint and
// overlapping owner pairs against two-phase revocations and against
// readers of the index; run it under -race. Each owner's first page is
// never delegated, so readers can assert it stays accessible.
func TestOwnerIndexConcurrent(t *testing.T) {
	const owners, pages = 4, 16
	rounds := 300
	if testing.Short() {
		rounds = 100
	}
	s := NewSpace()
	var roots []NodeID
	for o := 0; o < owners; o++ {
		roots = append(roots, mustRoot(t, s, OwnerID(o+1), mem(uint64(o*pages), pages), MemFull))
	}
	// Pairs 1->2 and 3->4 are disjoint; 2->1 and 4->2 overlap them.
	pairs := [][2]int{{0, 1}, {2, 3}, {1, 0}, {3, 1}}
	var wg sync.WaitGroup
	errs := make(chan error, len(pairs)+owners)
	for i, p := range pairs {
		wg.Add(1)
		go func(i int, from, to int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			for r := 0; r < rounds; r++ {
				page := uint64(from*pages + 1 + rng.Intn(pages-1))
				derive := s.Share
				if rng.Intn(2) == 0 {
					derive = s.Grant
				}
				id, err := derive(roots[from], OwnerID(to+1), mem(page, 1), MemRW, CleanNone)
				if err != nil {
					continue // the page is granted away by another pair
				}
				if rng.Intn(2) == 0 {
					if _, err := s.Revoke(id); err != nil {
						errs <- fmt.Errorf("revoke %d: %w", id, err)
						return
					}
					continue
				}
				det, err := s.Detach(id)
				if err != nil {
					errs <- fmt.Errorf("detach %d: %w", id, err)
					return
				}
				s.Release(det)
				s.Reclaim(det)
			}
		}(i, p[0], p[1])
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for o := 0; o < owners; o++ {
		readers.Add(1)
		go func(o OwnerID, first phys.Addr) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if !s.CheckMemAccess(o, first, MemRW) {
					errs <- fmt.Errorf("owner %d lost its undelegated page %v", o, first)
					return
				}
				g := s.OwnerMemoryGrants(o)
				if !slices.IsSortedFunc(g, func(a, b MemoryGrant) int {
					if a.Node != b.Node {
						return cmp.Compare(a.Node, b.Node)
					}
					return cmp.Compare(a.Region.Start, b.Region.Start)
				}) {
					errs <- fmt.Errorf("owner %d grants out of order: %v", o, g)
					return
				}
				var end phys.Addr
				for _, rc := range s.RefCounts() {
					if rc.Region.Start < end || rc.Count != len(rc.Owners) {
						errs <- fmt.Errorf("malformed refcounts segment %v", rc)
						return
					}
					end = rc.Region.End
				}
			}
		}(OwnerID(o+1), phys.Addr(o*pages*pg))
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	checkIndex(t, s, roots, rand.New(rand.NewSource(1)), "after concurrent run")
	if got := s.NumNodes(); got != owners {
		t.Fatalf("%d nodes left, want the %d roots", got, owners)
	}
}

// benchSpace builds a space shaped like a booted monitor hosting two
// tenants and two peers: 17 capabilities over 6 owners. The boot owner
// holds all memory, three cores and two devices and has granted its
// tenants and peers their segments and a core each.
func benchSpace(b *testing.B) *Space {
	s := NewSpace()
	must := func(id NodeID, err error) NodeID {
		if err != nil {
			b.Fatal(err)
		}
		return id
	}
	memRoot := must(s.CreateRoot(1, mem(0, 8192), MemFull, CleanNone))
	var cores []NodeID
	for c := 0; c < 3; c++ {
		cores = append(cores, must(s.CreateRoot(1, CoreResource(phys.CoreID(c)), CoreFull, CleanNone)))
	}
	for d := 0; d < 2; d++ {
		must(s.CreateRoot(1, DeviceResource(phys.DeviceID(d)), DeviceFull, CleanNone))
	}
	for i := 0; i < 2; i++ {
		tenant, peer := OwnerID(2+2*i), OwnerID(3+2*i)
		base := uint64(1024 + 512*i)
		must(s.Grant(memRoot, tenant, mem(base, 4), MemRX, CleanZero))     // code
		must(s.Grant(memRoot, tenant, mem(base+4, 16), MemRW, CleanZero))  // heap
		must(s.Grant(memRoot, tenant, mem(base+20, 64), MemRW, CleanZero)) // ring and pool
		must(s.Grant(cores[i+1], tenant, CoreResource(phys.CoreID(i+1)), CoreFull, CleanNone))
		must(s.Grant(memRoot, peer, mem(base+256, 4), MemRX, CleanZero))
	}
	must(s.Share(memRoot, 6, mem(4096, 1), MemRW, CleanNone))
	if s.NumNodes() != 17 || len(s.Owners()) != 6 {
		b.Fatalf("bench space has %d nodes over %d owners", s.NumNodes(), len(s.Owners()))
	}
	return s
}

func BenchmarkCheckMemAccess(b *testing.B) {
	s := benchSpace(b)
	pool := phys.Addr((1024 + 40) * pg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !s.CheckMemAccess(2, pool, MemRW) || s.CheckMemAccess(1, pool, RightRead) {
			b.Fatal("wrong access verdict")
		}
	}
}

func BenchmarkOwnerMemoryGrants(b *testing.B) {
	s := benchSpace(b)
	for _, c := range []struct {
		name  string
		owner OwnerID
	}{{"boot", 1}, {"tenant", 2}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(s.OwnerMemoryGrants(c.owner)) == 0 {
					b.Fatal("no grants")
				}
			}
		})
	}
}
