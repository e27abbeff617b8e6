package cap

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/tyche-sim/tyche/internal/phys"
)

// OwnerID identifies a capability owner — a trust domain. The capability
// model treats owners as opaque; domain lifecycle lives in the monitor.
type OwnerID uint64

// NodeID identifies one node in the capability lineage tree.
type NodeID uint64

// NodeKind records how a capability came to exist.
type NodeKind int

// Node kinds.
const (
	// KindRoot capabilities are created by the monitor at boot (the
	// initial domain owns all physical resources).
	KindRoot NodeKind = iota
	// KindShared capabilities were derived by Share: parent keeps access.
	KindShared
	// KindGranted capabilities were derived by Grant: the parent's
	// access to the transferred sub-resource is suspended while the
	// grant is active ("granting exclusive control", §3.2).
	KindGranted
)

var nodeKindNames = [...]string{"root", "shared", "granted"}

func (k NodeKind) String() string {
	if int(k) < len(nodeKindNames) {
		return nodeKindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Sentinel errors returned by Space operations.
var (
	ErrNotFound     = errors.New("cap: capability not found")
	ErrRights       = errors.New("cap: rights exceed parent capability")
	ErrNoDelegation = errors.New("cap: capability lacks the needed delegation right")
	ErrSealed       = errors.New("cap: domain is sealed")
	ErrSubresource  = errors.New("cap: requested resource not within (effective) capability")
	ErrInvalid      = errors.New("cap: invalid argument")
)

type node struct {
	// id, owner, res, rights, cleanup, kind, and parent are immutable
	// after creation; children is guarded by the owner's shard lock and
	// stays in ID order (IDs are drawn under that lock, and removals
	// keep order). detached marks a node removed from the indexes, by
	// Revoke or by a two-phase revocation whose subtree is not yet
	// released (detach.go); it is written only under the structural
	// writer lock.
	id       NodeID
	owner    OwnerID
	res      Resource
	rights   Rights
	cleanup  Cleanup
	kind     NodeKind
	parent   *node
	children []*node
	detached bool
}

// Info is an exported snapshot of one capability node.
type Info struct {
	ID       NodeID
	Owner    OwnerID
	Resource Resource
	Rights   Rights
	Cleanup  Cleanup
	Kind     NodeKind
	Parent   NodeID // 0 for roots
	Children []NodeID
}

// CleanupAction records one cleanup the monitor must execute as part of
// a revocation: the capability model validates and sequences; the
// hardware backend performs.
type CleanupAction struct {
	Node     NodeID
	Owner    OwnerID
	Resource Resource
	Cleanup  Cleanup
}

func (a CleanupAction) String() string {
	return fmt.Sprintf("cleanup{%v %v owner=%d %v}", a.Cleanup, a.Resource, a.Owner, a.Node)
}

// numShards is the owner-shard count; shardFor masks with it, so it
// must stay a power of two.
const numShards = 16

// ownerShard is one owner shard: the lock guarding its owners' nodes
// and seal flags, and the owner index — each owner's live nodes in
// ascending ID order.
type ownerShard struct {
	sync.RWMutex
	owned map[OwnerID][]*node
}

// Space is the system-wide capability state: every capability of every
// trust domain lives in one lineage forest rooted at the boot-time
// capabilities.
//
// Space is safe for concurrent use. The locking is layered:
//
//   - A structural RWMutex (mu) is held exclusively only by the revoke
//     family (Revoke, RevokeOwner) — the operations that unlink nodes
//     and therefore cannot tolerate any concurrent reader of the
//     lineage forest. Every other operation holds it shared.
//   - Owner shards: owners hash onto numShards RWMutexes. A node's
//     mutable state (its children list) and an owner's seal flag are
//     guarded by the owner's shard. Delegations lock the source and
//     destination owners' shards; cross-owner operations always
//     acquire multiple shards in ascending shard-index order, so
//     concurrent Share/Grant between disjoint owner pairs proceed in
//     parallel without deadlock.
//   - Global sweeps (reference counts, owner enumeration, tree dumps)
//     hold every shard shared, which excludes in-flight delegations
//     and yields a consistent snapshot without the writer lock.
//
// Every per-owner query walks the owner index: the owner's shard keeps
// its live nodes in ID order. A node joins its owner's list under the
// owner's shard write lock, where its ID is drawn, so appending keeps
// the order. Nodes leave under the structural writer lock: a revoke
// walk only marks them detached, then one compaction pass per affected
// owner drops them. Identity lookups go through a lock-free node index
// (sync.Map) used for nothing else; generation, op, and node counters
// are atomics. The lock order is mu before shards, shards in ascending
// index; no Space lock is ever held across a call out of the package.
type Space struct {
	mu     sync.RWMutex // structural: exclusive for revoke paths only
	shards [numShards]ownerShard

	nodes  sync.Map // NodeID -> *node
	sealed sync.Map // OwnerID -> bool

	nextID   atomic.Uint64
	gen      atomic.Uint64
	ops      atomic.Uint64
	numNodes atomic.Int64
	limbo    atomic.Int64 // detached, not yet reclaimed (detach.go)
}

// NewSpace returns an empty capability space.
func NewSpace() *Space {
	s := &Space{}
	s.nextID.Store(1)
	return s
}

func shardFor(o OwnerID) int { return int(o) & (numShards - 1) }

// lockOwners write-locks the shards of the given owners in ascending
// shard order (deduplicated) and returns the unlock function. Callers
// must hold mu (shared or exclusive is irrelevant — shard locks nest
// inside mu).
func (s *Space) lockOwners(owners ...OwnerID) func() {
	var mask uint
	for _, o := range owners {
		mask |= 1 << uint(shardFor(o))
	}
	for i := 0; i < numShards; i++ {
		if mask&(1<<uint(i)) != 0 {
			s.shards[i].Lock()
		}
	}
	return func() {
		for i := numShards - 1; i >= 0; i-- {
			if mask&(1<<uint(i)) != 0 {
				s.shards[i].Unlock()
			}
		}
	}
}

// rlockOwner read-locks one owner's shard and returns it; callers
// release it with RUnlock (a method call, so deferring it does not
// allocate a closure on the access-check path).
func (s *Space) rlockOwner(o OwnerID) *ownerShard {
	sh := &s.shards[shardFor(o)]
	sh.RLock()
	return sh
}

// rlockAll read-locks every shard in ascending order — the sweep lock
// for queries touching nodes of arbitrary owners.
func (s *Space) rlockAll() func() {
	for i := range s.shards {
		s.shards[i].RLock()
	}
	return func() {
		for i := numShards - 1; i >= 0; i-- {
			s.shards[i].RUnlock()
		}
	}
}

// Generation increments on every mutation; backends use it to detect
// staleness of derived hardware state.
func (s *Space) Generation() uint64 { return s.gen.Load() }

// Ops returns the number of mutating operations performed.
func (s *Space) Ops() uint64 { return s.ops.Load() }

// NumNodes returns the number of live capability nodes.
func (s *Space) NumNodes() int { return int(s.numNodes.Load()) }

func (s *Space) mutate() { s.gen.Add(1); s.ops.Add(1) }

func (s *Space) isSealed(o OwnerID) bool {
	v, ok := s.sealed.Load(o)
	return ok && v.(bool)
}

// insert indexes a new node; the caller holds its owner's shard write
// lock and drew n.id under it.
func (s *Space) insert(n *node) {
	sh := &s.shards[shardFor(n.owner)]
	if sh.owned == nil {
		sh.owned = make(map[OwnerID][]*node)
	}
	sh.owned[n.owner] = append(sh.owned[n.owner], n)
	s.nodes.Store(n.id, n)
	s.numNodes.Add(1)
}

// remove takes n out of the identity index and marks it detached. The
// caller holds the structural writer lock and calls compact once its
// walk is done.
func (s *Space) remove(n *node) {
	n.detached = true
	s.nodes.Delete(n.id)
	s.numNodes.Add(-1)
}

// compact drops detached nodes from the owner index, one pass per
// owner named in acts. The caller holds the structural writer lock.
func (s *Space) compact(acts []CleanupAction) {
	done := make(map[OwnerID]bool)
	for _, a := range acts {
		if done[a.Owner] {
			continue
		}
		done[a.Owner] = true
		sh := &s.shards[shardFor(a.Owner)]
		list := sh.owned[a.Owner]
		live := slices.DeleteFunc(list, func(n *node) bool { return n.detached })
		if len(live) == 0 {
			delete(sh.owned, a.Owner)
		} else {
			sh.owned[a.Owner] = live
		}
	}
}

// owned returns owner's live nodes in ID order. The caller holds the
// owner's shard or the structural writer lock, and must not retain
// the slice past it.
func (s *Space) owned(owner OwnerID) []*node {
	return s.shards[shardFor(owner)].owned[owner]
}

// eachOwner calls f with every owner's live nodes; the caller holds the
// sweep lock (all shards) or the structural writer lock.
func (s *Space) eachOwner(f func(OwnerID, []*node)) {
	for i := range s.shards {
		for o, nodes := range s.shards[i].owned {
			f(o, nodes)
		}
	}
}

// CreateRoot mints a root capability for owner. Only the monitor calls
// this, at boot, to hand the initial domain the machine's resources.
func (s *Space) CreateRoot(owner OwnerID, res Resource, rights Rights, cleanup Cleanup) (NodeID, error) {
	if err := res.Validate(); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	if !rights.Subset(res.ValidRights()) {
		return 0, fmt.Errorf("%w: rights %v not valid for %v", ErrInvalid, rights, res.Kind)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	unlock := s.lockOwners(owner)
	defer unlock()
	if s.isSealed(owner) {
		return 0, fmt.Errorf("%w: owner %d cannot receive new capabilities", ErrSealed, owner)
	}
	n := &node{id: NodeID(s.nextID.Add(1) - 1), owner: owner, res: res, rights: rights, cleanup: cleanup, kind: KindRoot}
	s.insert(n)
	s.mutate()
	return n.id, nil
}

// get looks a node up in the index. Safe without shard locks: node
// identity fields are immutable, and unlinking only happens under the
// exclusive structural lock.
func (s *Space) get(id NodeID) (*node, error) {
	v, ok := s.nodes.Load(id)
	if !ok {
		return nil, fmt.Errorf("%w: node %d", ErrNotFound, id)
	}
	return v.(*node), nil
}

// derive validates and creates a child capability of kind k.
func (s *Space) derive(id NodeID, newOwner OwnerID, sub Resource, rights Rights, cleanup Cleanup, k NodeKind) (NodeID, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	parent, err := s.get(id)
	if err != nil {
		return 0, err
	}
	// Lock the delegation's two owners — parent's (its children list and
	// effective regions) and the receiver's (its seal flag) — in shard
	// order.
	unlock := s.lockOwners(parent.owner, newOwner)
	defer unlock()
	need := RightShare
	if k == KindGranted {
		need = RightGrant
	}
	if !parent.rights.Has(need) {
		return 0, fmt.Errorf("%w: %v needs %v", ErrNoDelegation, parent.res, need)
	}
	// A sealed domain cannot have its resource set extended (§3.1).
	// Sharing *out of* a sealed domain remains possible: it is a
	// voluntary act of the sealed domain, and it is visible to verifiers
	// because it raises the region's reference count — this is what lets
	// sealed Tyche-enclaves spawn nested enclaves and share pages with
	// them (§4.2).
	if s.isSealed(newOwner) {
		return 0, fmt.Errorf("%w: owner %d cannot receive new capabilities", ErrSealed, newOwner)
	}
	if err := sub.Validate(); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	if !parent.res.ContainsResource(sub) {
		return 0, fmt.Errorf("%w: %v not within %v", ErrSubresource, sub, parent.res)
	}
	if !rights.Subset(parent.rights) {
		return 0, fmt.Errorf("%w: %v ⊄ %v", ErrRights, rights, parent.rights)
	}
	// For memory, the sub-resource must lie within the *effective*
	// region: what the parent granted away is not the parent's to
	// delegate again until revoked.
	if sub.Kind == ResMemory {
		if !regionCovered(sub.Mem, appendEffective(nil, parent)) {
			return 0, fmt.Errorf("%w: %v already granted away from %v", ErrSubresource, sub.Mem, parent.res)
		}
	} else if k == KindGranted && grantedAway(parent) {
		// Granting a core or device suspends the parent's use entirely;
		// re-granting an already-granted core/device is invalid.
		return 0, fmt.Errorf("%w: %v already granted away", ErrSubresource, sub)
	}
	n := &node{
		id: NodeID(s.nextID.Add(1) - 1), owner: newOwner, res: sub, rights: rights,
		cleanup: cleanup, kind: k, parent: parent,
	}
	parent.children = append(parent.children, n)
	s.insert(n)
	s.mutate()
	return n.id, nil
}

// Share derives a child capability for newOwner over sub, keeping the
// parent's access intact (controlled sharing: the region's reference
// count rises).
func (s *Space) Share(id NodeID, newOwner OwnerID, sub Resource, rights Rights, cleanup Cleanup) (NodeID, error) {
	return s.derive(id, newOwner, sub, rights, cleanup, KindShared)
}

// Grant derives a child capability for newOwner over sub and suspends
// the parent's access to it: exclusive, revocable transfer.
func (s *Space) Grant(id NodeID, newOwner OwnerID, sub Resource, rights Rights, cleanup Cleanup) (NodeID, error) {
	return s.derive(id, newOwner, sub, rights, cleanup, KindGranted)
}

// Revoke removes the capability and its entire derivation subtree,
// children first, returning the cleanup actions in execution order.
// Because lineage is a tree (every share/grant mints a fresh node),
// revocation terminates even when domains have shared a region back and
// forth in a cycle.
//
// Revocation takes the structural lock exclusively: subtree unlinking
// crosses owner shards arbitrarily, so it is the one operation that
// falls back to the global writer lock.
func (s *Space) Revoke(id NodeID) ([]CleanupAction, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, err := s.get(id)
	if err != nil {
		return nil, err
	}
	var actions []CleanupAction
	s.revokeSubtree(n, &actions)
	if n.parent != nil {
		n.parent.children = removeChild(n.parent.children, n)
	}
	s.compact(actions)
	s.mutate()
	return actions, nil
}

func (s *Space) revokeSubtree(n *node, actions *[]CleanupAction) {
	for _, c := range n.children {
		if c.detached {
			continue // in limbo: already counted by its Detach
		}
		s.revokeSubtree(c, actions)
	}
	n.children = nil
	s.remove(n)
	*actions = append(*actions, CleanupAction{
		Node: n.id, Owner: n.owner, Resource: n.res, Cleanup: n.cleanup,
	})
}

// RevokeOwner tears down every capability owned by owner (and therefore
// everything ever derived from those capabilities). Used when a domain
// is killed. Like Revoke, it holds the structural lock exclusively.
func (s *Space) RevokeOwner(owner OwnerID) []CleanupAction {
	s.mu.Lock()
	defer s.mu.Unlock()
	var actions []CleanupAction
	// In ID order an ancestor comes before its descendants, so a node
	// under another of owner's nodes is already detached by the
	// ancestor's subtree walk when the loop reaches it.
	for _, n := range s.owned(owner) {
		if n.detached {
			continue
		}
		s.revokeSubtree(n, &actions)
		if n.parent != nil {
			n.parent.children = removeChild(n.parent.children, n)
		}
	}
	if len(actions) > 0 {
		s.compact(actions)
		s.mutate()
	}
	s.sealed.Delete(owner)
	return actions
}

func removeChild(children []*node, target *node) []*node {
	for i, c := range children {
		if c == target {
			return append(children[:i], children[i+1:]...)
		}
	}
	return children
}

// Seal freezes owner's resource set: it can no longer receive
// capabilities (§3.1: "domains can be sealed, so that their resources
// cannot be extended").
func (s *Space) Seal(owner OwnerID) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	unlock := s.lockOwners(owner)
	defer unlock()
	s.sealed.Store(owner, true)
	s.mutate()
}

// Sealed reports whether owner is sealed.
func (s *Space) Sealed(owner OwnerID) bool { return s.isSealed(owner) }

// Node returns a snapshot of the capability id.
func (s *Space) Node(id NodeID) (Info, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n, err := s.get(id)
	if err != nil {
		return Info{}, err
	}
	defer s.rlockOwner(n.owner).RUnlock()
	return s.info(n), nil
}

// info snapshots a node; the caller holds the node's owner shard.
func (s *Space) info(n *node) Info {
	inf := Info{
		ID: n.id, Owner: n.owner, Resource: n.res, Rights: n.rights,
		Cleanup: n.cleanup, Kind: n.kind,
	}
	if n.parent != nil {
		inf.Parent = n.parent.id
	}
	for _, c := range n.children {
		if c.detached {
			continue // limbo children are no longer observable
		}
		inf.Children = append(inf.Children, c.id)
	}
	return inf
}

// OwnerNodes returns snapshots of every capability owned by owner, in
// ID order.
func (s *Space) OwnerNodes(owner OwnerID) []Info {
	s.mu.RLock()
	defer s.mu.RUnlock()
	defer s.rlockOwner(owner).RUnlock()
	var out []Info
	for _, n := range s.owned(owner) {
		out = append(out, s.info(n))
	}
	return out
}

// grantedAway reports whether n has an active granted child over its
// own core or device; limbo children still count, since a grant
// suspension persists until Release. Memory grants are handled by
// appendEffective and effectiveContains instead.
func grantedAway(n *node) bool {
	if n.res.Kind == ResMemory {
		return false
	}
	for _, c := range n.children {
		if c.kind == KindGranted && n.res.ContainsResource(c.res) {
			return true
		}
	}
	return false
}

func isMemGrant(c *node) bool { return c.kind == KindGranted && c.res.Kind == ResMemory }

// appendEffective appends to dst, normalized, the memory n actually
// confers access to: the gaps its granted memory children leave in its
// region. The caller holds the node's owner shard (or the structural
// writer lock).
func appendEffective(dst []phys.Region, n *node) []phys.Region {
	if n.res.Kind != ResMemory {
		return dst
	}
	var buf [8]phys.Region
	cuts := buf[:0]
	for _, c := range n.children {
		if isMemGrant(c) {
			cuts = append(cuts, c.res.Mem)
		}
	}
	slices.SortFunc(cuts, func(a, b phys.Region) int { return cmp.Compare(a.Start, b.Start) })
	at, end := n.res.Mem.Start, n.res.Mem.End
	for _, c := range cuts {
		if c.Start > at {
			dst = append(dst, phys.Region{Start: at, End: c.Start})
		}
		at = max(at, c.End)
	}
	if at < end {
		dst = append(dst, phys.Region{Start: at, End: end})
	}
	return dst
}

// effectiveContains reports whether a lies in n's effective memory,
// without materialising it.
func effectiveContains(n *node, a phys.Addr) bool {
	if n.res.Kind != ResMemory || !n.res.Mem.Contains(a) {
		return false
	}
	for _, c := range n.children {
		if isMemGrant(c) && c.res.Mem.Contains(a) {
			return false
		}
	}
	return true
}

// EffectiveRegions returns the node's effective memory regions.
func (s *Space) EffectiveRegions(id NodeID) ([]phys.Region, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n, err := s.get(id)
	if err != nil {
		return nil, err
	}
	defer s.rlockOwner(n.owner).RUnlock()
	return appendEffective(nil, n), nil
}

// regionCovered reports whether want lies entirely within the union of
// regs (regs must be normalized).
func regionCovered(want phys.Region, regs []phys.Region) bool {
	for _, r := range regs {
		if r.ContainsRegion(want) {
			return true
		}
	}
	return false
}

// OwnerMemory returns the union of owner's effective memory regions that
// carry at least the rights in want (normalized).
func (s *Space) OwnerMemory(owner OwnerID, want Rights) []phys.Region {
	s.mu.RLock()
	defer s.mu.RUnlock()
	defer s.rlockOwner(owner).RUnlock()
	var regs []phys.Region
	for _, n := range s.owned(owner) {
		if n.rights.Has(want) {
			regs = appendEffective(regs, n)
		}
	}
	return phys.NormalizeRegions(regs)
}

// MemoryGrants enumerates owner's effective memory access as
// (region, rights) pairs per capability, for backend programming. The
// backend resolves overlaps by OR-ing permissions.
type MemoryGrant struct {
	Region phys.Region
	Rights Rights
	Node   NodeID
}

// OwnerMemoryGrants returns owner's effective per-capability memory
// access, ordered by node ID, then address: the owner index and
// effective regions are both already in that order.
func (s *Space) OwnerMemoryGrants(owner OwnerID) []MemoryGrant {
	s.mu.RLock()
	defer s.mu.RUnlock()
	defer s.rlockOwner(owner).RUnlock()
	nodes := s.owned(owner)
	out := make([]MemoryGrant, 0, len(nodes))
	var regs []phys.Region
	for _, n := range nodes {
		regs = appendEffective(regs[:0], n)
		for _, r := range regs {
			out = append(out, MemoryGrant{Region: r, Rights: n.rights, Node: n.id})
		}
	}
	return out
}

// OwnerCores returns the cores owner may run on (holding RightRun),
// minus cores granted away.
func (s *Space) OwnerCores(owner OwnerID) []phys.CoreID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	defer s.rlockOwner(owner).RUnlock()
	out := []phys.CoreID{}
	for _, n := range s.owned(owner) {
		if n.res.Kind == ResCore && n.rights.Has(RightRun) && !grantedAway(n) {
			out = append(out, n.res.Core)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// OwnerHasCore reports whether owner holds RightRun on core.
func (s *Space) OwnerHasCore(owner OwnerID, core phys.CoreID) bool {
	return slices.Contains(s.OwnerCores(owner), core)
}

// OwnerDevices returns the devices owner may use, minus devices granted
// away.
func (s *Space) OwnerDevices(owner OwnerID) []phys.DeviceID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	defer s.rlockOwner(owner).RUnlock()
	return s.ownerDevices(owner, RightUse, []phys.DeviceID{})
}

// ownerDevices appends to dst the devices on which owner holds want
// through a node that has not granted the device away, sorted and
// deduplicated. The caller holds the owner's shard.
func (s *Space) ownerDevices(owner OwnerID, want Rights, dst []phys.DeviceID) []phys.DeviceID {
	for _, n := range s.owned(owner) {
		if n.res.Kind == ResDevice && n.rights.Has(want) && !grantedAway(n) {
			dst = append(dst, n.res.Device)
		}
	}
	slices.Sort(dst)
	return slices.Compact(dst)
}

// OwnerHasDevice reports whether owner holds RightUse on dev.
func (s *Space) OwnerHasDevice(owner OwnerID, dev phys.DeviceID) bool {
	return slices.Contains(s.OwnerDevices(owner), dev)
}

// DMADevices returns the devices on which any of owners holds live
// (not granted-away) DMA rights, sorted: the devices whose IOMMU
// context depends on those owners' memory. Each owner is read under
// its own shard, so the result is a per-owner snapshot.
func (s *Space) DMADevices(owners ...OwnerID) []phys.DeviceID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []phys.DeviceID
	for _, o := range owners {
		sh := s.rlockOwner(o)
		out = s.ownerDevices(o, RightDMA, out)
		sh.RUnlock()
	}
	return out
}

// CheckMemAccess reports whether owner has effective access with rights
// want at address a.
func (s *Space) CheckMemAccess(owner OwnerID, a phys.Addr, want Rights) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	defer s.rlockOwner(owner).RUnlock()
	for _, n := range s.owned(owner) {
		if n.rights.Has(want) && effectiveContains(n, a) {
			return true
		}
	}
	return false
}

// Owners returns every owner holding at least one capability, sorted.
func (s *Space) Owners() []OwnerID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	defer s.rlockAll()()
	out := []OwnerID{}
	s.eachOwner(func(o OwnerID, _ []*node) { out = append(out, o) })
	slices.Sort(out)
	return out
}
