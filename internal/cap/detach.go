package cap

import "slices"

// Two-phase revocation for the monitor's epoch-based reclamation scheme.
//
// The classic Revoke/RevokeOwner unlink a subtree and hand back cleanup
// actions in one exclusive critical section — correct, but it forces
// the caller to hold everything else out while the irreversible effects
// (scrub, shootdown, hardware resync) run. The epoch scheme splits the
// operation into the RCU phases:
//
//   - Detach / DetachOwner — the *publish*: the subtree's nodes leave
//     the lock-free index (the owners lose access and every query stops
//     seeing them), but the lineage links stay in place. In particular a
//     granted child keeps hanging off its parent, so the parent's
//     effective regions still exclude the granted range: the grant
//     suspension persists and the parent cannot re-delegate the region
//     while the old owner's copy is being scrubbed.
//   - Release — after the grace period and the scrub: unlink the
//     detached tops from their live parents, restoring the parents'
//     effective access. The caller resynchronises the affected owners'
//     hardware immediately after, so Release itself does not bump the
//     generation — the interim staleness is in the safe (more
//     restrictive) direction.
//   - Reclaim — after a second grace period (the monitor's deferred-free
//     list): sever the internal links of the limbo nodes so the records
//     can be recycled. Until then a reader that picked up a node pointer
//     before the detach can still walk immutable identity fields safely.
//
// All three run under the structural writer lock and are short; the
// monitor serialises them per destructive operation with its own revMu.

// Detached holds a detached-but-not-yet-released set of capability
// subtrees: the output of Detach/DetachOwner, consumed by Release and
// Reclaim in that order.
type Detached struct {
	tops    []*node
	all     []*node
	actions []CleanupAction
	parents []OwnerID
}

// Actions returns the cleanup actions for the detached subtrees in
// execution order (children first), exactly as Revoke would have
// returned them.
func (d *Detached) Actions() []CleanupAction {
	if d == nil {
		return nil
	}
	return d.actions
}

// Empty reports whether the detach found nothing to revoke.
func (d *Detached) Empty() bool { return d == nil || len(d.all) == 0 }

// NumNodes returns how many capability records the detach put in limbo.
func (d *Detached) NumNodes() int {
	if d == nil {
		return 0
	}
	return len(d.all)
}

// ParentOwners returns the distinct owners of the surviving parents the
// detached tops hang off — the grantors whose suspended access Release
// restores. Their hardware must be resynchronised after Release just
// like the detached owners': the capability space says they have the
// granted-back regions again, but their filters were programmed while
// the suspension was in force. Captured at detach time, under the
// structural lock.
func (d *Detached) ParentOwners() []OwnerID {
	if d == nil || len(d.parents) == 0 {
		return nil
	}
	out := slices.Clone(d.parents)
	slices.Sort(out)
	return slices.Compact(out)
}

// detachSubtree walks children-first, removing every node from the
// indexes and marking it detached, without touching any lineage link.
// Caller holds the structural writer lock.
func (s *Space) detachSubtree(n *node, det *Detached) {
	for _, c := range n.children {
		if c.detached {
			continue
		}
		s.detachSubtree(c, det)
	}
	s.remove(n)
	det.all = append(det.all, n)
	det.actions = append(det.actions, CleanupAction{
		Node: n.id, Owner: n.owner, Resource: n.res, Cleanup: n.cleanup,
	})
}

// Detach is the publish step of a two-phase Revoke: the capability and
// its entire derivation subtree vanish from the index (one generation
// bump, same as Revoke), but stay linked to the lineage forest so grant
// suspensions persist until Release.
func (s *Space) Detach(id NodeID) (*Detached, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, err := s.get(id)
	if err != nil {
		return nil, err
	}
	det := &Detached{}
	s.detachSubtree(n, det)
	det.tops = append(det.tops, n)
	if n.parent != nil && !n.parent.detached {
		det.parents = append(det.parents, n.parent.owner)
	}
	s.compact(det.actions)
	s.limbo.Add(int64(len(det.all)))
	s.mutate()
	return det, nil
}

// DetachOwner is the publish step of a two-phase RevokeOwner: every
// capability owned by owner (and everything derived from those) leaves
// the index; the owner's seal flag is cleared. Used when a domain is
// killed.
func (s *Space) DetachOwner(owner OwnerID) *Detached {
	s.mu.Lock()
	defer s.mu.Unlock()
	det := &Detached{}
	// As in RevokeOwner, ID order reaches every top before its
	// descendants.
	for _, n := range s.owned(owner) {
		if n.detached {
			continue
		}
		s.detachSubtree(n, det)
		det.tops = append(det.tops, n)
		if n.parent != nil && !n.parent.detached {
			det.parents = append(det.parents, n.parent.owner)
		}
	}
	if len(det.actions) > 0 {
		s.compact(det.actions)
		s.mutate()
	}
	s.sealed.Delete(owner)
	s.limbo.Add(int64(len(det.all)))
	return det
}

// Release unlinks the detached tops from their surviving parents,
// restoring the parents' effective access to anything the detached
// subtrees had been granted. Called after the grace period and after
// the revoked state has been scrubbed. Release does not bump the
// generation: it only widens access back toward the parents, and the
// monitor resynchronises the affected owners' hardware immediately
// after, so any interim staleness is in the restrictive direction.
func (s *Space) Release(det *Detached) {
	if det.Empty() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, n := range det.tops {
		if n.parent != nil && !n.parent.detached {
			n.parent.children = removeChild(n.parent.children, n)
		}
	}
}

// Reclaim severs the limbo nodes' internal links so the records can be
// collected. Must run only after every reader that could have picked up
// a node pointer before the detach has quiesced — the monitor calls it
// from its epoch deferred-free list.
func (s *Space) Reclaim(det *Detached) {
	if det.Empty() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, n := range det.all {
		n.children = nil
		n.parent = nil
	}
	s.limbo.Add(-int64(len(det.all)))
	det.tops, det.all = nil, nil
}

// LimboNodes returns how many detached capability records await
// Reclaim — the epoch engine's reclamation backlog.
func (s *Space) LimboNodes() int { return int(s.limbo.Load()) }
