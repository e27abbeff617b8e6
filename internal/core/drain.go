package core

// The parallel reclamation pipeline: concurrent per-ring drains under
// one destructive-family entry, a shared grace period for every
// revocation the round publishes, and (contain.go) sharded forced
// scrub. The journal version of the paper (arXiv 2507.12364) frames
// the monitor as cloud-scale trust infrastructure — reclamation
// throughput must scale with cores rather than serialise behind one.
//
// The round protocol, run entirely inside one denter()/dexit():
//
//	Phase A (parallel): registered rings are partitioned across up to
//	  reclaimWorkers host workers (rings whose footprints overlap are
//	  forced into the same shard so completion writes never race).
//	  Each worker pins the epoch engine and drains its rings exactly
//	  like the serial path — per-ring KBatchBegin/KBatchEnd frames,
//	  pre-validated access, per-descriptor revalidation, abort on
//	  footprint loss — except that a CallRevoke descriptor only runs
//	  its PUBLISH step (authorise + cap.Space.Detach + KRevoke): the
//	  grace period and the irreversible phase-2 effects are deferred
//	  to the round's tail. Non-destructive descriptors (share, grant,
//	  attest, ...) execute in full, concurrently, the same way the
//	  public API runs them under pinned reader entries.
//	Phase B (serial, coordinator): after the workers join (every pin
//	  dropped), ONE shared grace period covers every publish of the
//	  round (epoch.synchronizeShared — the grace combiner), then the
//	  deferred phase-2s run in deterministic (ring, descriptor) order
//	  with the machine's shootdown accumulator armed, so the whole
//	  round retires at most one cross-ring shootdown round
//	  (trace.KDrainBegin/KDrainEnd bracket it; the checker's
//	  property 6 enforces the coalescing).
//
// Why deferring revocation phase-2 is sound: Detach is the publish —
// readers stop seeing the subtree, and the parents' grant suspensions
// persist until Release — so nothing irreversible happens before the
// shared grace, and the grace runs with every worker pin dropped
// (running it earlier would deadlock against our own workers). The
// one visible semantic difference from the serial drain is that a
// parent's access returns only when the round ends, not between two
// descriptors of the same batch — the documented two-phase-revocation
// window, widened from one batch to one round.
//
// With reclaimWorkers ≤ 1 none of this code runs: DrainRings and the
// CallRingFlush doorbell take the exact serial paths, byte- and
// cycle-identical to the pre-pipeline monitor (the C22 bit-identity
// gate).

import (
	"sort"
	"sync"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/trace"
)

// SetReclaimWorkers sets the parallel reclamation fan-out: the number
// of host workers ring drains partition across and forced scrubs shard
// over. n ≤ 1 (the default) keeps both on their serial paths with
// bit-identical cycle histories; n > 1 is an opt-in, like the
// transition cache. Returns the previous setting.
func (m *Monitor) SetReclaimWorkers(n int) int {
	if n < 0 {
		n = 0
	}
	return int(m.reclaimWorkers.Swap(int32(n)))
}

// ReclaimWorkers returns the current parallel-reclamation fan-out.
func (m *Monitor) ReclaimWorkers() int { return int(m.reclaimWorkers.Load()) }

// noteDrainError surfaces a swallowed per-ring drain failure: counted
// in Stats().RingDrainErrors, first occurrence latched for
// FirstDrainError.
func (m *Monitor) noteDrainError(err error) {
	if err == nil {
		return
	}
	m.stats.ringDrainErrors.Add(1)
	m.drainErrMu.Lock()
	if m.firstDrainErr == nil {
		m.firstDrainErr = err
	}
	m.drainErrMu.Unlock()
}

// FirstDrainError returns the first per-ring drain failure a barrier
// drain observed (nil if none). The counterpart counter is
// Stats().RingDrainErrors.
func (m *Monitor) FirstDrainError() error {
	m.drainErrMu.Lock()
	defer m.drainErrMu.Unlock()
	return m.firstDrainErr
}

// pendingRevoke is one CallRevoke descriptor whose publish ran in
// Phase A and whose grace-gated phase-2 awaits the round's tail.
type pendingRevoke struct {
	det   *cap.Detached
	owner cap.OwnerID // revoked node's owner, resynced with the rest
	ring  DomainID    // ordering key: which ring published it
	idx   uint64      // ordering key: descriptor index within the ring
}

// drainCtx is one parallel round's shared state. Workers append their
// pendings under mu; everything else is worker-local or coordinator-
// only.
type drainCtx struct {
	mu       sync.Mutex
	pendings []pendingRevoke
	maxPub   uint64
}

// addPending records a published revoke for the round's shared
// phase-2.
func (dc *drainCtx) addPending(p pendingRevoke, pub uint64) {
	dc.mu.Lock()
	dc.pendings = append(dc.pendings, p)
	if pub > dc.maxPub {
		dc.maxPub = pub
	}
	dc.mu.Unlock()
}

// ringDrainResult is one ring's outcome within a parallel round.
type ringDrainResult struct {
	n   uint64
	err error
}

// drainRingsParallel drains every live registered ring as one
// partitioned round (destructive-family entry held by the caller).
// Returns the total descriptors executed and each ring's own result
// (for the doorbell path, which must report the flushing caller's
// count and error exactly as the serial doorbell would).
func (m *Monitor) drainRingsParallel(workers int) (uint64, map[DomainID]ringDrainResult) {
	m.ringMu.Lock()
	owners := make([]DomainID, 0, len(m.rings))
	for id := range m.rings {
		owners = append(owners, id)
	}
	m.ringMu.Unlock()
	sort.Slice(owners, func(i, j int) bool { return owners[i] < owners[j] })

	// Dead or vanished owners drop out before partitioning, exactly as
	// in the serial walk.
	rings := make([]*domainRing, 0, len(owners))
	for _, id := range owners {
		r, ok := m.ringOf(id)
		if !ok {
			continue
		}
		if d, err := m.domain(id); err != nil || d.State() == StateDead {
			m.ringDrop(id)
			continue
		}
		rings = append(rings, r)
	}
	results := make(map[DomainID]ringDrainResult, len(rings))
	if len(rings) == 0 {
		return 0, results
	}
	if workers > len(rings) {
		workers = len(rings)
	}

	// Partition round-robin in ascending owner order; a ring whose
	// footprint overlaps an already-placed ring's (two tenants sharing
	// the memory under their rings) joins that ring's shard so no two
	// workers ever write overlapping completion queues.
	shards := make([][]*domainRing, workers)
	shardOf := make([]int, 0, len(rings))
	for i, r := range rings {
		si := i % workers
		for j := 0; j < i; j++ {
			if rings[j].region.Overlaps(r.region) {
				si = shardOf[j]
				break
			}
		}
		shards[si] = append(shards[si], r)
		shardOf = append(shardOf, si)
	}

	tok := m.opTok.Add(1)
	m.mach.Trace(trace.GlobalCore, trace.KDrainBegin, 0, uint64(len(rings)), tok, 0, 0)
	m.stats.ringParallelDrains.Add(1)

	// Phase A: concurrent per-ring drains. Workers run strictly inside
	// the coordinator's denter() critical section (spawned after the
	// locks are taken, joined before they drop), touch only leaf locks
	// and the internally-synchronised capability space, and hold their
	// own epoch pins — the same footing as concurrent pinned-reader
	// entries, which PR 7's lock order already admits.
	dc := &drainCtx{}
	var resMu sync.Mutex
	var wg sync.WaitGroup
	for _, shard := range shards {
		if len(shard) == 0 {
			continue
		}
		wg.Add(1)
		go func(shard []*domainRing) {
			defer wg.Done()
			p := m.ep.pin()
			defer m.ep.unpin(p)
			for _, r := range shard {
				n, err := m.drainRingPar(r, trace.GlobalCore, dc)
				m.noteDrainError(err)
				resMu.Lock()
				results[r.owner] = ringDrainResult{n: n, err: err}
				resMu.Unlock()
			}
		}(shard)
	}
	wg.Wait()

	// Phase B: one shared grace period for every publish of the round,
	// then the deferred phase-2s in deterministic (ring, descriptor)
	// order with the shootdown accumulator armed — at most one
	// cross-ring round for the whole drain.
	pend := dc.pendings
	sort.Slice(pend, func(i, j int) bool {
		if pend[i].ring != pend[j].ring {
			return pend[i].ring < pend[j].ring
		}
		return pend[i].idx < pend[j].idx
	})
	var total uint64
	for _, r := range results {
		total += r.n
	}
	if len(pend) > 0 {
		m.ep.synchronizeShared(dc.maxPub, len(pend))
		m.mach.BeginShootdownBatch()
		affected := make(map[cap.OwnerID]bool)
		var acts []cap.CleanupAction
		for i, p := range pend {
			if DrainBugArmed && i == 0 {
				// Seeded mutation (drainbug build tag): the first ring's
				// deferred revocation skips the round's coalescing — its
				// flush cleanups run as immediate, unbatched shootdown
				// rounds inside the drain frame, which the checker's
				// cross-ring coalescing property must flag.
				r0, c0 := m.mach.EndShootdownBatch()
				m.stats.ringShootdowns.Add(uint64(r0))
				m.stats.ringOpsCoalesced.Add(uint64(c0))
				if err := m.bk.ExecuteCleanups(p.det.Actions()); err != nil {
					m.noteDrainError(err)
				}
				m.mach.BeginShootdownBatch()
			} else if err := m.bk.ExecuteCleanups(p.det.Actions()); err != nil {
				m.noteDrainError(err)
			}
			acts = append(acts, p.det.Actions()...)
			for _, o := range p.det.ParentOwners() {
				affected[o] = true
			}
			affected[p.owner] = true
			m.space.Release(p.det)
			det := p.det
			m.ep.deferFree(func() { m.space.Reclaim(det) })
		}
		rounds, coalesced := m.mach.EndShootdownBatch()
		m.stats.ringShootdowns.Add(uint64(rounds))
		m.stats.ringOpsCoalesced.Add(uint64(coalesced))
		resync := make([]cap.OwnerID, 0, len(affected))
		for o := range affected {
			resync = append(resync, o)
		}
		sort.Slice(resync, func(i, j int) bool { return resync[i] < resync[j] })
		if err := m.resyncAfterRevocation(acts, resync...); err != nil {
			m.noteDrainError(err)
		}
	}
	m.mach.Trace(trace.GlobalCore, trace.KDrainEnd, 0, total, tok, 0, 0)
	return total, results
}

// drainRingPar is drainRingLocked's Phase-A form: identical batch
// framing, validation, abort, and counter discipline, but descriptors
// execute through ringExecPar (revokes publish-only, phase-2 deferred
// into dc) and no per-ring shootdown batch is armed — the round's
// coordinator owns the one cross-ring batch. Runs on a worker
// goroutine with its own epoch pin; everything it touches is either
// ring-local (one worker per ring), atomic, or internally
// synchronised.
func (m *Monitor) drainRingPar(r *domainRing, core int32, dc *drainCtx) (uint64, error) {
	mem := m.mach.Mem
	if err := m.ringRevalidate(r); err != nil {
		m.ringDrop(r.owner)
		return 0, err
	}
	tail, err := mem.Read64(r.base + RingOffSQTail)
	if err != nil {
		return 0, err
	}
	head := r.head.Load()
	pending := tail - head
	if pending == 0 {
		return 0, nil
	}
	if pending > r.entries {
		return 0, m.deny("domain %d ring tail %d overruns head %d by more than %d entries",
			r.owner, tail, head, r.entries)
	}

	tok := m.opTok.Add(1)
	m.mach.Trace(core, trace.KBatchBegin, uint64(r.owner), pending, tok, 0, 0)

	var executed uint64
	aborted := false
	for i := head; i != tail; i++ {
		off := phys.Addr(RingSQOff(r.entries, i))
		var desc [6]uint64
		readErr := error(nil)
		for w := range desc {
			if desc[w], readErr = mem.Read64(r.base + off + phys.Addr(8*w)); readErr != nil {
				break
			}
		}
		if readErr != nil {
			aborted = true
			break
		}
		status, result := m.ringExecPar(r.owner, i, dc, desc[0], desc[1], desc[2], desc[3], desc[4], desc[5])
		executed++
		if err := m.ringRevalidate(r); err != nil {
			aborted = true
			break
		}
		cq := phys.Addr(RingCQOff(r.entries, i))
		if err := mem.Write64(r.base+cq, status); err != nil {
			aborted = true
			break
		}
		if err := mem.Write64(r.base+cq+8, result); err != nil {
			aborted = true
			break
		}
	}
	head = r.head.Add(executed)
	if !aborted {
		if err := mem.Write64(r.base+RingOffSQHead, head); err == nil {
			_ = mem.Write64(r.base+RingOffCQTail, head)
		}
	}
	m.stats.ringOps.Add(executed)
	m.stats.ringFlushes.Add(1)
	m.mach.Trace(core, trace.KBatchEnd, uint64(r.owner), executed, tok, 0, 0)
	if aborted {
		m.ringDrop(r.owner)
		return executed, m.deny("domain %d lost its ring mid-batch after %d ops", r.owner, executed)
	}
	return executed, nil
}

// ringExecPar executes one descriptor within a parallel round. All
// verbs behave exactly as ringExec's, except CallRevoke, which runs
// only its publish step — the shared grace and the phase-2 effects
// retire with the round.
func (m *Monitor) ringExecPar(owner DomainID, idx uint64, dc *drainCtx, verb, a1, a2, a3, a4, a5 uint64) (status, result uint64) {
	if verb != CallRevoke {
		return m.ringExec(owner, verb, a1, a2, a3, a4, a5)
	}
	if err := m.revokePublish(owner, cap.NodeID(a1), idx, dc); err != nil {
		return StatusDenied, 0
	}
	return StatusOK, 0
}

// revokePublish is the publish half of revoke for parallel drains:
// the same authorisation and detach (concurrent-safe — the capability
// space serialises structural mutation internally), the same trace
// frame and counters, but the completion status is decided here and
// the irreversible tail is deferred into the round context. Sound
// because the publish is the only semantic commit point: grant
// suspensions persist until the round's Release, and no reader can
// see the subtree once Detach returns.
func (m *Monitor) revokePublish(caller DomainID, node cap.NodeID, idx uint64, dc *drainCtx) error {
	tok := m.opTok.Add(1)
	m.emit(trace.KOpBegin, caller, trace.OpRevoke, tok, 0, 0)
	defer m.emit(trace.KOpEnd, caller, trace.OpRevoke, tok, 0, 0)
	if _, err := m.liveDomain(caller); err != nil {
		return err
	}
	info, err := m.space.Node(node)
	if err != nil {
		return err
	}
	authorized := info.Owner == cap.OwnerID(caller)
	if !authorized && info.Parent != 0 {
		if p, err := m.space.Node(info.Parent); err == nil && p.Owner == cap.OwnerID(caller) {
			authorized = true
		}
	}
	if !authorized {
		return m.deny("domain %d may not revoke capability %d", caller, node)
	}
	det, err := m.space.Detach(node)
	if err != nil {
		return err
	}
	m.stats.capOps.Add(1)
	m.stats.revocations.Add(1)
	m.emit(trace.KRevoke, caller, 0, uint64(node), 0, 0)
	dc.addPending(pendingRevoke{det: det, owner: info.Owner, ring: caller, idx: idx}, m.ep.publishTicket())
	return nil
}
