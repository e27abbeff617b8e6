package core

// Asynchronous batched ABI: an io_uring-style submission/completion
// ring per domain. A guest enqueues VMCall descriptors into a ring in
// its own memory with plain stores — no trap per operation — and the
// monitor drains the ring in one batch, either when the guest rings
// the doorbell (CallRingFlush, one trap amortised over the whole
// batch) or at the multi-tenant scheduler's round barriers, where all
// cores are quiescent anyway. The HotOS paper's pitch is that trust
// management must be cheap enough to use everywhere; the journal
// version (arXiv 2507.12364) makes low-cost composable monitor calls
// the foundation, and Sanctorum (arXiv 1812.10605) demands a minimal
// per-call monitor footprint. Batching amortises the footprint that
// cannot be eliminated: one VM exit, one monitor-lock acquisition, and
// — the big win — ONE cross-core TLB shootdown round per batch of
// revocations instead of one per revocation (hw.BeginShootdownBatch).
//
// Ring memory layout (all fields 64-bit little-endian words, base must
// be within memory the ring owner holds read+write):
//
//	+0x00  header (RingHeaderBytes):
//	       [0] entries   — capacity, written by the monitor at setup
//	       [1] sqTail    — free-running submit counter, guest-written
//	       [2] sqHead    — free-running consume counter, monitor-written
//	       [3] cqTail    — free-running completion counter, monitor-written
//	       [4..7]        — reserved
//	+0x40  entries × RingDescBytes submission descriptors:
//	       [0] verb (the ABI call number), [1..5] args r1..r5,
//	       [6..7] reserved
//	+0x40 + entries*0x40  entries × RingCQBytes completion entries:
//	       [0] status (the ABI status codes), [1] result (r1)
//
// Descriptor i's completion is posted at slot i%entries — submission
// and completion indices advance in lockstep, so the guest correlates
// by position. Indices are free-running (never wrap); slot = i % entries.
// The monitor trusts only sqTail from guest memory: the consume index
// is kept monitor-side and mirrored out for the guest's benefit.
//
// Trust and validation. Ring setup capability-checks the whole
// footprint for read+write under the shared lock and records the
// capability-space generation; a drain revalidates only when the
// generation moved — the "pre-validated" discipline the transition
// cache also uses. Because a batch can itself revoke the ring's
// backing memory (or grant it away), the drain rechecks after every
// executed descriptor that bumped the generation, and aborts the batch
// (dropping the registration and the remaining descriptors) the moment
// the owner loses access — the monitor never writes a completion into
// memory the owner no longer holds.
//
// Lock order: drains are destructive-family entries (shared monitor
// lock + revMu, epoch.go). Batches mix delegations with revocations,
// and one revMu section for the whole batch both amortises the
// acquisition and keeps the coalesced shootdown race-free — every
// shootdown call site in the monitor (batch drains, revocation
// cleanups, kill scrubs) runs under revMu, so arming the machine-level
// accumulator there is sound. Pinned readers keep flowing during a
// drain; each revocation the batch executes runs its own grace period
// before scrubbing. ringMu is a leaf below lk guarding only the
// registry map. A drain is also a quiescent point for the epoch
// engine's per-core counters.

import (
	"encoding/binary"
	"sort"
	"sync/atomic"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/trace"
)

// Ring layout constants (bytes).
const (
	// RingHeaderBytes is the size of the ring header.
	RingHeaderBytes = 64
	// RingDescBytes is the size of one submission descriptor.
	RingDescBytes = 64
	// RingCQBytes is the size of one completion entry.
	RingCQBytes = 16
	// MaxRingEntries bounds a ring's capacity.
	MaxRingEntries = 4096
)

// Header word offsets (bytes from ring base).
const (
	RingOffEntries = 0
	RingOffSQTail  = 8
	RingOffSQHead  = 16
	RingOffCQTail  = 24
)

// RingBytes returns the total footprint of a ring with the given
// capacity.
func RingBytes(entries uint64) uint64 {
	return RingHeaderBytes + entries*(RingDescBytes+RingCQBytes)
}

// RingSQOff returns the byte offset of submission slot i.
func RingSQOff(entries, i uint64) uint64 {
	return RingHeaderBytes + (i%entries)*RingDescBytes
}

// RingCQOff returns the byte offset of completion slot i.
func RingCQOff(entries, i uint64) uint64 {
	return RingHeaderBytes + entries*RingDescBytes + (i%entries)*RingCQBytes
}

// domainRing is the monitor's record of one domain's ring.
type domainRing struct {
	owner   DomainID
	base    phys.Addr
	entries uint64
	region  phys.Region
	// head is the authoritative consume index (the sqHead word in
	// guest memory is a mirror, never trusted). Only the ring's drainer
	// advances it; RingPending reads it without the drain's exclusion.
	head atomic.Uint64
	// capGen is the capability-space generation at the last successful
	// access validation of the ring footprint.
	capGen uint64
}

// RingSetup registers (or replaces) the caller's submission/completion
// ring at base with the given capacity. The whole footprint must lie
// in memory the caller holds read+write; the monitor initialises the
// header. Guests reach this via CallRingSetup (r1 = base,
// r2 = entries).
func (m *Monitor) RingSetup(caller DomainID, base phys.Addr, entries uint64) error {
	p := m.renter()
	defer m.rexit(p)
	if entries == 0 || entries > MaxRingEntries {
		return m.deny("ring capacity %d out of range [1,%d]", entries, MaxRingEntries)
	}
	size := RingBytes(entries)
	if err := m.checkRange(caller, base, size, cap.RightRead|cap.RightWrite); err != nil {
		return err
	}
	r := &domainRing{
		owner:   caller,
		base:    base,
		entries: entries,
		region:  phys.MakeRegion(base, size),
		capGen:  m.space.Generation(),
	}
	mem := m.mach.Mem
	if err := mem.Write64(base+RingOffEntries, entries); err != nil {
		return err
	}
	for _, off := range []uint64{RingOffSQTail, RingOffSQHead, RingOffCQTail} {
		if err := mem.Write64(base+phys.Addr(off), 0); err != nil {
			return err
		}
	}
	m.ringMu.Lock()
	if _, had := m.rings[caller]; !had {
		m.ringCount.Add(1)
	}
	m.rings[caller] = r
	m.ringMu.Unlock()
	return nil
}

// ringDrop unregisters a domain's ring (ringMu taken internally; any
// monitor-lock state). Used by drain aborts and domain destruction.
func (m *Monitor) ringDrop(id DomainID) {
	m.ringMu.Lock()
	if _, had := m.rings[id]; had {
		delete(m.rings, id)
		m.ringCount.Add(-1)
	}
	m.ringMu.Unlock()
}

// ringOf looks up a domain's ring.
func (m *Monitor) ringOf(id DomainID) (*domainRing, bool) {
	m.ringMu.Lock()
	r, ok := m.rings[id]
	m.ringMu.Unlock()
	return r, ok
}

// RingFlush drains the caller's ring now (the dedicated-mode doorbell;
// guests reach it via CallRingFlush, which charges the one VM exit the
// whole batch shares). It returns the number of descriptors executed.
func (m *Monitor) RingFlush(caller DomainID) (uint64, error) {
	return m.ringFlush(caller, trace.GlobalCore)
}

func (m *Monitor) ringFlush(caller DomainID, core int32) (uint64, error) {
	m.denter()
	defer m.dexit()
	if _, err := m.liveDomain(caller); err != nil {
		return 0, err
	}
	r, ok := m.ringOf(caller)
	if !ok {
		return 0, m.deny("domain %d has no ring (CallRingSetup first)", caller)
	}
	var n uint64
	var err error
	if w := int(m.reclaimWorkers.Load()); w > 1 && m.ringCount.Load() > 1 {
		// Parallel pipeline (opt-in): the doorbell drains EVERY
		// registered ring as one partitioned round — the flusher's trap
		// amortises over the fleet, and the round's revocations share
		// one grace period and one cross-ring shootdown. The caller
		// still observes exactly its own ring's count and error.
		_, results := m.drainRingsParallel(w)
		res, ok := results[caller]
		if !ok {
			// The caller's ring was dropped (dead owner or lost
			// footprint) before it could drain.
			res = ringDrainResult{err: m.deny("domain %d has no ring (CallRingSetup first)", caller)}
		}
		n, err = res.n, res.err
	} else {
		n, err = m.drainRingLocked(r, core)
	}
	// The doorbell is a quiescent point: the flushing guest is by
	// definition outside any other monitor entry on its core.
	if core >= 0 {
		m.ep.quiesce(phys.CoreID(core))
	}
	// Ring-drain doorbells double as runtime-verification merge points:
	// the drained batch's trace frame is complete here. Other cores may
	// still be emitting — the shard merge's stability gate defers
	// cross-core resolution in that case.
	m.runCheckpoint()
	return n, err
}

// DrainRings drains every registered ring (ascending owner ID, one
// destructive-family section) and returns the total descriptors
// executed. The multi-tenant engine calls it at every round barrier;
// dedicated-mode embedders may call it directly. With no rings
// registered it is one atomic load and returns immediately — unbatched
// runs never take a lock here.
func (m *Monitor) DrainRings() uint64 {
	if m.ringCount.Load() == 0 {
		return 0
	}
	m.ringMu.Lock()
	owners := make([]DomainID, 0, len(m.rings))
	for id := range m.rings {
		owners = append(owners, id)
	}
	m.ringMu.Unlock()
	sort.Slice(owners, func(i, j int) bool { return owners[i] < owners[j] })
	var total uint64
	m.denter()
	defer m.dexit()
	if w := int(m.reclaimWorkers.Load()); w > 1 && len(owners) > 1 {
		total, _ = m.drainRingsParallel(w)
		return total
	}
	for _, id := range owners {
		r, ok := m.ringOf(id)
		if !ok {
			continue
		}
		if d, err := m.domain(id); err != nil || d.State() == StateDead {
			m.ringDrop(id)
			continue
		}
		n, err := m.drainRingLocked(r, trace.GlobalCore)
		// A failed per-ring drain must not poison the other tenants'
		// rings, but it must not vanish either: count it and latch the
		// first occurrence for diagnosis (Stats().RingDrainErrors,
		// FirstDrainError).
		m.noteDrainError(err)
		total += n
	}
	return total
}

// drainRingLocked executes every pending descriptor in r as one batch
// (destructive-family entry held). The batch is bracketed by
// KBatchBegin/KBatchEnd trace events; shootdowns the executed
// operations request are coalesced into at most one cross-core round,
// retired before the batch closes so the checker's ack invariant holds
// unchanged. Returns the number of descriptors executed.
func (m *Monitor) drainRingLocked(r *domainRing, core int32) (uint64, error) {
	mem := m.mach.Mem
	// Revalidate ring access only if the capability space moved since
	// the last check (pre-validated fast path).
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
		// A malformed tail (guest overran its own ring) denies the whole
		// flush; nothing is consumed, so a fixed-up guest can retry.
		return 0, m.deny("domain %d ring tail %d overruns head %d by more than %d entries",
			r.owner, tail, head, r.entries)
	}

	tok := m.opTok.Add(1)
	m.mach.Trace(core, trace.KBatchBegin, uint64(r.owner), pending, tok, 0, 0)
	m.mach.BeginShootdownBatch()

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
		status, result := m.ringExec(r.owner, desc[0], desc[1], desc[2], desc[3], desc[4], desc[5])
		executed++
		// A batch may revoke (or grant away) its own ring memory;
		// recheck before the monitor writes into it on the owner's
		// behalf. On loss the batch aborts: remaining descriptors are
		// discarded with the registration.
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
		// Mirror progress for the guest (monitor-side head stays
		// authoritative).
		if err := mem.Write64(r.base+RingOffSQHead, head); err == nil {
			_ = mem.Write64(r.base+RingOffCQTail, head)
		}
	}
	rounds, coalesced := m.mach.EndShootdownBatch()
	m.stats.ringOps.Add(executed)
	m.stats.ringFlushes.Add(1)
	m.stats.ringShootdowns.Add(uint64(rounds))
	m.stats.ringOpsCoalesced.Add(uint64(coalesced))
	m.mach.Trace(core, trace.KBatchEnd, uint64(r.owner), executed, tok, 0, 0)
	if aborted {
		m.ringDrop(r.owner)
		return executed, m.deny("domain %d lost its ring mid-batch after %d ops", r.owner, executed)
	}
	return executed, nil
}

// ringRevalidate rechecks the owner's read+write access over the ring
// footprint iff the capability space changed since the last check.
func (m *Monitor) ringRevalidate(r *domainRing) error {
	gen := m.space.Generation()
	if gen == r.capGen {
		return nil
	}
	if err := m.checkRange(r.owner, r.base, r.region.Size(), cap.RightRead|cap.RightWrite); err != nil {
		return err
	}
	r.capGen = gen
	return nil
}

// ringExec executes one descriptor on behalf of owner (destructive-
// family entry held; batch shootdown armed). Only non-transfer verbs
// are ring-eligible: control transfers (call/return/fast-switch/yield)
// change which domain runs on a core and cannot be deferred into a
// drain; ring management itself doesn't nest. An ineligible or unknown
// verb fails its own completion with StatusBadCall without poisoning
// the rest of the batch, exactly as a denied op fails only itself.
func (m *Monitor) ringExec(owner DomainID, verb, a1, a2, a3, a4, a5 uint64) (status, result uint64) {
	switch verb {
	case CallSelfID:
		return StatusOK, uint64(owner)
	case CallLog:
		if d, ok := m.tab.Load().doms[owner]; ok {
			d.mu.Lock()
			d.logbuf = append(d.logbuf, a1)
			d.mu.Unlock()
		}
		return StatusOK, 0
	case CallEnumerateLen:
		return StatusOK, uint64(len(m.enumerate(cap.OwnerID(owner))))
	case CallShare, CallGrant:
		node := cap.NodeID(a1)
		dst := DomainID(a2)
		sub := cap.MemResource(phys.MakeRegion(phys.Addr(a3), a4))
		rights := cap.Rights(a5 & 0xffff)
		cleanup := cap.Cleanup(a5 >> 16)
		id, err := m.delegateLocked(owner, node, dst, sub, rights, cleanup, verb == CallGrant)
		if err != nil {
			return StatusDenied, 0
		}
		return StatusOK, uint64(id)
	case CallRevoke:
		if err := m.revoke(owner, cap.NodeID(a1)); err != nil {
			return StatusDenied, 0
		}
		return StatusOK, 0
	case CallSealSelf:
		if _, err := m.seal(owner, owner); err != nil {
			return StatusDenied, 0
		}
		return StatusOK, 0
	case CallAttest:
		var nonce [8]byte
		binary.LittleEndian.PutUint64(nonce[:], a1)
		rep, err := m.attestLocked(owner, nonce[:])
		if err != nil {
			return StatusDenied, 0
		}
		return StatusOK, binary.LittleEndian.Uint64(rep.Measurement[:8])
	default:
		return StatusBadCall, 0
	}
}

// ringTeardownLocked removes a dying domain's ring (destructive-family
// entry held, called from destroyDomain BEFORE the death publish and
// the detach destroy the domain's capabilities). The pending descriptors are never executed —
// dead-domain silence extends to queued work — and the header is
// scrubbed so a stale ring cannot be mistaken for live state by whoever
// inherits the memory. The scrub only runs if the dying owner still
// holds read+write over the footprint: the owner may have granted or
// shared the ring pages away since the last validation, and writing the
// header then would scribble on a surviving domain's memory — the same
// cross-domain write the drain path's revalidation guards against. On
// loss the registration is simply dropped; exclusively-held pages (the
// usual home of a ring) are zeroed wholesale by the forced-scrub path
// regardless.
func (m *Monitor) ringTeardownLocked(id DomainID) {
	r, ok := m.ringOf(id)
	if !ok {
		return
	}
	m.ringDrop(id)
	if err := m.ringRevalidate(r); err != nil {
		return
	}
	mem := m.mach.Mem
	for _, off := range []uint64{RingOffEntries, RingOffSQTail, RingOffSQHead, RingOffCQTail} {
		_ = mem.Write64(r.base+phys.Addr(off), 0)
	}
}

// RingPending returns how many descriptors are enqueued but not yet
// drained on the domain's ring (0 with no ring) — a test and
// diagnostics hook.
func (m *Monitor) RingPending(id DomainID) uint64 {
	// Look the ring up only after entering as a reader: a concurrent
	// RingSetup replaces the registration, and mixing the new ring's
	// tail with the old ring's head yields a garbage count.
	p := m.renter()
	defer m.rexit(p)
	r, ok := m.ringOf(id)
	if !ok {
		return 0
	}
	tail, err := m.mach.Mem.Read64(r.base + RingOffSQTail)
	if err != nil {
		return 0
	}
	return tail - r.head.Load()
}
