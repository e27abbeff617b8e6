package core

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tyche-sim/tyche/internal/backend"
	pmpbk "github.com/tyche-sim/tyche/internal/backend/pmp"
	"github.com/tyche-sim/tyche/internal/backend/vtx"
	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/sched"
	"github.com/tyche-sim/tyche/internal/tpm"
	"github.com/tyche-sim/tyche/internal/trace"
)

// BackendKind selects the enforcement backend at boot.
type BackendKind string

// Supported backends.
const (
	// BackendVTX is the x86_64 backend: EPT + VMCall + VMFUNC + IOMMU.
	BackendVTX BackendKind = "vtx"
	// BackendPMP is the RISC-V machine-mode backend: per-core PMP.
	BackendPMP BackendKind = "pmp"
)

// DefaultMonitorReserve is the physical memory the monitor keeps for
// itself at the top of the address space (self-protection).
const DefaultMonitorReserve = 1 << 20

// DefaultIdentity is the monitor "binary" measured at boot when the
// caller provides none. Changing the monitor implementation changes
// this blob, and therefore the PCR value remote verifiers compare
// against.
var DefaultIdentity = []byte("tyche-isolation-monitor-go/v1.0 capability-engine=tree refcounts=exact")

// BootConfig describes the platform the monitor boots on.
type BootConfig struct {
	// Machine is the hardware (required).
	Machine *hw.Machine
	// TPM is the root of trust (required).
	TPM *tpm.TPM
	// Backend selects enforcement ("vtx" default).
	Backend BackendKind
	// Identity is the monitor binary measured into the TPM
	// (DefaultIdentity if nil).
	Identity []byte
	// MonitorReserve is the self-protected memory size at the top of
	// RAM (DefaultMonitorReserve if zero).
	MonitorReserve uint64
	// Rand seeds the attestation key (crypto/rand if nil).
	Rand io.Reader
}

// Stats counts monitor-visible events for the experiment harness.
type Stats struct {
	VMExits      uint64 // traps into the monitor (calls, faults routed)
	Transitions  uint64 // mediated domain switches
	FastSwitches uint64
	Syscalls     uint64 // intra-domain ring crossings observed
	CapOps       uint64 // capability mutations via the API
	Revocations  uint64 // revoke operations
	Attests      uint64 // attestation reports produced
	DeniedOps    uint64 // API calls rejected by validation
	IRQsRouted   uint64 // device interrupts delivered by capability
	IRQsDropped  uint64 // interrupts with no capable receiver

	// Fault containment (contain.go).
	MachineChecks uint64 // hardware machine-check traps taken
	ForcedKills   uint64 // domains destroyed by the containment path
	PagesScrubbed uint64 // pages zeroed while reclaiming dead domains
	CoresParked   uint64 // cores taken out of scheduling after a fault

	// Multi-tenant scheduling (schedule.go; all zero in dedicated-core
	// mode).
	SchedDispatches  uint64 // vCPU dispatches by the scheduling engine
	SchedPreemptions uint64 // time slices ended by the preemption timer
	SchedYields      uint64 // time slices ended by CallYield
	SchedSteals      uint64 // dispatches that crossed cores (work stealing)
	SchedPurged      uint64 // vCPUs dropped because their domain died
	SchedCompleted   uint64 // vCPUs that ran to completion (halt)
	SchedMaxQueue    uint64 // deepest any single run queue ever got

	// Batched ABI rings (ring.go; all zero until a ring is set up).
	RingOps          uint64 // descriptors executed via submission rings
	RingFlushes      uint64 // non-empty ring drains (batches)
	RingShootdowns   uint64 // coalesced cross-core rounds those drains ran
	RingOpsCoalesced uint64 // logical shootdowns absorbed into those rounds
	RingDrainErrors  uint64 // per-ring drain failures surfaced by barrier drains

	// Parallel reclamation pipeline (drain.go; zero until
	// SetReclaimWorkers enables it).
	RingParallelDrains uint64 // cross-ring parallel drain rounds
	ScrubShards        uint64 // forced-scrub zeroing jobs run on fan-out workers

	// Pre-validated transition cache (transcache.go; opt-in).
	TransCacheHits   uint64 // switches that skipped full validation
	TransCacheMisses uint64 // cached-mode switches that took the slow path

	// Attested live migration (migrate.go).
	MigrationsOut uint64 // domain snapshots captured for departure
	MigrationsIn  uint64 // domains restored (and re-attested) on arrival
}

// statCounters is the monitor's live tally: one atomic per Stats field,
// so counters update without any lock and Stats() snapshots them
// allocation-free.
type statCounters struct {
	vmExits      atomic.Uint64
	transitions  atomic.Uint64
	fastSwitches atomic.Uint64
	syscalls     atomic.Uint64
	capOps       atomic.Uint64
	revocations  atomic.Uint64
	attests      atomic.Uint64
	deniedOps    atomic.Uint64
	irqsRouted   atomic.Uint64
	irqsDropped  atomic.Uint64

	machineChecks atomic.Uint64
	forcedKills   atomic.Uint64
	pagesScrubbed atomic.Uint64
	coresParked   atomic.Uint64

	schedDispatches  atomic.Uint64
	schedPreemptions atomic.Uint64
	schedYields      atomic.Uint64
	schedSteals      atomic.Uint64
	schedPurged      atomic.Uint64
	schedCompleted   atomic.Uint64
	schedMaxQueue    atomic.Uint64

	ringOps          atomic.Uint64
	ringFlushes      atomic.Uint64
	ringShootdowns   atomic.Uint64
	ringOpsCoalesced atomic.Uint64
	ringDrainErrors  atomic.Uint64

	ringParallelDrains atomic.Uint64
	scrubShards        atomic.Uint64

	tcHits   atomic.Uint64
	tcMisses atomic.Uint64

	migrationsOut atomic.Uint64
	migrationsIn  atomic.Uint64
}

func (s *statCounters) snapshot() Stats {
	return Stats{
		VMExits:       s.vmExits.Load(),
		Transitions:   s.transitions.Load(),
		FastSwitches:  s.fastSwitches.Load(),
		Syscalls:      s.syscalls.Load(),
		CapOps:        s.capOps.Load(),
		Revocations:   s.revocations.Load(),
		Attests:       s.attests.Load(),
		DeniedOps:     s.deniedOps.Load(),
		IRQsRouted:    s.irqsRouted.Load(),
		IRQsDropped:   s.irqsDropped.Load(),
		MachineChecks: s.machineChecks.Load(),
		ForcedKills:   s.forcedKills.Load(),
		PagesScrubbed: s.pagesScrubbed.Load(),
		CoresParked:   s.coresParked.Load(),

		SchedDispatches:  s.schedDispatches.Load(),
		SchedPreemptions: s.schedPreemptions.Load(),
		SchedYields:      s.schedYields.Load(),
		SchedSteals:      s.schedSteals.Load(),
		SchedPurged:      s.schedPurged.Load(),
		SchedCompleted:   s.schedCompleted.Load(),
		SchedMaxQueue:    s.schedMaxQueue.Load(),

		RingOps:          s.ringOps.Load(),
		RingFlushes:      s.ringFlushes.Load(),
		RingShootdowns:   s.ringShootdowns.Load(),
		RingOpsCoalesced: s.ringOpsCoalesced.Load(),
		RingDrainErrors:  s.ringDrainErrors.Load(),

		RingParallelDrains: s.ringParallelDrains.Load(),
		ScrubShards:        s.scrubShards.Load(),

		TransCacheHits:   s.tcHits.Load(),
		TransCacheMisses: s.tcMisses.Load(),

		MigrationsOut: s.migrationsOut.Load(),
		MigrationsIn:  s.migrationsIn.Load(),
	}
}

// domainTable is the immutable, atomically-published domain index. The
// read path (lookup, liveness via the domain's atomic state, Domains(),
// VMCall dispatch) loads the current table with one atomic pointer read
// and touches no lock. Only domain creation publishes a new table, under
// the exclusive monitor lock; domains are never removed from the table —
// death is a state transition, observed through Domain.State.
type domainTable struct {
	doms   map[DomainID]*Domain
	nextID DomainID
}

// coreSched is one core's scheduling state: the mediated call stack and
// the monitor's notion of the current domain. Each core has its own
// mutex, so transitions on different cores never contend.
type coreSched struct {
	mu     sync.Mutex
	frames []DomainID
	cur    DomainID
	hasCur bool

	// tcache holds this core's pre-validated transitions (transcache.go),
	// consulted only when the monitor's tcOn switch is set. Guarded by mu
	// like the rest of the per-core state; nil until the first fill.
	tcache map[tcKey]tcEntry
}

// Monitor is the isolation monitor instance controlling one machine.
//
// The monitor is safe for concurrent use. Instead of one big lock (the
// PR-1 design, still available under the biglock build tag), state is
// partitioned so the dominant operations run concurrently:
//
//   - Lock-free read path: domain lookup goes through an
//     atomically-published immutable table (tab); liveness is the
//     domain's atomic state; Stats are atomics; capability queries go
//     to the internally-synchronised cap.Space. Stats, Domain, Domains,
//     DomainKeyID, Enumerate, Attest's enumeration+signing, RefCounts,
//     and read-only VMCall dispatch take no monitor lock at all.
//   - The top-level monLock (lk) is a reader/writer lock that every
//     monitor entry now holds SHARED. Entries that rely on the state
//     they read staying reachable — delegations, transitions, seals,
//     copies, IRQ routing, attestation — additionally pin the epoch
//     engine (renter/rexit, epoch.go). The destructive family (Revoke,
//     KillDomain, ForceKill, containFault, ring drains) serialises on
//     revMu and follows the RCU discipline: publish the removal
//     (capability-subtree detach, atomic death state), synchronize
//     (wait for every pre-publish pin to drop), then run the
//     irreversible effects (cleanups, scrub, shootdown, hardware
//     resync, deferred record reclaim). Revocation therefore runs
//     concurrently with lock-free readers; only its publish steps are
//     serialized. Domain creation serialises on tabMu, the only other
//     writer of the published table.
//   - Per-domain mutexes (Domain.mu) guard one domain's mutable record
//     (entry point, measured regions, handlers, log); per-core mutexes
//     (coreSched.mu) guard one core's call stack and serialise
//     transitions on that core; hwMu serialises whole-machine hardware
//     resync (device filters, encryption keying); the capability space
//     shards its own locks per owner (see cap.Space).
//
// Lock order (documented, enforced by construction): lk (shared) →
// revMu / tabMu → coreSched.mu → Domain.mu (two domains in ascending
// DomainID) → hwMu → capability-space locks / hardware-object locks.
// Locks are only ever taken left-to-right; cap and hw locks are leaves,
// never held across calls back into the monitor. ep.synchronize is
// called while holding only lk (shared) + revMu, before any leaf lock,
// so a pinned reader can always finish. Go-level syscall and IRQ
// handlers are invoked with no monitor locks held — they re-enter the
// monitor through the public API like any caller. Under the biglock
// build tag lk is one mutex, no two entries overlap, synchronize never
// waits, and the whole scheme degenerates to stop-the-world.
type Monitor struct {
	lk monLock
	// hwMu serialises global hardware resynchronisation: IOMMU device
	// filters and memory-encryption keying, which read system-wide
	// capability state and write shared hardware objects.
	hwMu sync.Mutex

	// revMu serialises the destructive family — revoke, kill,
	// containment, ring drains — against itself: the single-writer side
	// of the epoch scheme. It nests directly under lk (held shared).
	revMu sync.Mutex
	// tabMu serialises domain creation, the only writer of the
	// published domain table besides boot.
	tabMu sync.Mutex
	// ep is the epoch-based reclamation engine (epoch.go): readers pin,
	// destructive operations synchronize and defer frees.
	ep epochEngine

	mach  *hw.Machine
	space *cap.Space
	bk    backend.Backend
	rot   *tpm.TPM

	identity  []byte
	monRegion phys.Region

	tab atomic.Pointer[domainTable]

	// opTok mints trace-frame tokens: KOpBegin/KOpEnd pairs carry one in
	// their Node field so the checker can match frames that interleave
	// (concurrent delegations under the shared lock).
	opTok atomic.Uint64

	attPriv ed25519.PrivateKey
	attPub  ed25519.PublicKey

	// sched holds per-core scheduling state; the map itself is built at
	// boot and never mutated, so indexing it is lock-free.
	sched map[phys.CoreID]*coreSched

	// memKeys maps domains to their MKTME keys (empty when the machine
	// has no engine), guarded by keyMu.
	keyMu   sync.Mutex
	memKeys map[DomainID]hw.KeyID

	// schedMu guards the opt-in multi-tenant scheduling state below
	// (schedule.go): the installed policy, domains scheduled before the
	// run queue exists, and the persistent run queue itself. It nests
	// under any monitor lock state (destruction purges the queue while
	// holding lk exclusively) and never holds another monitor lock; the
	// Scheduler's own mutex is a leaf below it.
	schedMu  sync.Mutex
	schedPol *sched.Policy
	schedSet []schedStaged
	runq     *sched.Scheduler

	// ringMu guards the submission-ring registry (ring.go). It is a
	// leaf below lk: setup registers under the shared lock, drains and
	// teardown walk it under the exclusive lock. ringCount mirrors
	// len(rings) so the scheduler's round barrier can skip the drain
	// entirely — one atomic load — when no domain ever set a ring up,
	// keeping unbatched runs cycle-identical to pre-ring builds.
	ringMu    sync.Mutex
	rings     map[DomainID]*domainRing
	ringCount atomic.Int64

	// tcOn enables the pre-validated transition cache (transcache.go).
	// Strictly opt-in: default-off keeps every transition byte-for-byte
	// on the pre-cache path.
	tcOn atomic.Bool

	// reclaimWorkers is the parallel reclamation pipeline's fan-out
	// (drain.go): ≤1 keeps ring drains and kill scrubs on the exact
	// serial paths (bit-identical cycle histories — the default); >1
	// lets DrainRings partition rings across that many host workers and
	// fans forced-scrub zeroing out the same way. Strictly opt-in via
	// SetReclaimWorkers, like tcOn.
	reclaimWorkers atomic.Int32

	// drainErrMu/firstDrainErr latch the first per-ring drain failure a
	// barrier drain swallowed, so tests and embedders can observe what
	// Stats().RingDrainErrors only counts.
	drainErrMu    sync.Mutex
	firstDrainErr error

	// checkpoint, when installed (SetCheckpoint), runs at the monitor's
	// quiescent points: scheduler round barriers, ring-drain doorbells,
	// and RunCores completion. The runtime-verification service
	// (internal/rv) registers its shard-merge step here so cross-core
	// trace properties resolve without ever serialising the emit path.
	checkpoint atomic.Pointer[func()]

	// hookDelegatePreEmit, when non-nil, runs inside delegateLocked
	// after the capability mutation and before the trace emit. Test-only
	// (never set outside _test files): the epoch mutation test parks a
	// delegation here to hold its pin open across a concurrent kill.
	hookDelegatePreEmit func(DomainID)

	stats statCounters
}

// Sentinel errors of the monitor API.
var (
	ErrNoSuchDomain = errors.New("core: no such domain")
	ErrDead         = errors.New("core: domain is dead")
	ErrDenied       = errors.New("core: operation denied")
	ErrSealedState  = errors.New("core: domain is sealed")
	ErrNoEntry      = errors.New("core: domain has no entry point")
	ErrNotRunning   = errors.New("core: no domain running on core")
)

// Boot measures and starts the isolation monitor, creating the initial
// domain with every resource except the monitor's reserved memory.
//
// The sequence mirrors §3.4: the TPM measures the boot process (firmware
// then monitor) so that a verifier can later confirm "the machine is
// under the complete control of a specific monitor implementation".
func Boot(cfg BootConfig) (*Monitor, error) {
	if cfg.Machine == nil || cfg.TPM == nil {
		return nil, fmt.Errorf("core: boot requires a machine and a TPM")
	}
	identity := cfg.Identity
	if identity == nil {
		identity = DefaultIdentity
	}
	reserve := cfg.MonitorReserve
	if reserve == 0 {
		reserve = DefaultMonitorReserve
	}
	if reserve%phys.PageSize != 0 || reserve >= cfg.Machine.Mem.Size() {
		return nil, fmt.Errorf("core: invalid monitor reserve %#x", reserve)
	}
	memTop := phys.Addr(cfg.Machine.Mem.Size())
	monRegion := phys.Region{Start: memTop - phys.Addr(reserve), End: memTop}

	m := &Monitor{
		mach:      cfg.Machine,
		space:     cap.NewSpace(),
		rot:       cfg.TPM,
		identity:  append([]byte(nil), identity...),
		monRegion: monRegion,
		sched:     make(map[phys.CoreID]*coreSched),
		memKeys:   make(map[DomainID]hw.KeyID),
		rings:     make(map[DomainID]*domainRing),
	}
	for _, c := range m.mach.CoreIDs() {
		m.sched[c] = &coreSched{}
	}
	m.ep.init()

	// Measured boot: firmware, then the monitor itself (DRTM-style).
	if err := m.rot.Extend(tpm.PCRFirmware, tpm.Measure([]byte("platform-firmware/v1")), "firmware"); err != nil {
		return nil, err
	}
	if err := m.rot.Extend(tpm.PCRMonitor, tpm.Measure(identity), "isolation-monitor"); err != nil {
		return nil, err
	}

	// The monitor's attestation key: generated at boot, bound to the
	// measured boot via TPM quotes (see BootQuote).
	pub, priv, err := ed25519.GenerateKey(cfg.Rand)
	if err != nil {
		return nil, fmt.Errorf("core: generating attestation key: %w", err)
	}
	m.attPub, m.attPriv = pub, priv

	// Enforcement backend.
	switch cfg.Backend {
	case BackendVTX, "":
		m.bk = vtx.New(cfg.Machine, m.space)
	case BackendPMP:
		b, err := pmpbk.New(cfg.Machine, m.space, monRegion)
		if err != nil {
			return nil, err
		}
		m.bk = b
	default:
		return nil, fmt.Errorf("core: unknown backend %q", cfg.Backend)
	}

	// Monitor self-protection: the reserved region belongs to domain 0
	// and is never delegated.
	if _, err := m.space.CreateRoot(cap.OwnerID(MonitorDomain), cap.MemResource(monRegion), cap.MemRW, cap.CleanNone); err != nil {
		return nil, err
	}

	// The monitor owns the IOMMU: deny-by-default from here on.
	m.mach.IOMMU.DefaultAllow = false

	// Initial domain: everything else.
	init := &Domain{id: InitialDomain, name: "dom0", creator: MonitorDomain}
	m.tab.Store(&domainTable{
		doms:   map[DomainID]*Domain{InitialDomain: init},
		nextID: InitialDomain + 1,
	})
	owner := cap.OwnerID(InitialDomain)
	if _, err := m.space.CreateRoot(owner, cap.MemResource(phys.Region{Start: 0, End: monRegion.Start}), cap.MemFull, cap.CleanNone); err != nil {
		return nil, err
	}
	for _, c := range m.mach.CoreIDs() {
		if _, err := m.space.CreateRoot(owner, cap.CoreResource(c), cap.CoreFull, cap.CleanNone); err != nil {
			return nil, err
		}
	}
	for _, d := range m.mach.DeviceIDs() {
		if _, err := m.space.CreateRoot(owner, cap.DeviceResource(d), cap.DeviceFull, cap.CleanNone); err != nil {
			return nil, err
		}
	}
	if err := m.bk.InstallDomain(owner); err != nil {
		return nil, err
	}
	if err := m.syncAllDevices(); err != nil {
		return nil, err
	}
	if err := m.syncEncryption(); err != nil {
		return nil, err
	}
	return m, nil
}

// Machine returns the underlying hardware (examples and the OS kit
// drive cores through it; enforcement still applies on every access).
func (m *Monitor) Machine() *hw.Machine { return m.mach }

// Backend returns the enforcement backend's name.
func (m *Monitor) Backend() string { return m.bk.Name() }

// MonitorRegion returns the monitor's self-protected memory.
func (m *Monitor) MonitorRegion() phys.Region { return m.monRegion }

// Stats returns an allocation-free snapshot of the monitor's event
// counters: every field is one atomic load. Each field is individually
// exact, but since the revocation family now runs under the shared
// lock too (epoch scheme), a snapshot may land between the
// logically-paired counter updates of an in-flight revoke — e.g. see
// CapOps already incremented but Revocations not yet. The tearing is
// bounded by the number of in-flight operations and resolves as soon
// as they retire; quiescent snapshots are exact. Delegations,
// transitions, and revocations are never blocked by a Stats reader.
func (m *Monitor) Stats() Stats {
	m.lk.rlock()
	defer m.lk.runlock()
	return m.stats.snapshot()
}

// LockWait returns the cumulative wall time monitor entries spent
// blocked acquiring the top-level monitor lock and the number of
// acquisitions — the contention signal C18 reports as wait share. The
// accounting is wall-clock only and never advances simulated cycles.
func (m *Monitor) LockWait() (time.Duration, uint64) { return m.lk.wait() }

// SetCheckpoint installs fn (nil removes it) to run at the monitor's
// quiescent points: every scheduler round barrier, every ring-drain
// doorbell, and RunCores completion. It is the hook the runtime-
// verification service (internal/rv) uses to merge its shard checkers
// where cross-core state is naturally settled. fn must be fast, must
// not call back into the monitor, and must never advance simulated
// cycles — checkpoints are host-side work, invisible to the cycle
// clock, which is what keeps cycle histories bit-identical with
// verification on or off.
func (m *Monitor) SetCheckpoint(fn func()) {
	if fn == nil {
		m.checkpoint.Store(nil)
		return
	}
	m.checkpoint.Store(&fn)
}

// runCheckpoint fires the installed checkpoint hook, if any: one
// atomic load on the (default) uninstalled path.
func (m *Monitor) runCheckpoint() {
	if f := m.checkpoint.Load(); f != nil {
		(*f)()
	}
}

// Identity returns the monitor binary that was measured at boot.
func (m *Monitor) Identity() []byte { return append([]byte(nil), m.identity...) }

// AttestationKey returns the monitor's public attestation key.
func (m *Monitor) AttestationKey() ed25519.PublicKey {
	out := make(ed25519.PublicKey, len(m.attPub))
	copy(out, m.attPub)
	return out
}

// Domain returns the domain record for id. Lock-free: the record comes
// from the published domain table.
func (m *Monitor) Domain(id DomainID) (*Domain, error) {
	return m.domain(id)
}

// domain looks id up in the published table (lock-free).
func (m *Monitor) domain(id DomainID) (*Domain, error) {
	d, ok := m.tab.Load().doms[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchDomain, id)
	}
	return d, nil
}

// Domains returns the IDs of all non-dead domains in ascending order,
// read from the published snapshot without taking any lock.
func (m *Monitor) Domains() []DomainID {
	tab := m.tab.Load()
	var out []DomainID
	for id := InitialDomain; id < tab.nextID; id++ {
		if d, ok := tab.doms[id]; ok && d.State() != StateDead {
			out = append(out, id)
		}
	}
	return out
}

// liveDomain resolves id to a live domain (lock-free). Liveness is a
// moment-in-time fact: a concurrent kill may publish death right after
// this returns. Callers that act on the answer hold an epoch pin, so
// the kill's irreversible effects (scrub, reclaim, KKill) wait for
// them to finish — the operation linearizes before the kill.
func (m *Monitor) liveDomain(id DomainID) (*Domain, error) {
	d, err := m.domain(id)
	if err != nil {
		return nil, err
	}
	if d.State() == StateDead {
		return nil, fmt.Errorf("%w: %d", ErrDead, id)
	}
	return d, nil
}

func (m *Monitor) deny(format string, args ...any) error {
	m.stats.deniedOps.Add(1)
	return fmt.Errorf("%w: %s", ErrDenied, fmt.Sprintf(format, args...))
}

// CreateDomain creates a new, empty trust domain. Any live domain may
// create children — isolation is not a privileged operation (§3.2:
// "software running in any trust domain can access the isolation
// monitor API").
//
// Creation publishes a new domain table under tabMu — it no longer
// stalls readers or the destructive family. The epoch pin orders the
// KCreate emit before any concurrent kill of the creator retires.
func (m *Monitor) CreateDomain(caller DomainID, name string) (DomainID, error) {
	p := m.renter()
	defer m.rexit(p)
	m.tabMu.Lock()
	defer m.tabMu.Unlock()
	if _, err := m.liveDomain(caller); err != nil {
		return 0, err
	}
	old := m.tab.Load()
	id := old.nextID
	d := &Domain{id: id, name: name, creator: caller}
	if err := m.bk.InstallDomain(cap.OwnerID(id)); err != nil {
		return 0, err
	}
	doms := make(map[DomainID]*Domain, len(old.doms)+1)
	for k, v := range old.doms {
		doms[k] = v
	}
	doms[id] = d
	m.tab.Store(&domainTable{doms: doms, nextID: id + 1})
	m.emit(trace.KCreate, id, uint64(caller), 0, 0, 0)
	return id, nil
}

// nodeOwnedBy validates that the capability node exists and belongs to
// owner.
func (m *Monitor) nodeOwnedBy(node cap.NodeID, owner DomainID) (cap.Info, error) {
	info, err := m.space.Node(node)
	if err != nil {
		return cap.Info{}, err
	}
	if info.Owner != cap.OwnerID(owner) {
		return cap.Info{}, m.deny("capability %d not owned by domain %d", node, owner)
	}
	return info, nil
}

// Share derives a shared child capability from caller's node for dst.
func (m *Monitor) Share(caller DomainID, node cap.NodeID, dst DomainID, sub cap.Resource, rights cap.Rights, cleanup cap.Cleanup) (cap.NodeID, error) {
	return m.delegate(caller, node, dst, sub, rights, cleanup, false)
}

// Grant transfers exclusive, revocable control of the sub-resource from
// caller's node to dst.
func (m *Monitor) Grant(caller DomainID, node cap.NodeID, dst DomainID, sub cap.Resource, rights cap.Rights, cleanup cap.Cleanup) (cap.NodeID, error) {
	return m.delegate(caller, node, dst, sub, rights, cleanup, true)
}

// delegate validates and performs one Share or Grant. It is an epoch-
// pinned reader entry: the capability space provides its own per-owner
// locking for the mutation, and hardware resync is serialised per
// affected domain. Two delegations between disjoint domain pairs run
// fully in parallel. A kill racing the delegation either loses the
// liveness check (it published death first) or waits out the pin in
// its grace period — in which case the delegated capability is part of
// the subtree its DetachOwner then revokes.
func (m *Monitor) delegate(caller DomainID, node cap.NodeID, dst DomainID, sub cap.Resource, rights cap.Rights, cleanup cap.Cleanup, grant bool) (cap.NodeID, error) {
	p := m.renter()
	defer m.rexit(p)
	return m.delegateLocked(caller, node, dst, sub, rights, cleanup, grant)
}

// delegateLocked is delegate with a monitor entry already held (a
// pinned reader entry from the public wrappers, the destructive entry
// on the ring drain path — the locks are not reentrant, so batch
// execution needs this entry point).
func (m *Monitor) delegateLocked(caller DomainID, node cap.NodeID, dst DomainID, sub cap.Resource, rights cap.Rights, cleanup cap.Cleanup, grant bool) (cap.NodeID, error) {
	op := trace.OpShare
	if grant {
		op = trace.OpGrant
	}
	tok := m.opTok.Add(1)
	m.emit(trace.KOpBegin, caller, op, tok, 0, 0)
	defer m.emit(trace.KOpEnd, caller, op, tok, 0, 0)
	if _, err := m.liveDomain(caller); err != nil {
		return 0, err
	}
	dd, err := m.liveDomain(dst)
	if err != nil {
		return 0, err
	}
	if _, err := m.nodeOwnedBy(node, caller); err != nil {
		return 0, err
	}
	var id cap.NodeID
	if grant {
		id, err = m.space.Grant(node, cap.OwnerID(dst), sub, rights, cleanup)
	} else {
		id, err = m.space.Share(node, cap.OwnerID(dst), sub, rights, cleanup)
	}
	if err != nil {
		m.stats.deniedOps.Add(1)
		return 0, err
	}
	m.stats.capOps.Add(1)
	if m.hookDelegatePreEmit != nil {
		m.hookDelegatePreEmit(dst)
	}
	kind := trace.KShare
	if grant {
		kind = trace.KGrant
	}
	var addr, size uint64
	if sub.Kind == cap.ResMemory {
		addr, size = uint64(sub.Mem.Start), sub.Mem.Size()
	}
	m.emit(kind, caller, uint64(dst), uint64(id), addr, size)
	cd, _ := m.domain(caller)
	if err := m.syncAfterChange(cd, dd, sub); err != nil {
		return 0, err
	}
	return id, nil
}

// Revoke revokes a capability and its entire derivation subtree. The
// caller must be the delegator (owner of the parent capability) or the
// owner of the node itself (dropping its own access) — "this keeps
// management code in control despite making policy configuration
// available to all software" (§3.2).
func (m *Monitor) Revoke(caller DomainID, node cap.NodeID) error {
	m.denter()
	defer m.dexit()
	return m.revoke(caller, node)
}

// revoke is Revoke with the destructive-family entry held (rlock +
// revMu — the guest ABI and ring drain paths share it). Revocation no
// longer stops the world; it follows the epoch discipline:
//
//	publish  — Detach removes the subtree from the capability index in
//	           one short structural critical section. New readers stop
//	           seeing the capabilities; grant suspensions persist, so
//	           the parents cannot re-delegate the regions yet.
//	quiesce  — synchronize waits out every reader that could have
//	           validated access before the detach. After it returns,
//	           no check-then-act entry still relies on revoked state.
//	reclaim  — cleanups (zero/flush + shootdowns) scrub the revoked
//	           state, Release hands the parents their access back,
//	           affected hardware is resynchronised, and the detached
//	           records go to the deferred-free list.
//
// The KOpBegin/KOpEnd frame brackets all of it, so the trace checker's
// shootdown-ack-inside-frame and scrub ordering invariants hold
// unchanged.
func (m *Monitor) revoke(caller DomainID, node cap.NodeID) error {
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
	m.ep.synchronize()
	if err := m.bk.ExecuteCleanups(det.Actions()); err != nil {
		return err
	}
	m.space.Release(det)
	alsoSync := append(det.ParentOwners(), info.Owner)
	if err := m.resyncAfterRevocation(det.Actions(), alsoSync...); err != nil {
		return err
	}
	m.ep.deferFree(func() { m.space.Reclaim(det) })
	return nil
}

// resyncAfterRevocation reprograms hardware state for every owner whose
// access changed. Destructive-family entry held — not exclusive — so
// each per-domain filter rebuild takes Domain.mu, exactly like the
// delegation path's syncAfterChange, keeping rebuilds for one domain
// serialised against concurrent delegations.
func (m *Monitor) resyncAfterRevocation(acts []cap.CleanupAction, alsoSync ...cap.OwnerID) error {
	affected := make(map[cap.OwnerID]bool)
	for _, a := range acts {
		affected[a.Owner] = true
	}
	for _, o := range alsoSync {
		affected[o] = true
	}
	tab := m.tab.Load()
	for o := range affected {
		if d, ok := tab.doms[DomainID(o)]; ok && d.State() != StateDead {
			d.mu.Lock()
			err := m.bk.SyncDomain(o)
			d.mu.Unlock()
			if err != nil {
				return err
			}
		}
	}
	ids := make([]DomainID, 0, len(affected))
	for o := range affected {
		ids = append(ids, DomainID(o))
	}
	var devs []phys.DeviceID
	for _, a := range acts {
		if a.Resource.Kind == cap.ResDevice {
			devs = append(devs, a.Resource.Device)
		}
	}
	if err := m.syncDevicesFor(devs, ids...); err != nil {
		return err
	}
	return m.syncEncryption()
}

// syncAfterChange refreshes hardware state after a delegation (pinned
// reader entry held). Domain filter rebuilds are serialised per domain
// by Domain.mu — taken one at a time, never as a held pair, so rings of
// delegating domains cannot convoy. Concurrent delegations touching the
// same domain are safe: each rebuild reads the capability space at
// rebuild time, so the last one to run sees (at least) all mutations
// committed before it. Revocations take Domain.mu for their rebuilds
// too (resyncAfterRevocation), and their scrub/reclaim effects wait out
// this entry's epoch pin, so a rebuild never reprograms a filter from
// state that is mid-reclaim.
func (m *Monitor) syncAfterChange(a, b *Domain, res cap.Resource) error {
	doms := []*Domain{a, b}
	if a == b {
		doms = doms[:1]
	}
	for _, d := range doms {
		d.mu.Lock()
		err := m.bk.SyncDomain(cap.OwnerID(d.id))
		d.mu.Unlock()
		if err != nil {
			return err
		}
	}
	if res.Kind == cap.ResDevice {
		m.hwMu.Lock()
		defer m.hwMu.Unlock()
		return m.bk.SyncDevice(res.Device)
	}
	// Memory movements can change what DMA-holding domains may reach,
	// and which regions are exclusive (encryption keying). Only devices
	// whose DMA holders include an affected domain can have changed —
	// scoped, so delegations between device-less domains skip the
	// global hardware lock entirely.
	if err := m.syncDevicesFor(nil, a.id, b.id); err != nil {
		return err
	}
	return m.syncEncryption()
}

// syncDevicesFor reprograms the IOMMU context of every device in devs
// and of every device whose DMA-holder set intersects the given
// domains. Delegation and revocation both scope their device resync
// through it; a revoked device capability names its device in devs,
// since its former holder is no longer in the holder set.
func (m *Monitor) syncDevicesFor(devs []phys.DeviceID, ids ...DomainID) error {
	owners := make([]cap.OwnerID, len(ids))
	for i, id := range ids {
		owners[i] = cap.OwnerID(id)
	}
	held := m.space.DMADevices(owners...)
	var affected []phys.DeviceID
	for _, dev := range m.mach.DeviceIDs() {
		if slices.Contains(devs, dev) || slices.Contains(held, dev) {
			affected = append(affected, dev)
		}
	}
	if len(affected) == 0 {
		return nil
	}
	m.hwMu.Lock()
	defer m.hwMu.Unlock()
	for _, dev := range affected {
		if err := m.bk.SyncDevice(dev); err != nil {
			return err
		}
	}
	return nil
}

// syncAllDevices reprograms every device's IOMMU context (boot only).
func (m *Monitor) syncAllDevices() error {
	m.hwMu.Lock()
	defer m.hwMu.Unlock()
	for _, d := range m.mach.DeviceIDs() {
		if err := m.bk.SyncDevice(d); err != nil {
			return err
		}
	}
	return nil
}

// SetEntry fixes the domain's entry point (§3.1: "domains have a fixed
// entry point"). Only the domain itself or its creator may configure it,
// and only before sealing.
func (m *Monitor) SetEntry(caller, id DomainID, entry phys.Addr) error {
	p := m.renter()
	defer m.rexit(p)
	d, err := m.liveDomain(id)
	if err != nil {
		return err
	}
	if caller != id && caller != d.creator {
		return m.deny("domain %d may not configure domain %d", caller, id)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.State() == StateSealed {
		return fmt.Errorf("%w: %d", ErrSealedState, id)
	}
	if !m.space.CheckMemAccess(cap.OwnerID(id), entry, cap.RightExec) {
		return m.deny("entry %v not executable by domain %d", entry, id)
	}
	d.entry = entry
	d.entrySet = true
	d.bumpCfgGen()
	return nil
}

// SetEntryRing selects the privilege ring the domain is entered in
// (kernel by default; sandboxes confining untrusted payloads enter in
// ring 3 so the domain's first-level filter applies from the first
// instruction). Same authorization and sealing rules as SetEntry.
func (m *Monitor) SetEntryRing(caller, id DomainID, ring hw.Ring) error {
	p := m.renter()
	defer m.rexit(p)
	d, err := m.liveDomain(id)
	if err != nil {
		return err
	}
	if caller != id && caller != d.creator {
		return m.deny("domain %d may not configure domain %d", caller, id)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.State() == StateSealed {
		return fmt.Errorf("%w: %d", ErrSealedState, id)
	}
	d.entryRing = ring
	d.bumpCfgGen()
	return nil
}

// AddMeasuredRegion marks a region of the domain's memory whose content
// is included in the seal-time measurement.
func (m *Monitor) AddMeasuredRegion(caller, id DomainID, r phys.Region) error {
	p := m.renter()
	defer m.rexit(p)
	d, err := m.liveDomain(id)
	if err != nil {
		return err
	}
	if caller != id && caller != d.creator {
		return m.deny("domain %d may not configure domain %d", caller, id)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.State() == StateSealed {
		return fmt.Errorf("%w: %d", ErrSealedState, id)
	}
	if err := r.Validate(); err != nil {
		return err
	}
	if !m.space.CheckMemAccess(cap.OwnerID(id), r.Start, cap.RightsNone) ||
		!m.space.CheckMemAccess(cap.OwnerID(id), r.End-1, cap.RightsNone) {
		return m.deny("measured region %v outside domain %d's resources", r, id)
	}
	d.measured = append(d.measured, r)
	return nil
}

// Seal freezes the domain's resource set and computes its measurement.
// A sealed domain can no longer receive resources; its attestation
// becomes stable (§3.1).
func (m *Monitor) Seal(caller, id DomainID) (tpm.Digest, error) {
	p := m.renter()
	defer m.rexit(p)
	return m.seal(caller, id)
}

// seal is Seal with the shared monitor lock held (the guest ABI path).
// The domain mutex serialises it against concurrent configuration of
// the same domain; the capability space orders the seal against
// in-flight delegations to the domain on its owner shard.
func (m *Monitor) seal(caller, id DomainID) (tpm.Digest, error) {
	d, err := m.liveDomain(id)
	if err != nil {
		return tpm.Digest{}, err
	}
	if caller != id && caller != d.creator {
		return tpm.Digest{}, m.deny("domain %d may not seal domain %d", caller, id)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.State() == StateSealed {
		return tpm.Digest{}, fmt.Errorf("%w: %d", ErrSealedState, id)
	}
	if !d.entrySet {
		return tpm.Digest{}, fmt.Errorf("%w: seal requires an entry point", ErrNoEntry)
	}
	var contents []MeasuredRegion
	for _, r := range phys.NormalizeRegions(d.measured) {
		data, err := m.mach.Mem.View(r)
		if err != nil {
			return tpm.Digest{}, err
		}
		contents = append(contents, MeasuredRegion{Region: r, Content: data})
	}
	d.measurement = ComputeMeasurement(d.entry, contents)
	d.setState(StateSealed)
	d.bumpCfgGen()
	m.space.Seal(cap.OwnerID(id))
	m.stats.capOps.Add(1)
	m.emit(trace.KSeal, id, uint64(caller), 0, 0, 0)
	return d.measurement, nil
}

// KillDomain destroys a domain: every capability it holds (and all
// capabilities ever derived from them) is revoked with its cleanup
// policies executed, and its hardware state is removed.
func (m *Monitor) KillDomain(caller, id DomainID) error {
	m.denter()
	defer m.dexit()
	d, err := m.liveDomain(id)
	if err != nil {
		return err
	}
	if caller != d.creator && caller != id {
		return m.deny("domain %d may not kill domain %d", caller, id)
	}
	if id == InitialDomain {
		return m.deny("the initial domain cannot be killed")
	}
	return m.destroyDomain(d, false)
}

// Enumerate returns the domain's resources as the attestation would
// list them: effective regions, rights, and system-wide reference
// counts (§3.4: "resource enumeration and reference counts make sharing
// and communication paths between domains explicit"). Lock-free: every
// query goes to the internally-synchronised capability space. Each
// record is individually consistent; a concurrent delegation may land
// between records, exactly as it may land right after Enumerate
// returns.
func (m *Monitor) Enumerate(id DomainID) ([]ResourceRecord, error) {
	if _, err := m.liveDomain(id); err != nil {
		return nil, err
	}
	return m.enumerate(cap.OwnerID(id)), nil
}

func (m *Monitor) enumerate(owner cap.OwnerID) []ResourceRecord {
	var out []ResourceRecord
	// One sweep of the reference-count map serves every record (the
	// per-region query is quadratic in enumeration size).
	rcs := m.space.RefCounts()
	maxRef := func(r phys.Region) int {
		max := 0
		for _, rc := range rcs {
			if rc.Region.Overlaps(r) && rc.Count > max {
				max = rc.Count
			}
		}
		return max
	}
	for _, g := range m.space.OwnerMemoryGrants(owner) {
		out = append(out, ResourceRecord{
			Resource: cap.MemResource(g.Region),
			Rights:   g.Rights,
			RefCount: maxRef(g.Region),
		})
	}
	for _, c := range m.space.OwnerCores(owner) {
		out = append(out, ResourceRecord{
			Resource: cap.CoreResource(c),
			Rights:   cap.RightRun,
			RefCount: m.space.CoreRefCount(c),
		})
	}
	for _, dev := range m.space.OwnerDevices(owner) {
		out = append(out, ResourceRecord{
			Resource: cap.DeviceResource(dev),
			Rights:   cap.RightUse,
			RefCount: m.space.DeviceRefCount(dev),
		})
	}
	return out
}

// RefCounts exposes the system-wide memory reference-count map
// (Figure 4). Lock-free at the monitor level.
func (m *Monitor) RefCounts() []cap.RegionCount {
	return m.space.RefCounts()
}

// CapGeneration exposes the capability space's mutation generation —
// every delegation or revocation bumps it, so concurrency tests can
// assert the monitor observed the expected volume of mutations.
func (m *Monitor) CapGeneration() uint64 {
	return m.space.Generation()
}

// LineageTree renders the capability derivation forest (diagnostics).
func (m *Monitor) LineageTree() string {
	return m.space.TreeString()
}

// OwnerNodes lists a domain's capability nodes (for libraries building
// on the API; capabilities are not secret from their owner).
func (m *Monitor) OwnerNodes(id DomainID) []cap.Info {
	return m.space.OwnerNodes(cap.OwnerID(id))
}

// CheckAccess reports whether a domain has effective access at an
// address (diagnostic / test hook; enforcement happens in hardware).
func (m *Monitor) CheckAccess(id DomainID, a phys.Addr, want cap.Rights) bool {
	return m.space.CheckMemAccess(cap.OwnerID(id), a, want)
}

// CopyInto writes data into the domain's memory after validating the
// domain holds write access over every touched page. Go-level domain
// logic (the OS kit, libraries, examples) uses this instead of raw
// physical writes so that the capability system is never bypassed.
// The epoch pin keeps the check-then-copy atomic against revocation:
// a concurrent revoke's scrub and reclaim wait out the pin, so a copy
// that validated access never lands on already-scrubbed memory.
func (m *Monitor) CopyInto(id DomainID, a phys.Addr, data []byte) error {
	p := m.renter()
	defer m.rexit(p)
	if err := m.checkRange(id, a, uint64(len(data)), cap.RightWrite); err != nil {
		return err
	}
	return m.mach.Mem.WriteAt(a, data)
}

// CopyFrom reads the domain's memory after validating read access.
func (m *Monitor) CopyFrom(id DomainID, a phys.Addr, n uint64) ([]byte, error) {
	p := m.renter()
	defer m.rexit(p)
	if err := m.checkRange(id, a, n, cap.RightRead); err != nil {
		return nil, err
	}
	buf := make([]byte, n)
	if err := m.mach.Mem.ReadAt(a, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

func (m *Monitor) checkRange(id DomainID, a phys.Addr, n uint64, want cap.Rights) error {
	if _, err := m.liveDomain(id); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	first := a.PageAlign()
	last := (a + phys.Addr(n) - 1).PageAlign()
	for p := first; ; p += phys.PageSize {
		if !m.space.CheckMemAccess(cap.OwnerID(id), p, want) {
			return m.deny("domain %d lacks %v at %v", id, want, p)
		}
		if p == last {
			break
		}
	}
	return nil
}

// SetReportData binds a domain-chosen digest into the domain's future
// attestation reports (the SGX REPORTDATA analogue). Only the domain
// itself may set it — it is runtime material (e.g. the hash of a
// key-exchange public key), settable even after sealing.
func (m *Monitor) SetReportData(caller, id DomainID, data tpm.Digest) error {
	p := m.renter()
	defer m.rexit(p)
	d, err := m.liveDomain(id)
	if err != nil {
		return err
	}
	if caller != id {
		return m.deny("only domain %d itself may set its report data", id)
	}
	d.mu.Lock()
	d.reportData = data
	d.mu.Unlock()
	return nil
}

// SetSyscallHandler installs the Go-level ring-0 trap handler for the
// domain (its "kernel").
func (m *Monitor) SetSyscallHandler(caller, id DomainID, h SyscallHandler) error {
	p := m.renter()
	defer m.rexit(p)
	d, err := m.liveDomain(id)
	if err != nil {
		return err
	}
	if caller != id && caller != d.creator {
		return m.deny("domain %d may not install handlers for domain %d", caller, id)
	}
	d.mu.Lock()
	d.syscall = h
	d.mu.Unlock()
	return nil
}

// DomainContext exposes the domain's per-core execution context to the
// domain's own privileged code (e.g. the OS kit managing its internal
// first-level filter). The monitor-controlled Filter inside it keeps
// enforcing regardless of what the domain does to OSFilter.
func (m *Monitor) DomainContext(caller, id DomainID, core phys.CoreID) (*hw.Context, error) {
	p := m.renter()
	defer m.rexit(p)
	d, err := m.liveDomain(id)
	if err != nil {
		return nil, err
	}
	if caller != id && caller != d.creator {
		return nil, m.deny("domain %d may not access domain %d's context", caller, id)
	}
	return m.bk.Context(cap.OwnerID(id), core)
}
