// Package backend defines the interface between the isolation monitor's
// platform-independent capability model and the platform-specific
// enforcement mechanisms (§3.3, §4: "operations on capabilities are
// validated and translated into platform-specific hardware
// configurations by Tyche's backend").
//
// Two backends exist, mirroring the paper's prototypes: vtx (x86_64:
// per-domain EPT, VMCall exits, VMFUNC fast switches, IOMMU contexts)
// and pmp (RISC-V machine mode: per-core PMP reprogramming with a fixed
// entry budget). They enforce identical capability semantics; the
// cross-backend differential tests check exactly that.
package backend

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/phys"
)

// Backend programs hardware access-control state from capability state.
type Backend interface {
	// Name identifies the backend ("vtx" or "pmp").
	Name() string

	// InstallDomain creates hardware state for a new trust domain.
	InstallDomain(owner cap.OwnerID) error

	// SyncDomain reprograms the domain's hardware access-control state
	// from the current capability space. Must be called after any
	// capability operation affecting the domain.
	SyncDomain(owner cap.OwnerID) error

	// RemoveDomain tears down the domain's hardware state.
	RemoveDomain(owner cap.OwnerID) error

	// Context returns the domain's execution context for a core,
	// creating it on first use.
	Context(owner cap.OwnerID, core phys.CoreID) (*hw.Context, error)

	// Transition switches core to the target domain's context and
	// charges the hardware cost. fast requests the VMFUNC-style switch,
	// available only between pre-registered pairs on backends that
	// support it.
	Transition(core *hw.Core, to cap.OwnerID, fast bool) error

	// RegisterFastPair authorises fast transitions between a and b on
	// core. Backends without a fast mechanism return ErrNoFastPath.
	RegisterFastPair(core phys.CoreID, a, b cap.OwnerID) error

	// SyncDevice reprograms the IOMMU context of dev from the
	// capability space (union of DMA-right holders' memory).
	SyncDevice(dev phys.DeviceID) error

	// ExecuteCleanups performs the cleanup actions emitted by a
	// revocation: zeroing memory, flushing caches and TLBs.
	ExecuteCleanups(acts []cap.CleanupAction) error
}

// Sentinel errors.
var (
	// ErrNoFastPath reports a fast transition that is not available:
	// unregistered pair, or a backend without a VMFUNC analogue.
	ErrNoFastPath = errors.New("backend: no fast transition path")
	// ErrUnknownDomain reports an owner with no installed hardware state.
	ErrUnknownDomain = errors.New("backend: unknown domain")
)

// PMPExhaustedError reports a domain memory layout that does not fit the
// PMP entry budget — the constraint the paper highlights for the RISC-V
// backend (§4).
type PMPExhaustedError struct {
	Owner     cap.OwnerID
	Needed    int
	Available int
}

func (e *PMPExhaustedError) Error() string {
	return fmt.Sprintf("backend: domain %d needs %d PMP entries, only %d available",
		e.Owner, e.Needed, e.Available)
}

// Common is what both backends share: machine, capability space, the
// owner-to-state table (S per domain, ASIDs from 1) and the device and
// cleanup methods. The table has its own RWMutex, as installation can
// race removal under the monitor's shared lock.
type Common[S any] struct {
	Mach  *hw.Machine
	Space *cap.Space

	mu       sync.RWMutex
	doms     map[cap.OwnerID]*S
	nextASID uint64
}

// AddDomain installs mk(asid) as owner's state under a fresh ASID.
func (c *Common[S]) AddDomain(owner cap.OwnerID, mk func(asid uint64) *S) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.doms[owner]; ok {
		return fmt.Errorf("domain %d already installed", owner)
	}
	if c.doms == nil {
		c.doms = make(map[cap.OwnerID]*S)
	}
	c.nextASID++
	c.doms[owner] = mk(c.nextASID)
	return nil
}

// Domain returns owner's state, or ErrUnknownDomain.
func (c *Common[S]) Domain(owner cap.OwnerID) (*S, error) {
	c.mu.RLock()
	st, ok := c.doms[owner]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownDomain, owner)
	}
	return st, nil
}

// DropDomain removes owner's state.
func (c *Common[S]) DropDomain(owner cap.OwnerID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.doms, owner)
}

// SyncDevice implements Backend: program dev's IOMMU context entry from
// capability state. The RISC-V platform model has no IOMMU contexts per
// se; it models an equivalent bus filter, so both backends make
// identical DMA accept/deny decisions.
func (c *Common[S]) SyncDevice(dev phys.DeviceID) error {
	filter, err := BuildDeviceFilter(c.Space, dev)
	if err != nil {
		return err
	}
	c.Mach.IOMMU.Attach(dev, filter)
	return nil
}

// ExecuteCleanups implements Backend: zero revoked memory, flush caches,
// and shoot down TLBs as each action's policy demands.
func (c *Common[S]) ExecuteCleanups(acts []cap.CleanupAction) error {
	return RunCleanups(c.Mach, acts)
}

// RightsToPerm maps capability memory rights onto hardware permissions.
func RightsToPerm(r cap.Rights) hw.Perm {
	var p hw.Perm
	if r.Has(cap.RightRead) {
		p |= hw.PermR
	}
	if r.Has(cap.RightWrite) {
		p |= hw.PermW
	}
	if r.Has(cap.RightExec) {
		p |= hw.PermX
	}
	return p
}

// FlattenGrants folds a domain's per-capability memory grants into
// minimal disjoint extents in address order, OR-ing permissions where
// capabilities overlap and merging adjacent equal-permission runs. Both
// backends program from this form.
func FlattenGrants(grants []cap.MemoryGrant) []hw.Extent {
	type ev struct {
		at    phys.Addr
		perm  hw.Perm
		delta int // +1 opens a grant, -1 closes it
	}
	events := make([]ev, 0, 2*len(grants))
	for _, g := range grants {
		p := RightsToPerm(g.Rights)
		if p == hw.PermNone || g.Region.Empty() {
			continue
		}
		events = append(events, ev{g.Region.Start, p, 1}, ev{g.Region.End, p, -1})
	}
	// Sweep with a count of open grants per permission set; close
	// before open at equal points.
	slices.SortFunc(events, func(a, b ev) int {
		if a.at != b.at {
			return cmp.Compare(a.at, b.at)
		}
		return cmp.Compare(a.delta, b.delta)
	})
	var counts [hw.PermRWX + 1]int
	var out []hw.Extent
	var prev phys.Addr
	cur := hw.PermNone
	for _, e := range events {
		if e.at > prev && cur != hw.PermNone {
			if n := len(out); n > 0 && out[n-1].Region.End == prev && out[n-1].Perm == cur {
				out[n-1].Region.End = e.at
			} else {
				out = append(out, hw.Extent{Region: phys.Region{Start: prev, End: e.at}, Perm: cur})
			}
		}
		prev = e.at
		counts[e.perm] += e.delta
		cur = hw.PermNone
		for perm, n := range counts {
			if n > 0 {
				cur |= hw.Perm(perm)
			}
		}
	}
	return out
}
