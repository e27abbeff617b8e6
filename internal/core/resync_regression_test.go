package core

import (
	"fmt"
	"sync/atomic"
	"testing"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/phys"
)

// requireFilterMatchesSpace asserts that a domain's per-core hardware
// filters agree with the capability space about addr. The fuzzer's
// isolation invariant samples pages at a stride, which is how the
// grantor-resync bug below hid for several releases.
func requireFilterMatchesSpace(t *testing.T, m *Monitor, id DomainID, addr phys.Addr) {
	t.Helper()
	capOK := m.CheckAccess(id, addr, cap.RightRead)
	for c := phys.CoreID(0); c < phys.CoreID(len(m.Machine().Cores)); c++ {
		ctx, err := m.DomainContext(id, id, c)
		if err != nil {
			t.Fatalf("domain %d context on core %d: %v", id, c, err)
		}
		if hwOK := ctx.Filter.Check(addr, hw.PermR); hwOK != capOK {
			t.Errorf("domain %d at %#x core %d: hardware=%v capability=%v",
				id, addr, c, hwOK, capOK)
		}
	}
}

// TestKillResyncsGrantorFilter: regression for a latent revocation bug
// found by FuzzMonitorAPI (kept as corpus seed-kill-grantor-resync).
// When a domain holding an exclusive Grant dies, Release restores the
// grantor's suspended access in the capability space — but the resync
// pass only rebuilt filters for owners named in the detach's cleanup
// actions, so the grantor's hardware filter permanently lacked the
// granted-back region (hardware=false while capability=true). The fix
// records the surviving parents at detach time (Detached.ParentOwners)
// and resynchronises them too, on the kill, revoke, and parallel-drain
// paths alike.
func TestKillResyncsGrantorFilter(t *testing.T) {
	m := bootWorld(t, BackendVTX)
	node := dom0MemNode(t, m)
	base := phys.Addr(666 * pg)

	dom, err := m.CreateDomain(InitialDomain, "grantee")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Grant(InitialDomain, node, dom, cap.MemResource(phys.MakeRegion(base, pg)), cap.MemRW, cap.CleanNone); err != nil {
		t.Fatal(err)
	}
	if err := m.KillDomain(InitialDomain, dom); err != nil {
		t.Fatal(err)
	}
	if !m.CheckAccess(InitialDomain, base, cap.RightRead) {
		t.Fatal("grantor did not regain capability access after grantee's death")
	}
	requireFilterMatchesSpace(t, m, InitialDomain, base)
}

// TestRevokeResyncsGrantorFilter: the same property through the revoke
// path — the grantor revokes its own grant and must see the region in
// hardware again immediately.
func TestRevokeResyncsGrantorFilter(t *testing.T) {
	m := bootWorld(t, BackendVTX)
	node := dom0MemNode(t, m)
	base := phys.Addr(629 * pg)

	dom, err := m.CreateDomain(InitialDomain, "grantee")
	if err != nil {
		t.Fatal(err)
	}
	id, err := m.Grant(InitialDomain, node, dom, cap.MemResource(phys.MakeRegion(base, pg)), cap.MemRW, cap.CleanNone)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Revoke(InitialDomain, id); err != nil {
		t.Fatal(err)
	}
	if !m.CheckAccess(InitialDomain, base, cap.RightRead) {
		t.Fatal("grantor did not regain capability access after revoking its grant")
	}
	requireFilterMatchesSpace(t, m, InitialDomain, base)
}

// TestResyncWhileRunning: regression for the torn filter rebuild behind
// the multi-core fleet trap ("tenant trap: fault(0x4000 --x ...)"). The
// backends used to reprogram a running domain in two steps — the vtx
// SyncDomain cleared the EPT and then mapped each segment, the PMP path
// cleared the register file and then wrote each entry — so a core
// executing the domain in between fetched against an empty filter and
// faulted on its own code. Here dom0 spins on core 1 while API calls
// resynchronise its filter thousands of times; every run slice must end
// on its budget, never on a trap.
func TestResyncWhileRunning(t *testing.T) {
	for _, kind := range []BackendKind{BackendVTX, BackendPMP} {
		t.Run(string(kind), func(t *testing.T) {
			m := bootWorld(t, kind)
			node := dom0MemNode(t, m)
			peer, err := m.CreateDomain(InitialDomain, "peer")
			if err != nil {
				t.Fatal(err)
			}
			// Fragment dom0's layout below its code (within the PMP
			// budget), so a rebuild that programs segments in address
			// order leaves the code page unmapped for a while.
			for p := uint64(50); p <= 600; p += 50 {
				if _, err := m.Grant(InitialDomain, node, peer, memRes(p, 1), cap.MemRW, cap.CleanNone); err != nil {
					t.Fatal(err)
				}
			}
			code := phys.Addr(900 * pg)
			spin := hw.NewAsm()
			spin.Movi(1, uint32(code+pg)).Label("loop").Ld(2, 1, 0).Jmp("loop")
			if err := m.CopyInto(InitialDomain, code, spin.MustAssemble(code)); err != nil {
				t.Fatal(err)
			}
			if err := m.SetEntry(InitialDomain, InitialDomain, code); err != nil {
				t.Fatal(err)
			}
			if err := m.Launch(InitialDomain, 1); err != nil {
				t.Fatal(err)
			}
			// A strict TLB re-walks the filter after every generation
			// bump, as it would after a shootdown, so the core looks at
			// each table the rebuild publishes.
			m.Machine().Core(1).TLBUnit().Strict = true
			var stop atomic.Bool
			ran := make(chan error, 1)
			go func() {
				for !stop.Load() {
					res, err := m.RunCore(1, 500)
					if err == nil && res.Trap.Kind != hw.TrapNone {
						err = fmt.Errorf("dom0 trapped during resync: %v", res.Trap)
					}
					if err != nil {
						ran <- err
						return
					}
				}
				ran <- nil
			}()
			for i := 0; i < 2000 && len(ran) == 0; i++ {
				id, err := m.Share(InitialDomain, node, peer, memRes(700, 1), cap.MemRW, cap.CleanNone)
				if err != nil {
					t.Fatal(err)
				}
				if err := m.Revoke(InitialDomain, id); err != nil {
					t.Fatal(err)
				}
			}
			stop.Store(true)
			if err := <-ran; err != nil {
				t.Fatal(err)
			}
		})
	}
}
