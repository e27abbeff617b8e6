package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/core"
	"github.com/tyche-sim/tyche/internal/fleet"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/image"
	"github.com/tyche-sim/tyche/internal/libtyche"
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/rv"
	"github.com/tyche-sim/tyche/internal/tpm"
)

const pg = phys.PageSize

// workload is one closed-loop load on one kind of world. Clients run
// rounds of perRound calls each; in a world with a between-rounds step
// (a pacer), the driving goroutine runs it after every round while no
// client is active.
type workload struct {
	name     string
	why      string
	clients  int
	perRound int
	// A timed window boots a fresh world, runs warmRounds untimed and
	// then windowRounds timed: a fixed amount of work from a fixed
	// history, so that a faster commit is not measured on a world its
	// own speed has aged further.
	warmRounds, windowRounds int
	// opsPerCall is how many workload operations one client-visible call
	// completes: a request, a share+revoke pair or a migration hop is
	// one; a ring batch carries batchK pairs.
	opsPerCall int
	root       string // span name of the client-visible call
	setup      func(seed int64) (world, error)
}

// world is a booted system under one workload.
type world interface {
	// call issues client cl's next client-visible call, checking its
	// outcome before returning.
	call(cl *client) error
	// probe names what the counters are read from.
	probe() probe
	// finish runs the end-of-run correctness checks.
	finish() error
}

// pacer is a world with a between-rounds step, run on the driving
// goroutine after each round.
type pacer interface {
	between(sp *spanBuf) error
}

// client is one closed-loop load generator: its seeded stream and, in
// traced passes, its span buffer.
type client struct {
	id  int
	rng *rand.Rand
	sp  *spanBuf
}

func newClient(id int, seed int64) *client {
	return &client{id: id, rng: rand.New(rand.NewSource(seed*7919 + int64(id)))}
}

// probe is the set of machines, monitors and verification services a
// world's counters are summed over.
type probe struct {
	machs []*hw.Machine
	mons  []*core.Monitor
	rvs   []*rv.Service
	fleet *fleet.Fleet
}

var workloads = []workload{
	{
		name:         "serve",
		why:          "fleet request path: LB pick, mediated call, guest execution, reply check; bypasses revoke-time filter sync",
		clients:      2,
		perRound:     50,
		warmRounds:   10,
		windowRounds: 60,
		opsPerCall:   1,
		root:         "bench.request",
		setup:        newServeWorld,
	},
	{
		name:         "share",
		why:          "synchronous share/revoke churn between tenant enclaves; dominated by revoke-time device filter rebuilds",
		clients:      2,
		perRound:     10,
		warmRounds:   1,
		windowRounds: 10,
		opsPerCall:   1,
		root:         "bench.pair",
		setup:        func(seed int64) (world, error) { return newCapWorld(false) },
	},
	{
		name:         "batch",
		why:          "the same share/revoke pairs through the batched ring ABI and its drain path",
		clients:      2,
		perRound:     1,
		warmRounds:   1,
		windowRounds: 8,
		opsPerCall:   batchK,
		root:         "bench.batch",
		setup:        func(seed int64) (world, error) { return newCapWorld(true) },
	},
	{
		name:         "migrate",
		why:          "attested live migration hops: snapshot, JSON, AEAD channel, restore, re-attest, crypto-erase",
		clients:      1,
		perRound:     migrateVerifyEvery,
		warmRounds:   2,
		windowRounds: 25,
		opsPerCall:   1,
		root:         "bench.hop",
		setup:        newMigrateWorld,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// ---- serve ----

// invokeBudget bounds one request's simulated execution, as the fleet's
// own serving loop does.
const invokeBudget = 1_000_000

var serveTenants = []fleet.ServiceSpec{{Name: "alpha", Delta: 101}, {Name: "beta", Delta: 9091}}

// serveWorld is a 2-node fleet, 3 cores per node (the agent core plus
// two worker cores), hosting two tenants with a replica on each node.
// Client c owns worker core c of every node, so the clients never
// share a core. The world never drains or migrates: picked placements
// are not released (Placement.release is unexported), which only
// matters to a drain.
type serveWorld struct {
	f     *fleet.Fleet
	cores [][]phys.CoreID // cores[client][node]
}

func newServeWorld(seed int64) (world, error) {
	f, err := fleet.New(fleet.Config{Nodes: 2, CoresPerNode: 3, MemBytes: 16 << 20, Seed: seed})
	if err != nil {
		return nil, err
	}
	for _, s := range serveTenants {
		if err := f.Deploy(s, 2); err != nil {
			return nil, fmt.Errorf("deploy %s: %w", s.Name, err)
		}
	}
	w := &serveWorld{f: f, cores: make([][]phys.CoreID, 2)}
	for _, n := range f.Nodes {
		workers := n.Workers()
		if len(workers) != 2 {
			return nil, fmt.Errorf("%s has %d worker cores, want 2", n.Name, len(workers))
		}
		for c := range w.cores {
			w.cores[c] = append(w.cores[c], workers[c])
		}
	}
	return w, nil
}

func (w *serveWorld) call(cl *client) error {
	spec := serveTenants[cl.rng.Intn(len(serveTenants))]
	arg := uint32(cl.rng.Int31n(1 << 16))

	s := cl.sp.begin("fleet.pick")
	pl := w.f.LB().Pick(spec.Name)
	cl.sp.end(s)
	if pl == nil {
		return fmt.Errorf("serve: no live replica of %q", spec.Name)
	}
	n := w.f.Nodes[pl.Node]
	c := w.cores[cl.id][pl.Node]
	cpu := n.Mach.Core(c)
	cpu.Regs[2] = uint64(arg)

	s = cl.sp.begin("core.call")
	err := n.Mon.Call(c, pl.Dom)
	cl.sp.end(s)
	if err != nil {
		return fmt.Errorf("serve: call %q on %s: %w", spec.Name, n.Name, err)
	}
	s = cl.sp.begin("core.runcore")
	res, err := n.Mon.RunCore(c, invokeBudget)
	cl.sp.end(s)
	if err != nil {
		return fmt.Errorf("serve: run %q on %s: %w", spec.Name, n.Name, err)
	}
	if res.Trap.Kind != hw.TrapHalt || res.Domain != core.InitialDomain {
		return fmt.Errorf("serve: %q on %s stopped in domain %d with %v, want dom0 halted", spec.Name, n.Name, res.Domain, res.Trap)
	}
	if got, want := uint32(cpu.Regs[1]), arg+spec.Delta; got != want {
		return fmt.Errorf("serve: %q on %s replied %#x to %#x, want %#x", spec.Name, n.Name, got, arg, want)
	}
	return nil
}

func (w *serveWorld) between(sp *spanBuf) error {
	s := sp.begin("fleet.pulse")
	w.f.Pulse()
	sp.end(s)
	return w.f.Err()
}

func (w *serveWorld) probe() probe { return fleetProbe(w.f) }

func (w *serveWorld) finish() error {
	if err := w.f.Err(); err != nil {
		return err
	}
	return drainErrors(w.probe())
}

func fleetProbe(f *fleet.Fleet) probe {
	p := probe{fleet: f}
	for _, n := range f.Nodes {
		p.machs = append(p.machs, n.Mach)
		p.mons = append(p.mons, n.Mon)
		if n.SVC != nil {
			p.rvs = append(p.rvs, n.SVC)
		}
	}
	return p
}

func drainErrors(p probe) error {
	for i, m := range p.mons {
		if err := m.FirstDrainError(); err != nil {
			return fmt.Errorf("monitor %d: drain: %w", i, err)
		}
	}
	return nil
}

// ---- share / batch ----

const (
	// batchK is the ring size and the batch width: one batch is batchK
	// shares, a flush, a reap, batchK revokes, a flush, a reap.
	batchK = 16
	// sharePages is each tenant's pool of shareable heap pages.
	sharePages = 64
)

// capWorld is one machine with dom0 holding two DMA devices, and one
// tenant enclave plus its peer enclave per client. Each tenant shares
// pages of its own heap with its peer under TLB-flush cleanup and
// revokes them again.
type capWorld struct {
	mach    *hw.Machine
	mon     *core.Monitor
	tenants []*tenant

	flushes atomic.Uint64 // ring flushes issued
	descs   atomic.Uint64 // ring descriptors submitted
	base    core.Stats    // monitor counters when the load started
}

type tenant struct {
	dom, peer core.DomainID
	heapNode  cap.NodeID
	pool      phys.Region // the shareable pages
	ring      *libtyche.Ring
	nodes     [batchK]cap.NodeID
	pages     [batchK]phys.Addr
}

func haltImage(name string, heapPages uint64) *image.Image {
	a := hw.NewAsm()
	a.Hlt()
	img := image.NewProgram(name, a.MustAssemble(0))
	if heapPages > 0 {
		img = img.WithBSS(".heap", heapPages*pg)
	}
	return img
}

func newCapWorld(batched bool) (world, error) {
	mach, err := hw.NewMachine(hw.Config{
		MemBytes:            32 << 20,
		NumCores:            3,
		IOMMUAllowByDefault: true,
		Devices: []hw.DeviceConfig{
			{Name: "gpu0", Class: hw.DevAccelerator},
			{Name: "nic0", Class: hw.DevNIC},
		},
	})
	if err != nil {
		return nil, err
	}
	rot, err := tpm.New(nil)
	if err != nil {
		return nil, err
	}
	mon, err := core.Boot(core.BootConfig{Machine: mach, TPM: rot, Backend: core.BackendVTX})
	if err != nil {
		return nil, err
	}
	dom0 := libtyche.New(mon, core.InitialDomain)
	if err := dom0.AutoHeap(16); err != nil {
		return nil, err
	}
	w := &capWorld{mach: mach, mon: mon}
	ringPages := (core.RingBytes(batchK) + pg - 1) / pg
	for i := 0; i < 2; i++ {
		lo := libtyche.DefaultLoadOptions()
		lo.Cores = []phys.CoreID{phys.CoreID(i + 1)}
		ten, err := dom0.NewEnclave(haltImage(fmt.Sprintf("tenant%d", i), sharePages+ringPages), lo)
		if err != nil {
			return nil, fmt.Errorf("tenant %d: %w", i, err)
		}
		// The peer stays unsealed: a sealed domain receives no new
		// capabilities.
		peer, err := dom0.Load(haltImage(fmt.Sprintf("peer%d", i), 0), lo)
		if err != nil {
			return nil, fmt.Errorf("peer %d: %w", i, err)
		}
		if err := ten.Launch(phys.CoreID(i + 1)); err != nil {
			return nil, fmt.Errorf("tenant %d: launch: %w", i, err)
		}
		node, _ := ten.SegmentNode(".heap")
		heap, _ := ten.SegmentRegion(".heap")
		tc := ten.Client()
		if err := tc.SetHeap(node, heap); err != nil {
			return nil, fmt.Errorf("tenant %d: heap: %w", i, err)
		}
		t := &tenant{dom: ten.ID(), peer: peer.ID(), heapNode: node}
		if batched {
			if t.ring, err = tc.NewRing(batchK); err != nil {
				return nil, fmt.Errorf("tenant %d: ring: %w", i, err)
			}
		}
		if t.pool, err = tc.Alloc(sharePages); err != nil {
			return nil, fmt.Errorf("tenant %d: pool: %w", i, err)
		}
		w.tenants = append(w.tenants, t)
	}
	w.base = mon.Stats()
	return w, nil
}

// rightsWord is the ring ABI's rights argument: rights in the low half,
// cleanup policy in the high half.
const rightsWord = uint64(cap.MemRW) | uint64(cap.CleanFlushTLB)<<16

func (w *capWorld) call(cl *client) error {
	t := w.tenants[cl.id]
	if t.ring != nil {
		return w.batch(cl, t)
	}
	page := t.pool.Start + phys.Addr(cl.rng.Intn(sharePages))*pg
	s := cl.sp.begin("core.share")
	node, err := w.mon.Share(t.dom, t.heapNode, t.peer, cap.MemResource(phys.MakeRegion(page, pg)), cap.MemRW, cap.CleanFlushTLB)
	cl.sp.end(s)
	if err != nil {
		return fmt.Errorf("share: %w", err)
	}
	if err := w.access(cl, t.peer, page, true); err != nil {
		return err
	}
	s = cl.sp.begin("core.revoke")
	err = w.mon.Revoke(t.dom, node)
	cl.sp.end(s)
	if err != nil {
		return fmt.Errorf("revoke: %w", err)
	}
	return w.access(cl, t.peer, page, false)
}

// access checks that the peer can (want) or cannot (!want) read and
// write the page.
func (w *capWorld) access(cl *client, peer core.DomainID, page phys.Addr, want bool) error {
	s := cl.sp.begin("core.checkaccess")
	got := w.mon.CheckAccess(peer, page, cap.MemRW)
	cl.sp.end(s)
	if got != want {
		return fmt.Errorf("peer %d access to %#x is %v, want %v", peer, page, got, want)
	}
	return nil
}

// batch shares batchK distinct pages through the ring, checks them
// mapped, revokes them through the ring, and checks them gone.
func (w *capWorld) batch(cl *client, t *tenant) error {
	for i, p := range cl.rng.Perm(sharePages)[:batchK] {
		t.pages[i] = t.pool.Start + phys.Addr(p)*pg
		s := cl.sp.begin("libtyche.enqueue")
		err := t.ring.Enqueue(core.CallShare, uint64(t.heapNode), uint64(t.peer), uint64(t.pages[i]), pg, rightsWord)
		cl.sp.end(s)
		if err != nil {
			return fmt.Errorf("enqueue share: %w", err)
		}
	}
	cqs, err := w.flushReap(cl, t, "core.ringflush_share")
	if err != nil {
		return err
	}
	for i, cq := range cqs {
		t.nodes[i] = cap.NodeID(cq.Result)
		if err := w.access(cl, t.peer, t.pages[i], true); err != nil {
			return err
		}
	}
	for i := range t.nodes {
		s := cl.sp.begin("libtyche.enqueue")
		err := t.ring.Enqueue(core.CallRevoke, uint64(t.nodes[i]))
		cl.sp.end(s)
		if err != nil {
			return fmt.Errorf("enqueue revoke: %w", err)
		}
	}
	if _, err := w.flushReap(cl, t, "core.ringflush_revoke"); err != nil {
		return err
	}
	for _, page := range t.pages {
		if err := w.access(cl, t.peer, page, false); err != nil {
			return err
		}
	}
	return nil
}

// flushReap drains the ring as one batch and collects its completions,
// each of which must report success.
func (w *capWorld) flushReap(cl *client, t *tenant, name string) ([]libtyche.Completion, error) {
	s := cl.sp.begin(name)
	n, err := t.ring.Flush()
	cl.sp.end(s)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	w.flushes.Add(1)
	w.descs.Add(batchK)
	if n != batchK {
		return nil, fmt.Errorf("%s: drained %d descriptors, want %d", name, n, batchK)
	}
	s = cl.sp.begin("libtyche.reap")
	cqs, err := t.ring.Reap()
	cl.sp.end(s)
	if err != nil {
		return nil, fmt.Errorf("reap: %w", err)
	}
	if len(cqs) != batchK {
		return nil, fmt.Errorf("reap: %d completions, want %d", len(cqs), batchK)
	}
	for i, cq := range cqs {
		if cq.Status != 0 {
			return nil, fmt.Errorf("%s: completion %d status %d", name, i, cq.Status)
		}
	}
	return cqs, nil
}

func (w *capWorld) probe() probe {
	return probe{machs: []*hw.Machine{w.mach}, mons: []*core.Monitor{w.mon}}
}

// finish checks that the ring counters moved by exactly what was
// submitted, and not at all in the synchronous workload.
func (w *capWorld) finish() error {
	st := w.mon.Stats()
	if ops, want := st.RingOps-w.base.RingOps, w.descs.Load(); ops != want {
		return fmt.Errorf("ring: monitor executed %d descriptors, %d submitted", ops, want)
	}
	if fl, want := st.RingFlushes-w.base.RingFlushes, w.flushes.Load(); fl != want {
		return fmt.Errorf("ring: monitor counted %d flushes, %d issued", fl, want)
	}
	return drainErrors(w.probe())
}

// ---- migrate ----

// migrateVerifyEvery is how many hops run between two verification
// requests.
const migrateVerifyEvery = 4

var migrateTenant = fleet.ServiceSpec{Name: "pay", Delta: 777}

// migrateWorld is a 2-node fleet with one single-replica tenant that
// hops from node to node. It has one client: concurrent migrations
// between the same nodes would stage their frames in the same agent
// RDMA buffer, which the fleet does not serialize.
type migrateWorld struct {
	f    *fleet.Fleet
	hops int
}

func newMigrateWorld(seed int64) (world, error) {
	f, err := fleet.New(fleet.Config{Nodes: 2, CoresPerNode: 3, MemBytes: 16 << 20, Seed: seed})
	if err != nil {
		return nil, err
	}
	if err := f.Deploy(migrateTenant, 1); err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	return &migrateWorld{f: f, hops: len(f.Blackouts())}, nil
}

func (w *migrateWorld) call(cl *client) error {
	pls := w.f.LB().Placements(migrateTenant.Name)
	if len(pls) != 1 {
		return fmt.Errorf("migrate: %d placements before the hop, want 1", len(pls))
	}
	from := pls[0].Node
	to := 1 - from
	s := cl.sp.begin("fleet.migrate")
	err := w.f.Migrate(migrateTenant.Name, from, to, nil)
	cl.sp.end(s)
	if err != nil {
		return err
	}
	w.hops++
	pls = w.f.LB().Placements(migrateTenant.Name)
	if len(pls) != 1 || pls[0].Node != to {
		return fmt.Errorf("migrate: hop to node %d did not land (placements %d)", to, len(pls))
	}
	if got := len(w.f.Blackouts()); got != w.hops {
		return fmt.Errorf("migrate: %d blackouts recorded for %d hops", got, w.hops)
	}
	return nil
}

// between sends one request through the fleet's own serving path to the
// tenant that just moved; Serve checks the reply against the tenant's
// transform.
func (w *migrateWorld) between(sp *spanBuf) error {
	s := sp.begin("fleet.verify_serve")
	st, err := w.f.Serve([]string{migrateTenant.Name}, 1, 1)
	sp.end(s)
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	if st.Requests != 1 || st.Retries != 0 {
		return fmt.Errorf("verify: served %d requests with %d retries, want 1 and 0", st.Requests, st.Retries)
	}
	return nil
}

func (w *migrateWorld) probe() probe { return fleetProbe(w.f) }

func (w *migrateWorld) finish() error {
	audits, err := w.f.Audit()
	if err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	for _, a := range audits {
		if a.SelfErr != nil || len(a.Flags) != 0 {
			return fmt.Errorf("audit %s: self=%v flags=%v", a.Node, a.SelfErr, a.Flags)
		}
	}
	return drainErrors(w.probe())
}
