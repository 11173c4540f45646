// Package gamma assembles the simulated Gamma database machine of Figure 7
// — P operator nodes (CPU + elevator disk + buffer pool + relation
// fragment) plus a scheduler/host node and terminals — and runs closed
// multiprogramming-level experiments against it, measuring throughput the
// way the paper's Section 7 figures report it.
package gamma

import (
	"fmt"

	"repro/internal/buffer"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/rebalance"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/storage"
)

// Config fixes the machine's hardware and software constants.
type Config struct {
	HW    hw.Params
	Costs exec.Costs
	// BufferPages is the per-node buffer pool size in pages. The default
	// (24) keeps index roots and interiors resident while data pages still
	// pay I/O, matching the paper's disk-bound query costs; see DESIGN.md.
	BufferPages int
	// Layout of fragments and indexes.
	Layout storage.Layout
	// ClusteredAttr carries a clustered index on every node (the paper:
	// unique2/B); NonClusteredAttrs carry non-clustered indexes (unique1/A).
	ClusteredAttr     int
	NonClusteredAttrs []int
	// BERDFetchByTID switches BERD's second step to per-TID fetches
	// instead of predicate re-execution (ablation; see exec.Host).
	BERDFetchByTID bool
	// Metrics attaches an obs.Registry to the engine: facilities, disks,
	// buffer pools and the execution layer register latency histograms and
	// counters, and Run snapshots them into the result. Off by default —
	// the simulation schedule is identical either way, it only adds
	// bookkeeping cost.
	Metrics bool
	// Telemetry, when non-nil, arms windowed time-series sampling: every
	// reset builds a fresh obs.Sampler with per-node disk/CPU probes and
	// skew gauges, Run drives it on sim-time windows, and results carry the
	// series snapshot. Nil (the default) leaves the simulation schedule
	// byte-identical to a telemetry-free build.
	Telemetry *TelemetrySpec
	// Heat, when non-nil, arms fragment-granularity access accounting:
	// every reset builds a fresh obs.HeatMap whose accumulators the
	// execution layer increments allocation-free, results carry a
	// HeatSnapshot plus the HotFragments report, and — when Telemetry is
	// also armed — per-fragment decayed-heat series join the sampler. Nil
	// (the default) attaches no accumulators, so the simulation schedule
	// and all output stay byte-identical to a heat-free build.
	Heat *HeatSpec
	// Sharing, when non-nil, arms the shared-scan manager: concurrent
	// selections hitting the same fragment within the batching window are
	// predicate-grouped into one disk pass (exec.SharedScans), and results
	// carry SharingStats. Nil (the default) leaves the simulation schedule
	// byte-identical to a build without sharing support. Composes with
	// Faults/ChainedReplicas: batches are tagged with their members'
	// attempt epochs, so the degraded scheduler drops stale batch replies
	// the same way it drops stale lone-operator replies.
	Sharing *SharingSpec
	// Elastic, when non-nil, arms elastic cluster membership: the machine
	// builds one standby node per scheduled Join, installs a
	// rebalance.Controller that executes the membership schedule as
	// stage → throttled copy → atomic cutover, and promotes permanent node
	// crashes into repair tasks. Nil (the default) leaves the simulation
	// schedule byte-identical to a build without elasticity support.
	Elastic *ElasticSpec
	// Seed drives all machine-level randomness (disk latencies, workload).
	Seed int64

	// Faults, when Enabled, arms the deterministic fault injector: the spec's
	// events are applied as ordinary simulation events and the scheduler runs
	// in degraded mode. Nil (the default) leaves runs byte-identical to a
	// build without fault support.
	Faults *fault.Spec
	// ChainedReplicas mirrors every node's fragments (and BERD auxiliaries)
	// on its chain successor, giving degraded-mode execution a backup to
	// reroute to. Implied storage cost: 2x pages per node.
	ChainedReplicas bool
	// Retry overrides the degraded-mode retry/timeout policy; nil uses
	// exec.DefaultRetryPolicy. Only consulted when Faults or ChainedReplicas
	// put the scheduler in degraded mode.
	Retry *exec.RetryPolicy
}

// degradedMode reports whether the scheduler should run with deadlines,
// retries and replica rerouting.
func (c *Config) degradedMode() bool {
	return c.Faults.Enabled() || c.ChainedReplicas
}

// DefaultConfig returns the paper's configuration (Table 2, Section 6).
func DefaultConfig() Config {
	return Config{
		HW:                hw.DefaultParams(),
		Costs:             exec.DefaultCosts(),
		BufferPages:       24,
		Layout:            storage.DefaultLayout(),
		ClusteredAttr:     storage.Unique2,
		NonClusteredAttrs: []int{storage.Unique1},
		Seed:              1,
	}
}

// relationEntry is one declustered relation and its storage for one
// placement generation: the primaries by slot and any chain replicas in
// slot order. The machine's entries are laid out once and read-only after.
type relationEntry struct {
	rel       *storage.Relation
	placement core.Placement
	primary   []slotLayout
	backup    []slotLayout
}

// slotLayout is one slot's storage on a physical node: the fragment (whose
// Node is the slot) with its indexes, and BERD auxiliaries by attribute.
type slotLayout struct {
	node int
	frag *storage.Fragment
	aux  map[int]*storage.AuxFragment
}

// Machine is one assembled simulation instance: build it with Build (and
// optionally AddRelation), then call Run (repeatedly, with increasing MPL
// if desired — each Run uses a fresh engine). Relation and Placement refer
// to the primary relation, which Run's workload targets. Storage is laid
// out from Cfg when a relation is added; changing Cfg's layout, index or
// replica settings afterwards does not re-lay it.
type Machine struct {
	Cfg       Config
	Relation  *storage.Relation
	Placement core.Placement

	Eng     *sim.Engine
	Net     *hw.Network
	Nodes   []*exec.Node
	Host    *exec.Host
	Catalog *catalog.Catalog
	// Injector is armed when Cfg.Faults is enabled (rebuilt on every reset,
	// so each Run gets a fresh fault log); View is the scheduler's health
	// picture, non-nil whenever the machine runs in degraded mode.
	Injector *fault.Injector
	View     *fault.View
	// Telemetry is the windowed time-series sampler, non-nil when
	// Cfg.Telemetry is set (rebuilt on every reset so each run's series
	// start empty). Run and RunServe drive it; direct Eng users may call
	// Sample/Rebase themselves.
	Telemetry *obs.Sampler
	// Heat is the per-fragment accumulator map, non-nil when Cfg.Heat is
	// set (rebuilt on every reset). Run/RunServe reset it at the warm-up
	// boundary and snapshot it into the result.
	Heat *obs.HeatMap
	// Rebalancer is the elastic membership controller, non-nil when
	// Cfg.Elastic is set (rebuilt on every reset). Run/RunServe snapshot
	// its report into the result.
	Rebalancer *rebalance.Controller

	relations []*relationEntry
	// allocs are the per-physical-node page allocators (standbys included)
	// as the layout left them; elastic staging allocates from per-run copies.
	allocs []*storage.Allocator
}

// distribute splits the relation's tuples by home slot, in relation order,
// into exact-size slices of one array sized by a counting pass, and builds
// the BERD auxiliary assignments when applicable.
func distribute(rel *storage.Relation, placement core.Placement) ([][]storage.Tuple, map[int]map[int][]storage.AuxEntry, error) {
	p := placement.Processors()
	homes := make([]int, len(rel.Tuples))
	counts := make([]int, p)
	for i, t := range rel.Tuples {
		home := placement.HomeOf(t)
		if home < 0 || home >= p {
			return nil, nil, fmt.Errorf("gamma: placement sent tuple %d to processor %d of %d",
				t.TID, home, p)
		}
		homes[i] = home
		counts[home]++
	}
	all := make([]storage.Tuple, len(rel.Tuples))
	slots := make([][]storage.Tuple, p)
	off := 0
	for s, n := range counts {
		slots[s] = all[off : off : off+n]
		off += n
	}
	for i, t := range rel.Tuples {
		slots[homes[i]] = append(slots[homes[i]], t)
	}
	var aux map[int]map[int][]storage.AuxEntry
	if berd, ok := placement.(*core.BERDPlacement); ok {
		aux = berd.AuxAssignments(rel)
	}
	return slots, aux, nil
}

// layout declusters rel by placement and lays out slot s's primary on node
// members[s], then under chained declustering each slot's replica on its
// chain successor. Build passes slot i -> node i, elastic staging the new
// membership.
func (c *Config) layout(rel *storage.Relation, placement core.Placement, members []int, allocs []*storage.Allocator) (*relationEntry, error) {
	tuples, aux, err := distribute(rel, placement)
	if err != nil {
		return nil, err
	}
	e := &relationEntry{rel: rel, placement: placement}
	for s, phys := range members {
		e.primary = append(e.primary, c.layoutSlot(s, tuples[s], aux, phys, allocs[phys]))
	}
	// The replica holds the same tuples keyed by the same slot, so a
	// rerouted operator returns the identical result.
	for s := 0; c.ChainedReplicas && s < len(members); s++ {
		if b := core.ChainBackup(s, len(members)); b >= 0 {
			e.backup = append(e.backup, c.layoutSlot(s, tuples[s], aux, members[b], allocs[members[b]]))
		}
	}
	return e, nil
}

// layoutSlot lays out one slot on its node's allocator: the fragment, its
// clustered and non-clustered indexes, then its BERD auxiliaries.
func (c *Config) layoutSlot(slot int, tuples []storage.Tuple, aux map[int]map[int][]storage.AuxEntry, node int, alloc *storage.Allocator) slotLayout {
	frag := storage.BuildFragment(slot, tuples, c.ClusteredAttr, c.Layout, alloc)
	frag.AddIndex(c.ClusteredAttr, alloc)
	for _, a := range c.NonClusteredAttrs {
		frag.AddIndex(a, alloc)
	}
	l := slotLayout{node: node, frag: frag, aux: make(map[int]*storage.AuxFragment, len(aux))}
	for attr, perProc := range aux {
		l.aux[attr] = storage.BuildAux(slot, perProc[slot], c.Layout, alloc)
	}
	return l
}

// catalogInfo builds a laid-out relation's System Catalog entry
// (Figure 7): per-disk tuple/page counts and index metadata.
func (c *Config) catalogInfo(e *relationEntry) *catalog.RelationInfo {
	info := &catalog.RelationInfo{
		Name:        e.rel.Name,
		Cardinality: e.rel.Cardinality(),
		Placement:   e.placement,
		Nodes:       make(map[int]catalog.NodeStats, len(e.primary)),
	}
	for i, l := range e.primary {
		ns := catalog.NodeStats{Tuples: l.frag.NumTuples(), DataPages: l.frag.NumDataPages()}
		for _, attr := range append([]int{c.ClusteredAttr}, c.NonClusteredAttrs...) {
			ix := l.frag.Index(attr)
			ns.Indexes = append(ns.Indexes, catalog.IndexInfo{
				Attr:      attr,
				Name:      storage.AttrName(attr),
				Clustered: ix.Clustered,
				Pages:     ix.Tree.Pages(),
				Height:    ix.Tree.Height(),
			})
		}
		for _, aux := range l.aux {
			ns.AuxEntries += aux.Entries
			ns.AuxPages += aux.Tree.Pages()
		}
		info.Nodes[i] = ns
	}
	return info
}

// Build declusters the relation according to the placement and constructs
// the machine, laying out the relation's storage and catalog entry once
// (see AddRelation); each run rebuilds only the engine around them.
func Build(rel *storage.Relation, placement core.Placement, cfg Config) (*Machine, error) {
	p := placement.Processors()
	if err := cfg.Validate(p); err != nil {
		return nil, err
	}
	// One standby node per scheduled Join; standbys start empty.
	pPhys := p
	if cfg.Elastic != nil {
		pPhys += cfg.Elastic.schedule().Joins()
	}
	m := &Machine{
		Cfg:       cfg,
		Relation:  rel,
		Placement: placement,
		Catalog:   catalog.New(),
		allocs:    make([]*storage.Allocator, pPhys),
	}
	for i := range m.allocs {
		m.allocs[i] = storage.NewAllocator(cfg.HW.PagesPerDisk())
	}
	if err := m.AddRelation(rel, placement); err != nil {
		return nil, err
	}
	return m, nil
}

// AddRelation declusters a further relation onto the same machine (its
// placement must span the same processors), lays out its storage and
// catalog entry, and resets the simulation state. Names must be unique.
func (m *Machine) AddRelation(rel *storage.Relation, placement core.Placement) error {
	if placement.Processors() != m.Placement.Processors() {
		return fmt.Errorf("gamma: relation %s declustered over %d processors, machine has %d",
			rel.Name, placement.Processors(), m.Placement.Processors())
	}
	if _, dup := m.Catalog.Lookup(rel.Name); dup {
		return fmt.Errorf("gamma: relation %s already on the machine", rel.Name)
	}
	members := make([]int, placement.Processors()) // slot i on node i
	for i := range members {
		members[i] = i
	}
	e, err := m.Cfg.layout(rel, placement, members, m.allocs)
	if err != nil {
		return err
	}
	if err := m.Catalog.Register(m.Cfg.catalogInfo(e)); err != nil {
		return err
	}
	m.relations = append(m.relations, e)
	m.Reset()
	return nil
}

// Reset starts a run from a cold, deterministic state; Run, RunServe and
// SimulateLoad call it, as may direct users of Machine.Eng/Host. Storage
// (fragments, indexes, BERD auxiliaries, chain replicas) and the catalog
// are built once, at Build/AddRelation, and shared read-only by every run.
// Reset rebuilds only what a run mutates: the engine, CPUs, network, disks,
// buffer pools, nodes and host, the fault injector, sampler, heat map and
// rebalance controller. The previous engine is abandoned with its server
// processes still parked, which keeps its procs, hardware and buffer pools
// reachable (megabytes per run, not negligible over a campaign); that leak
// stays open until the engine can be closed (ROADMAP item 1).
func (m *Machine) Reset() {
	cfg := m.Cfg
	p := m.Placement.Processors()
	pPhys := len(m.allocs)
	eng := sim.New()
	if cfg.Metrics {
		eng.SetMetrics(obs.NewRegistry())
	}
	streams := rng.NewFactory(cfg.Seed)

	// Operator nodes carry CPUs; the host endpoint (index pPhys) is an
	// uncharged coordination module per Figure 7 (nil CPU).
	cpus := make([]*hw.CPU, pPhys+1)
	for i := 0; i < pPhys; i++ {
		cpus[i] = hw.NewCPU(eng, fmt.Sprintf("cpu%d", i), cfg.HW)
		cpus[i].SetNode(i)
	}
	net := hw.NewNetwork(eng, cfg.HW, cpus)

	nodes := make([]*exec.Node, pPhys)
	for i := 0; i < pPhys; i++ {
		disk := hw.NewDisk(eng, fmt.Sprintf("disk%d", i), cfg.HW, cpus[i],
			streams.Stream(fmt.Sprintf("disk%d", i)))
		disk.SetNode(i)
		pool := buffer.NewPool(eng, fmt.Sprintf("buf%d", i), cfg.BufferPages, disk)
		nodes[i] = exec.NewNode(eng, i, cfg.HW, cfg.Costs, net, cpus[i], disk, pool)
	}
	m.Nodes = nodes

	// Fragment heat accounting: one accumulator per physical fragment,
	// attached with the fragments below. Gated so a heat-free machine
	// attaches nothing and the execution hot path sees only nil handles
	// (whose increments no-op).
	m.Heat = nil
	if cfg.Heat != nil {
		m.Heat = obs.NewHeatMap()
	}
	for _, e := range m.relations {
		m.attach(e, false)
	}
	for _, n := range nodes {
		n.Start()
	}

	host := exec.NewHost(eng, pPhys, cfg.HW, net, cfg.Costs)
	for _, e := range m.relations {
		host.AddRelation(e.rel.Name, e.placement)
	}
	host.BERDFetchByTID = cfg.BERDFetchByTID
	host.Start()

	// Degraded mode and fault injection. Everything here is gated so that a
	// machine without faults or replicas takes none of these branches and
	// draws from no extra rng streams: its schedule stays byte-identical.
	m.Injector, m.View = nil, nil
	if cfg.degradedMode() {
		view := fault.NewView(pPhys)
		policy := exec.DefaultRetryPolicy()
		if cfg.Retry != nil {
			policy = *cfg.Retry
		}
		backup := func(int, int) int { return -1 }
		if cfg.ChainedReplicas {
			// slots is the live membership size captured by the collector
			// (zero on the build-time identity topology, meaning p).
			backup = func(slot, slots int) int {
				if slots <= 0 {
					slots = p
				}
				return core.ChainBackup(slot, slots)
			}
		}
		host.Degraded = &exec.Degraded{
			Policy: policy, View: view, Backup: backup,
			Jitter: streams.Stream("retry.jitter"),
		}
		m.View = view
		if cfg.Faults.Enabled() {
			targets := fault.Targets{
				Disks: make([]fault.DiskTarget, pPhys),
				Nodes: make([]fault.NodeTarget, pPhys),
				Net:   net,
			}
			for i, n := range nodes {
				targets.Disks[i] = n.Disk
				targets.Nodes[i] = n
			}
			if cfg.Faults.NetDropP > 0 || cfg.Faults.NetDupP > 0 {
				net.EnableFaults(streams.Stream("fault.net"), cfg.Faults.NetDropP, cfg.Faults.NetDupP)
			}
			m.Injector = fault.NewInjector(eng, *cfg.Faults, view, targets, streams)
			m.Injector.Start()
		}
	}

	// Shared scans: compose with degraded mode via attempt-tagged batches.
	if cfg.Sharing != nil {
		host.EnableSharing(cfg.Sharing.window())
	}

	m.Telemetry = nil
	if cfg.Telemetry != nil {
		m.Telemetry = newMachineSampler(cfg.Telemetry, nodes)
		if m.Heat != nil {
			registerHeatSeries(m.Telemetry, m.Heat, cfg.Heat, m.Placement.Name())
		}
	}

	m.Eng = eng
	m.Net = net
	m.Host = host

	// Elastic membership: the controller process walks the schedule on the
	// sim clock, staging each transition through elasticExec and copying
	// pages through the per-node pools/disks at the configured throttle.
	// Wired last so the executor sees the fully-assembled machine.
	m.Rebalancer = nil
	if cfg.Elastic != nil {
		standbys := make([]int, 0, pPhys-p)
		for i := p; i < pPhys; i++ {
			standbys = append(standbys, i)
		}
		cp := &rebalance.Copier{
			IO:              elasticIO{nodes: nodes},
			RatePagesPerSec: cfg.Elastic.rate(),
			PageBytes:       cfg.HW.PageSize,
		}
		ctl := rebalance.NewController(eng, cfg.Elastic.schedule(), p, standbys, newElasticExec(m), cp)
		ctl.Start()
		m.Rebalancer = ctl
		if m.Injector != nil {
			m.Injector.OnEvent = promoteCrashes(ctl)
		}
		if m.Telemetry != nil {
			registerRebalanceSeries(m.Telemetry, cp)
		}
	}
}

// attach hands a relation's storage to its nodes, primaries then replicas
// in slot order, wiring heat as it goes: serving at Reset, or staged for
// the next cutover by elastic Prepare.
func (m *Machine) attach(e *relationEntry, stage bool) {
	name := e.rel.Name
	addFrag, addAux := (*exec.Node).AddFragment, (*exec.Node).AddAux
	addBackup, addBackupAux := (*exec.Node).AddBackupFragment, (*exec.Node).AddBackupAux
	if stage {
		addFrag, addAux = (*exec.Node).StageFragment, (*exec.Node).StageAux
		addBackup, addBackupAux = (*exec.Node).StageBackupFragment, (*exec.Node).StageBackupAux
	}
	for _, l := range e.primary {
		addFrag(m.Nodes[l.node], name, l.frag)
		m.attachHeat(name, l.node, obs.FragPrimary, l.frag.FootprintPages())
		for attr, aux := range l.aux {
			addAux(m.Nodes[l.node], name, attr, aux)
			m.attachHeat(name, l.node, obs.FragAux, aux.FootprintPages())
		}
	}
	for _, l := range e.backup {
		addBackup(m.Nodes[l.node], name, l.frag)
		m.attachHeat(name, l.node, obs.FragBackup, l.frag.FootprintPages())
		for attr, aux := range l.aux {
			addBackupAux(m.Nodes[l.node], name, attr, aux)
			m.attachHeat(name, l.node, obs.FragAux, aux.FootprintPages())
		}
	}
}

// attachHeat wires one fragment's heat accumulator (no-op with heat off).
// Keyed by physical node, a replica's heat sums into its host disk, a
// node's primary and replica auxiliaries share one, and a migrating
// fragment's heat moves with it (querytrace -frags agrees mid-rebalance).
func (m *Machine) attachHeat(relation string, phys int, kind obs.FragKind, pages int) {
	if m.Heat == nil {
		return
	}
	h := m.Heat.Frag(relation, phys, kind)
	h.AddSize(int64(pages))
	m.Nodes[phys].AttachHeat(relation, kind, h)
}
