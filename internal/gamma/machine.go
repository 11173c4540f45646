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

// relationEntry is one declustered relation of the machine.
type relationEntry struct {
	rel        *storage.Relation
	placement  core.Placement
	fragTuples map[int][]storage.Tuple
	auxByAttr  map[int]map[int][]storage.AuxEntry
}

// Machine is one assembled simulation instance: build it with Build (and
// optionally AddRelation), then call Run (repeatedly, with increasing MPL
// if desired — each Run uses a fresh engine). Relation and Placement refer
// to the primary relation, which Run's workload targets.
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
	// allocs are the per-physical-node page allocators, retained so
	// elastic transitions can stage next-generation fragments on the same
	// disks the build laid out.
	allocs []*storage.Allocator
}

// distribute assigns every tuple its home processor and builds the BERD
// auxiliary assignments when applicable.
func distribute(rel *storage.Relation, placement core.Placement) (*relationEntry, error) {
	p := placement.Processors()
	e := &relationEntry{
		rel:        rel,
		placement:  placement,
		fragTuples: make(map[int][]storage.Tuple, p),
	}
	for _, t := range rel.Tuples {
		home := placement.HomeOf(t)
		if home < 0 || home >= p {
			return nil, fmt.Errorf("gamma: placement sent tuple %d to processor %d of %d",
				t.TID, home, p)
		}
		e.fragTuples[home] = append(e.fragTuples[home], t)
	}
	if berd, ok := placement.(*core.BERDPlacement); ok {
		e.auxByAttr = berd.AuxAssignments(rel)
	}
	return e, nil
}

// Build declusters the relation according to the placement and constructs
// the machine. The expensive parts (tuple distribution, BERD auxiliary
// construction) happen once; the simulation engine itself is rebuilt per
// Run so successive runs are independent.
func Build(rel *storage.Relation, placement core.Placement, cfg Config) (*Machine, error) {
	if err := cfg.Validate(placement.Processors()); err != nil {
		return nil, err
	}
	entry, err := distribute(rel, placement)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		Cfg:       cfg,
		Relation:  rel,
		Placement: placement,
		relations: []*relationEntry{entry},
	}
	m.reset()
	return m, nil
}

// AddRelation declusters a further relation onto the same machine (its
// placement must span the same processors) and rebuilds the simulation
// state. Relation names must be unique.
func (m *Machine) AddRelation(rel *storage.Relation, placement core.Placement) error {
	if placement.Processors() != m.Placement.Processors() {
		return fmt.Errorf("gamma: relation %s declustered over %d processors, machine has %d",
			rel.Name, placement.Processors(), m.Placement.Processors())
	}
	for _, e := range m.relations {
		if e.rel.Name == rel.Name {
			return fmt.Errorf("gamma: relation %s already on the machine", rel.Name)
		}
	}
	entry, err := distribute(rel, placement)
	if err != nil {
		return err
	}
	m.relations = append(m.relations, entry)
	m.reset()
	return nil
}

// Reset rebuilds the simulation engine, hardware, and storage so direct
// users of Machine.Eng/Host (single-query probes, joins) can start from a
// cold, deterministic state; Run and RunServe call it implicitly.
func (m *Machine) Reset() { m.reset() }

// reset rebuilds the simulation engine, hardware, and storage so a Run
// starts from a cold, deterministic state. Server processes of the previous
// engine (operator managers, NIC receivers) stay parked on the abandoned
// engine and are reclaimed with it; only their goroutine stacks linger
// until process exit, which is negligible at experiment scale.
func (m *Machine) reset() {
	cfg := m.Cfg
	p := m.Placement.Processors()
	// Elasticity builds one standby node per scheduled Join beyond the
	// initial membership; pPhys is the physical node count. Without an
	// elastic spec pPhys == p and the layout below is unchanged.
	pPhys := p
	if cfg.Elastic != nil {
		pPhys += cfg.Elastic.schedule().Joins()
	}
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

	cat := catalog.New()
	nodes := make([]*exec.Node, pPhys)
	allocs := make([]*storage.Allocator, pPhys)
	for i := 0; i < pPhys; i++ {
		disk := hw.NewDisk(eng, fmt.Sprintf("disk%d", i), cfg.HW, cpus[i],
			streams.Stream(fmt.Sprintf("disk%d", i)))
		disk.SetNode(i)
		pool := buffer.NewPool(eng, fmt.Sprintf("buf%d", i), cfg.BufferPages, disk)
		nodes[i] = exec.NewNode(eng, i, cfg.HW, cfg.Costs, net, cpus[i], disk, pool)
		allocs[i] = storage.NewAllocator(cfg.HW.PagesPerDisk())
	}

	// Fragment heat accounting: one accumulator per physical fragment,
	// attached as the fragments are built below. Gated so a heat-free
	// machine attaches nothing and the execution hot path sees only nil
	// handles (whose increments no-op).
	m.Heat = nil
	if cfg.Heat != nil {
		m.Heat = obs.NewHeatMap()
	}

	// Lay out every relation on every node and register each in the System
	// Catalog (Figure 7): per-disk tuple/page counts and index metadata.
	for _, entry := range m.relations {
		info := &catalog.RelationInfo{
			Name:        entry.rel.Name,
			Cardinality: entry.rel.Cardinality(),
			Placement:   entry.placement,
			Nodes:       make(map[int]catalog.NodeStats, p),
		}
		// Standby nodes (index >= p) start empty: they hold no fragments
		// until a join transition stages a new generation onto them.
		for i := 0; i < p; i++ {
			n := nodes[i]
			alloc := allocs[i]
			frag := storage.BuildFragment(i, entry.fragTuples[i], cfg.ClusteredAttr, cfg.Layout, alloc)
			frag.AddIndex(cfg.ClusteredAttr, alloc)
			for _, a := range cfg.NonClusteredAttrs {
				frag.AddIndex(a, alloc)
			}
			n.AddFragment(entry.rel.Name, frag)
			if m.Heat != nil {
				fh := m.Heat.Frag(entry.rel.Name, i, obs.FragPrimary)
				fh.AddSize(int64(frag.FootprintPages()))
				n.AttachHeat(entry.rel.Name, obs.FragPrimary, fh)
			}
			ns := catalog.NodeStats{
				Tuples:    frag.NumTuples(),
				DataPages: frag.NumDataPages(),
			}
			for _, attr := range append([]int{cfg.ClusteredAttr}, cfg.NonClusteredAttrs...) {
				if ix := frag.Index(attr); ix != nil {
					ns.Indexes = append(ns.Indexes, catalog.IndexInfo{
						Attr:      attr,
						Name:      storage.AttrName(attr),
						Clustered: ix.Clustered,
						Pages:     ix.Tree.Pages(),
						Height:    ix.Tree.Height(),
					})
				}
			}
			for attr, perProc := range entry.auxByAttr {
				aux := storage.BuildAux(i, perProc[i], cfg.Layout, alloc)
				n.AddAux(entry.rel.Name, attr, aux)
				if m.Heat != nil {
					ah := m.Heat.Frag(entry.rel.Name, i, obs.FragAux)
					ah.AddSize(int64(aux.FootprintPages()))
					n.AttachHeat(entry.rel.Name, obs.FragAux, ah)
				}
				ns.AuxEntries += aux.Entries
				ns.AuxPages += aux.Tree.Pages()
			}
			info.Nodes[i] = ns
		}
		// Chained declustering: mirror node i's fragment (and auxiliaries)
		// on its chain successor, laid out on the successor's own disk. The
		// replica holds the same tuples keyed by the same primary home, so a
		// rerouted operator returns the identical result.
		if cfg.ChainedReplicas {
			for i := 0; i < p; i++ {
				b := core.ChainBackup(i, p)
				if b < 0 {
					continue
				}
				alloc := allocs[b]
				frag := storage.BuildFragment(i, entry.fragTuples[i], cfg.ClusteredAttr, cfg.Layout, alloc)
				frag.AddIndex(cfg.ClusteredAttr, alloc)
				for _, a := range cfg.NonClusteredAttrs {
					frag.AddIndex(a, alloc)
				}
				nodes[b].AddBackupFragment(entry.rel.Name, frag)
				if m.Heat != nil {
					// Keyed by node b: the replica lives on b's disk, so
					// its heat sums into b's disk totals.
					bh := m.Heat.Frag(entry.rel.Name, b, obs.FragBackup)
					bh.AddSize(int64(frag.FootprintPages()))
					nodes[b].AttachHeat(entry.rel.Name, obs.FragBackup, bh)
				}
				for attr, perProc := range entry.auxByAttr {
					aux := storage.BuildAux(i, perProc[i], cfg.Layout, alloc)
					nodes[b].AddBackupAux(entry.rel.Name, attr, aux)
					if m.Heat != nil {
						// Backup aux shares node b's aux accumulator: both
						// live on the same disk and serve the same trees.
						ah := m.Heat.Frag(entry.rel.Name, b, obs.FragAux)
						ah.AddSize(int64(aux.FootprintPages()))
						nodes[b].AttachHeat(entry.rel.Name, obs.FragAux, ah)
					}
				}
			}
		}
		if err := cat.Register(info); err != nil {
			panic(err) // unreachable: names deduplicated in AddRelation
		}
	}
	for _, n := range nodes {
		n.Start()
	}

	host := exec.NewHost(eng, pPhys, cfg.HW, net, cfg.Costs)
	for _, entry := range m.relations {
		host.AddRelation(entry.rel.Name, entry.placement)
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
	m.Nodes = nodes
	m.Host = host
	m.Catalog = cat
	m.allocs = allocs

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
		topo := make([]int, p)
		for i := range topo {
			topo[i] = i
		}
		ctl := rebalance.NewController(eng, cfg.Elastic.schedule(), p, standbys, &elasticExec{m: m, topo: topo}, cp)
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
