package gamma

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/rebalance"
	"repro/internal/sim"
	"repro/internal/storage"
)

// ElasticSpec arms elastic cluster membership: a planned schedule of node
// joins/leaves/decommissions executed by a rebalance.Controller as
// stage → throttled background copy → atomic cutover, plus promotion of
// permanent node crashes (fault events with Dur == 0) into repair tasks.
// Nil (the default) builds no standby nodes, installs no controller, and
// leaves the simulation schedule byte-identical to a build without
// elasticity support.
type ElasticSpec struct {
	// Events is the planned membership schedule, offsets ascending. Join
	// events draw standby physical ids in order; the machine builds one
	// standby node per Join beyond the initial membership.
	Events []rebalance.Event
	// RatePagesPerSec throttles the background copier; <= 0 selects
	// rebalance.DefaultRatePagesPerSec.
	RatePagesPerSec int
	// Rebuild produces a relation's placement for a new processor count.
	// Required: every transition rebuilds each relation's placement from
	// scratch at the new membership size, which is what makes the
	// post-rebalance layout provably equal to a from-scratch build.
	Rebuild func(rel *storage.Relation, procs int) (core.Placement, error)
}

// validate checks the schedule against the initial membership.
func (s *ElasticSpec) validate(processors int) error {
	if s == nil {
		return nil
	}
	if s.Rebuild == nil {
		return fmt.Errorf("gamma: elastic spec requires a Rebuild placement factory")
	}
	sched := rebalance.Schedule{Events: s.Events}
	return sched.Validate(processors)
}

// schedule returns the validated rebalance schedule.
func (s *ElasticSpec) schedule() rebalance.Schedule {
	return rebalance.Schedule{Events: s.Events}
}

// rate returns the copier throttle.
func (s *ElasticSpec) rate() int {
	if s.RatePagesPerSec > 0 {
		return s.RatePagesPerSec
	}
	return rebalance.DefaultRatePagesPerSec
}

// elasticIO adapts the copier's page I/O onto the machine: reads go
// through the source node's buffer pool (migration competes for — and
// warms — the cache exactly like a query scan), writes go straight to the
// destination disk. Neither touches the node process, so a crashed node's
// disk remains readable — a node crash is not a disk failure, which is
// what lets repair drain a dead member's data.
type elasticIO struct {
	nodes []*exec.Node
}

func (io elasticIO) ReadPage(p *sim.Proc, node, page int) error {
	return io.nodes[node].Pool.Read(p, page)
}

func (io elasticIO) WritePage(p *sim.Proc, node, page int) error {
	return io.nodes[node].Disk.Write(p, page)
}

// elasticExec implements rebalance.Executor over the machine: Prepare
// stages the complete next-generation layout on the member nodes (old
// generation keeps serving) and returns the minimal page-move plan;
// Cutover atomically installs it everywhere. Both run on the controller's
// process between sim yields. The executor is per run and holds all the
// generation state, so every run starts from the machine's built layout.
type elasticExec struct {
	m *Machine
	// serving and staged hold every relation's serving and next
	// generation, in machine order; serving starts at the built layout.
	serving, staged []*relationEntry
	// allocs are this run's copies of the machine's allocators, which
	// staged generations take their pages from.
	allocs []*storage.Allocator
}

// newElasticExec starts a run's executor at the built layout.
func newElasticExec(m *Machine) *elasticExec {
	x := &elasticExec{m: m, serving: m.relations}
	for _, a := range m.allocs {
		run := *a
		x.allocs = append(x.allocs, &run)
	}
	return x
}

// Prepare rebuilds every relation's placement at the new membership size,
// stages fragments/indexes (and chain replicas) on the member nodes, and
// returns the move plan. Only tuples whose physical home changes cost
// I/O: same-node re-layout is free (the disk already holds the data;
// rewriting it in place is not the scarce resource the model charges), and
// BERD auxiliary rebuilds are likewise uncharged — both approximations are
// documented in DESIGN.md §13.
func (x *elasticExec) Prepare(t rebalance.Transition) (rebalance.Plan, error) {
	m := x.m
	nNew := len(t.Members)
	x.staged = make([]*relationEntry, 0, len(x.serving))
	var plan rebalance.Plan
	for _, entry := range x.serving {
		name := entry.rel.Name
		newPl, err := m.Cfg.Elastic.Rebuild(entry.rel, nNew)
		if err != nil {
			return rebalance.Plan{}, fmt.Errorf("gamma: rebuild %s at %d nodes: %w", name, nNew, err)
		}
		if newPl.Processors() != nNew {
			return rebalance.Plan{}, fmt.Errorf("gamma: rebuild %s returned a %d-processor placement, want %d",
				name, newPl.Processors(), nNew)
		}
		ne, err := m.Cfg.layout(entry.rel, newPl, t.Members, x.allocs)
		if err != nil {
			return rebalance.Plan{}, err
		}
		x.staged = append(x.staged, ne)
		m.attach(ne, true)

		// Locate every tuple's serving copy: its primary's node and page.
		type loc struct{ node, page int }
		oldLoc := make(map[int64]loc, len(entry.rel.Tuples))
		for _, l := range entry.primary {
			for i, tup := range l.frag.Tuples {
				oldLoc[tup.TID] = loc{node: l.node, page: l.frag.DataPageOfSlot(i)}
			}
		}

		// Collect the staged primaries' tuples whose physical home changes.
		var moves []rebalance.TupleMove
		for _, l := range ne.primary {
			for i, tup := range l.frag.Tuples {
				old, ok := oldLoc[tup.TID]
				if !ok {
					return rebalance.Plan{}, fmt.Errorf("gamma: tuple %d of %s has no serving copy", tup.TID, name)
				}
				if old.node == l.node {
					continue // same-node re-layout: no cross-node I/O
				}
				moves = append(moves, rebalance.TupleMove{
					Src: old.node, Dst: l.node,
					SrcPage: old.page, DstPage: l.frag.DataPageOfSlot(i),
				})
			}
		}
		plan.Merge(rebalance.BuildPlan(moves))

		// Chain replicas for the new membership: every slot's backup is
		// copied from the staged primary's data pages — the planner appends
		// these moves after the primaries, and the copier runs moves in plan
		// order, so the primary pages have landed first.
		var repl []rebalance.TupleMove
		for _, l := range ne.backup {
			primary := ne.primary[l.frag.Node]
			for i := range l.frag.Tuples {
				repl = append(repl, rebalance.TupleMove{
					Src: primary.node, Dst: l.node,
					SrcPage: primary.frag.DataPageOfSlot(i), DstPage: l.frag.DataPageOfSlot(i),
				})
			}
		}
		plan.Merge(rebalance.BuildPlan(repl))
	}
	return plan, nil
}

// Cutover installs the staged generation: every node flips its placement
// maps, the host repoints each relation at its new placement and adopts
// the new slot->node topology, and the executor advances so a subsequent
// Prepare plans from the new layout.
func (x *elasticExec) Cutover(t rebalance.Transition) {
	m := x.m
	for _, n := range m.Nodes {
		n.CutoverPlacement(t.Gen)
	}
	for _, e := range x.staged {
		m.Host.SetPlacement(e.rel.Name, e.placement)
	}
	m.Host.SetTopology(append([]int(nil), t.Members...), t.Gen)
	x.serving, x.staged = x.staged, nil
}

// registerRebalanceSeries adds migration telemetry to the sampler: the
// live copy backlog (gauge, pages), cumulative pages and bytes copied
// (windowed rates), and the copy error count. Probes read the copier's
// counters directly — sampling runs on the same sim clock as the copy
// process, so no synchronization is needed.
func registerRebalanceSeries(s *obs.Sampler, cp *rebalance.Copier) {
	s.Register("rebalance.backlog_pages", obs.SeriesGauge, func() float64 {
		return float64(cp.Backlog)
	})
	s.Register("rebalance.pages_copied", obs.SeriesRate, func() float64 {
		return float64(cp.PagesCopied)
	})
	s.Register("rebalance.bytes_copied", obs.SeriesRate, func() float64 {
		return float64(cp.BytesCopied)
	})
	s.Register("rebalance.copy_errors", obs.SeriesGauge, func() float64 {
		return float64(cp.Errors)
	})
}

// promoteCrashes adapts the fault injector's event stream into repair
// requests: a NodeCrash with no restart duration is a permanent failure,
// which the controller turns into an unplanned membership removal.
func promoteCrashes(ctl *rebalance.Controller) func(fault.Event) {
	return func(ev fault.Event) {
		if ev.Kind == fault.NodeCrash && ev.Dur == 0 {
			ctl.RequestRepair(ev.Node)
		}
	}
}
