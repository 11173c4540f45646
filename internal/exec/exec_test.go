package exec

import (
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/plan"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/storage"
)

// rig builds a minimal two-node machine (nodes 0,1 + host endpoint 2) with
// a tiny fragment on each node, suitable for driving the exec layer
// directly.
type rig struct {
	eng   *sim.Engine
	net   *hw.Network
	nodes []*Node
	host  *Host
	rel   *storage.Relation
}

func newRig(t testing.TB, placement core.Placement) *rig {
	t.Helper()
	eng := sim.New()
	params := hw.DefaultParams()
	params.NumProcessors = 2
	costs := DefaultCosts()
	streams := rng.NewFactory(5)

	cpus := make([]*hw.CPU, 3)
	for i := 0; i < 2; i++ {
		cpus[i] = hw.NewCPU(eng, "cpu", params)
	}
	net := hw.NewNetwork(eng, params, cpus)

	rel := storage.GenerateWisconsin(storage.GenSpec{Cardinality: 200, Seed: 9})
	r := &rig{eng: eng, net: net, rel: rel}
	layout := storage.Layout{TuplesPerPage: 8, IndexFanout: 8, IndexLeafCap: 8}
	for i := 0; i < 2; i++ {
		disk := hw.NewDisk(eng, "disk", params, cpus[i], streams.Stream("lat"))
		pool := buffer.NewPool(eng, "buf", 16, disk)
		n := NewNode(eng, i, params, costs, net, cpus[i], disk, pool)
		var tuples []storage.Tuple
		for _, tup := range rel.Tuples {
			if placement.HomeOf(tup) == i {
				tuples = append(tuples, tup)
			}
		}
		alloc := storage.NewAllocator(10000)
		frag := storage.BuildFragment(i, tuples, storage.Unique2, layout, alloc)
		frag.AddIndex(storage.Unique2, alloc)
		frag.AddIndex(storage.Unique1, alloc)
		n.AddFragment(rel.Name, frag)
		n.Start()
		r.nodes = append(r.nodes, n)
	}
	r.host = NewHost(eng, 2, params, net, costs)
	r.host.AddRelation(rel.Name, placement)
	r.host.Start()
	return r
}

func chooser(pred core.Predicate) AccessKind {
	if pred.Attr == storage.Unique1 {
		return AccessNonClustered
	}
	return AccessClustered
}

// selectOf is the selection plan a rig query submits: pred over the named
// relation through the workload's access method.
func selectOf(relation string, pred core.Predicate) *plan.Node {
	return plan.Select(relation, pred, chooser(pred))
}

func (r *rig) execute(t *testing.T, pred core.Predicate) QueryResult {
	t.Helper()
	var res QueryResult
	r.eng.Spawn("probe", func(p *sim.Proc) {
		res = r.host.Submit(p, selectOf(r.rel.Name, pred))
		r.eng.Stop()
	})
	if err := r.eng.RunUntil(sim.Time(60 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("query never completed")
	}
	return res
}

func TestHostExecutesAcrossNodes(t *testing.T) {
	rel := storage.GenerateWisconsin(storage.GenSpec{Cardinality: 200, Seed: 9})
	r := newRig(t, core.NewRangeForRelation(rel, storage.Unique1, 2))
	// Range on B reaches both nodes.
	res := r.execute(t, core.Predicate{Attr: storage.Unique2, Lo: 50, Hi: 69})
	if res.Tuples != 20 {
		t.Fatalf("got %d tuples", res.Tuples)
	}
	if res.ProcessorsUsed != 2 {
		t.Fatalf("used %d processors", res.ProcessorsUsed)
	}
	if r.nodes[0].OpsExecuted+r.nodes[1].OpsExecuted != 2 {
		t.Fatal("both nodes should run one operator")
	}
	if r.nodes[0].TuplesShipped+r.nodes[1].TuplesShipped != 20 {
		t.Fatal("shipped-tuple accounting wrong")
	}
	if r.host.QueriesRun != 1 {
		t.Fatalf("host ran %d queries", r.host.QueriesRun)
	}
}

func TestNonClusteredAccessFindsSingleTuple(t *testing.T) {
	rel := storage.GenerateWisconsin(storage.GenSpec{Cardinality: 200, Seed: 9})
	r := newRig(t, core.NewRangeForRelation(rel, storage.Unique1, 2))
	res := r.execute(t, core.Predicate{Attr: storage.Unique1, Lo: 100, Hi: 100})
	if res.Tuples != 1 {
		t.Fatalf("got %d tuples", res.Tuples)
	}
	if res.ProcessorsUsed != 1 {
		t.Fatalf("used %d processors", res.ProcessorsUsed)
	}
	if res.ResponseMS() <= 0 {
		t.Fatal("no simulated time elapsed")
	}
}

func TestEmptyResultStillCompletes(t *testing.T) {
	rel := storage.GenerateWisconsin(storage.GenSpec{Cardinality: 200, Seed: 9})
	r := newRig(t, core.NewRangeForRelation(rel, storage.Unique1, 2))
	res := r.execute(t, core.Predicate{Attr: storage.Unique2, Lo: 5000, Hi: 5100})
	if res.Tuples != 0 {
		t.Fatalf("got %d tuples from an empty range", res.Tuples)
	}
}

func TestQueriesShareNodesConcurrently(t *testing.T) {
	rel := storage.GenerateWisconsin(storage.GenSpec{Cardinality: 200, Seed: 9})
	r := newRig(t, core.NewRangeForRelation(rel, storage.Unique1, 2))
	done := 0
	for q := 0; q < 4; q++ {
		lo := int64(q * 30)
		r.eng.Spawn("probe", func(p *sim.Proc) {
			res := r.host.Submit(p, selectOf(rel.Name, core.Predicate{Attr: storage.Unique2, Lo: lo, Hi: lo + 9}))
			if res.Tuples != 10 {
				t.Errorf("query got %d tuples", res.Tuples)
			}
			done++
		})
	}
	if err := r.eng.RunUntil(sim.Time(60 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if done != 4 {
		t.Fatalf("only %d of 4 concurrent queries completed", done)
	}
}

func TestAccessKindString(t *testing.T) {
	if AccessClustered.String() != "clustered" ||
		AccessNonClustered.String() != "non-clustered" ||
		AccessTIDFetch.String() != "tid-fetch" {
		t.Fatal("AccessKind names wrong")
	}
	if AccessKind(99).String() != "unknown" {
		t.Fatal("unknown access kind should say so")
	}
}

func TestDefaultCosts(t *testing.T) {
	c := DefaultCosts()
	if c.IndexPageInstr <= 0 || c.PlanInstr <= 0 || c.CSms < 0 {
		t.Fatalf("bad defaults: %+v", c)
	}
	// Index-page search must be far cheaper than full page processing.
	if c.IndexPageInstr >= hw.DefaultParams().ReadPageInstr {
		t.Fatal("index page search should cost less than data page processing")
	}
}

func TestNodePanicsOnUnknownMessage(t *testing.T) {
	rel := storage.GenerateWisconsin(storage.GenSpec{Cardinality: 200, Seed: 9})
	r := newRig(t, core.NewRangeForRelation(rel, storage.Unique1, 2))
	r.eng.Spawn("rogue", func(p *sim.Proc) {
		r.net.Send(p, nil, hw.Message{From: 2, To: 0, Bytes: 100, Payload: "garbage"})
	})
	if err := r.eng.RunUntil(sim.Time(10 * sim.Second)); err == nil {
		t.Fatal("unknown message type should surface as an error")
	}
}

func TestHostCountsUnknownQueryResultAsOrphan(t *testing.T) {
	rel := storage.GenerateWisconsin(storage.GenSpec{Cardinality: 200, Seed: 9})
	r := newRig(t, core.NewRangeForRelation(rel, storage.Unique1, 2))
	r.eng.Spawn("rogue", func(p *sim.Proc) {
		r.net.Send(p, nil, hw.Message{From: 0, To: 2, Bytes: 100,
			Payload: opResult{QueryID: 777, Node: 0}})
	})
	if err := r.eng.RunUntil(sim.Time(10 * sim.Second)); err != nil {
		t.Fatalf("a reply for an ended query must not fail the run: %v", err)
	}
	if r.host.Degraded != nil || r.host.Orphans != 1 {
		t.Fatalf("fault-free host (degraded=%v) counted %d orphans, want 1",
			r.host.Degraded != nil, r.host.Orphans)
	}
}

func TestResultsShipInPackets(t *testing.T) {
	rel := storage.GenerateWisconsin(storage.GenSpec{Cardinality: 200, Seed: 9})
	r := newRig(t, core.NewRangeForRelation(rel, storage.Unique1, 2))
	// 100 tuples * 208B > 8KB: the result must split into multiple packets.
	before := r.net.Sent(0) + r.net.Sent(1)
	res := r.execute(t, core.Predicate{Attr: storage.Unique2, Lo: 0, Hi: 99})
	if res.Tuples != 100 {
		t.Fatalf("got %d tuples", res.Tuples)
	}
	packets := r.net.Sent(0) + r.net.Sent(1) - before
	if packets < 3 {
		t.Fatalf("expected multi-packet results, saw %d packets", packets)
	}
}
